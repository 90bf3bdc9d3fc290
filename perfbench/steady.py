#!/usr/bin/env python3
"""Steadiness of the benchmark's metrics across seeds.

    python3 perfbench/steady.py [--runs 10] [--seconds S]
                                [--workload NAME ...] [--out FILE]

Runs perfbench/run.py --trace 0 on each workload --runs times, with seeds
1, 2, ..., --runs, and prints for every metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median. It also prints the
attempted and failed query counts and whether every run was correct. The
bounds in BENCHMARK.json are set from these figures. With --out, the
figures go to FILE as JSON too, with the machine's hardware_concurrency,
nproc and the build type.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_type():
    cache = os.path.join(ROOT, ".bench_build", "perfbench", "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.strip().split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("perfbench failed on %s seed %d" % (workload, seed))
    for line in out.stdout.splitlines():
        if line.startswith("CHECK FAILED"):
            sys.stderr.write(line + "\n")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else 0.0,
            "values": values}


def main():
    config = benchmark_config()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=config["run_seconds"])
    p.add_argument("--workload", action="append")
    p.add_argument("--out")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")

    workloads = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    report = {"hardware_concurrency": os.cpu_count(), "nproc": nproc,
              "build_type": None, "seconds": args.seconds,
              "workloads": {}}
    for workload in workloads:
        results = [run_once(workload, seed, args.seconds)
                   for seed in range(1, args.runs + 1)]
        report["build_type"] = build_type()
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarize(
                [r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "metrics": metrics}
        report["workloads"][workload] = entry
        print("%s: correct=%s failed/attempted=%s" % (
            workload, entry["correct"],
            sorted({f / a for f, a in zip(entry["failed"],
                                          entry["attempted"])})))
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  over bound/3" if m["spread"] > bound / 3 else ""
            print("  %-30s median %14.6g  q1 %14.6g  q3 %14.6g  "
                  "spread %.4f%s" % (name, m["median"], m["q1"], m["q3"],
                                     m["spread"], flag))
    print("hardware_concurrency=%s nproc=%s build_type=%s" % (
        report["hardware_concurrency"], report["nproc"],
        report["build_type"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
