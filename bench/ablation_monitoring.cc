// Ablation: how much does each piece of the monitoring subsystem (§4)
// contribute to the global algorithm's performance?
//
// Variants, all with the global algorithm, 8 servers, 10-minute period:
//   full          passive + piggyback + on-demand probes (the paper's setup)
//   no-piggyback  passive + probes (caches fill only from local traffic)
//   no-probes     passive + piggyback (planner falls back to stale samples)
//   passive-only  neither piggyback nor probes
//   oracle        idealized ground-truth bandwidth knowledge, no monitoring
//                 traffic at all (an upper bound, not a real system)
// plus a T_thres sweep over the cache timeout (the paper picked 40 s from
// its trace analysis).
#include <cstdio>
#include <string>
#include <vector>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "trace/library.h"

namespace {

using namespace wadc;

double mean_speedup(const trace::TraceLibrary& library,
                    const exp::SweepSpec& sweep) {
  const auto series =
      exp::run_sweep(library, sweep, {core::AlgorithmKind::kGlobal});
  return exp::stats_of(series[0].speedup).mean;
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchHarness bench(argc, argv, "ablation_monitoring");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::SweepSpec sweep;
  sweep.configs = env_int("WADC_CONFIGS", 100, 1);
  sweep.base_seed = env_u64("WADC_SEED", 1000);
  sweep.jobs = bench.jobs();

  std::printf("=== Ablation: monitoring subsystem (global algorithm, %d "
              "configurations each) ===\n\n",
              sweep.configs);
  std::printf("# variant\tmean_speedup_vs_download_all\n");

  struct Variant {
    const char* name;
    bool piggyback;
    bool probes;
    bool oracle;
  };
  const Variant variants[] = {
      {"full", true, true, false},
      {"no-piggyback", false, true, false},
      {"no-probes", true, false, false},
      {"passive-only", false, false, false},
      {"oracle", true, true, true},
  };
  for (const auto& v : variants) {
    exp::SweepSpec s = sweep;
    s.experiment.monitor.piggyback_enabled = v.piggyback;
    s.experiment.monitor.probing_enabled = v.probes;
    s.experiment.engine_base.oracle_bandwidth = v.oracle;
    std::printf("%s\t%.3f\n", v.name, mean_speedup(library, s));
    std::fflush(stdout);
    bench.add_runs(2LL * sweep.configs);  // baseline + global
  }

  std::printf("\n# T_thres (cache timeout) sweep, full monitoring\n");
  std::printf("# t_thres_s\tmean_speedup\n");
  for (const double ttl : {10.0, 20.0, 40.0, 80.0, 160.0, 320.0}) {
    exp::SweepSpec s = sweep;
    s.experiment.monitor.t_thres_seconds = ttl;
    std::printf("%.0f\t%.3f\n", ttl, mean_speedup(library, s));
    std::fflush(stdout);
    bench.add_runs(2LL * sweep.configs);  // baseline + global
  }
  std::printf("\n(paper: T_thres = 40 s, chosen as just under half the "
              "~2 min expected time between significant changes)\n");

  return bench.finish();
}
