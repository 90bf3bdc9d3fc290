// Tests for the parallel sweep runner: parallel_for semantics, worker-count
// resolution, and the determinism contract — results, progress and merged
// observability output are byte-identical for every jobs value.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exp/experiment.h"
#include "exp/parallel.h"
#include "obs/obs.h"
#include "trace/library.h"

namespace wadc::exp {
namespace {

const trace::TraceLibrary& shared_library() {
  static const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);
  return library;
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  constexpr int kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, 4, [&hits](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SerialWhenOneWorker) {
  std::vector<int> order;
  parallel_for(10, 1, [&order](int i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, HandlesZeroItems) {
  int calls = 0;
  parallel_for(0, 4, [&calls](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, RethrowsFirstWorkerException) {
  EXPECT_THROW(
      parallel_for(50, 4,
                   [](int i) {
                     if (i == 17) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelForTest, MoreWorkersThanItems) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(3, 16, [&hits](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ResolveJobsTest, PositiveRequestTakenAsIs) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(1), 1);
}

TEST(ResolveJobsTest, DefaultIsSerialWithoutEnvOverride) {
  unsetenv("WADC_JOBS");
  EXPECT_EQ(resolve_jobs(0), 1);
}

TEST(ResolveJobsTest, EnvOverrideApplies) {
  setenv("WADC_JOBS", "5", 1);
  EXPECT_EQ(resolve_jobs(0), 5);
  EXPECT_EQ(resolve_jobs(2), 2);  // explicit request beats the env default
  setenv("WADC_JOBS", "0", 1);
  EXPECT_GE(resolve_jobs(0), 1);  // 0 = all hardware threads
  unsetenv("WADC_JOBS");
}

TEST(ResolveJobsDeathTest, MalformedEnvValueIsFatal) {
  setenv("WADC_JOBS", "4x", 1);
  EXPECT_EXIT(resolve_jobs(0), testing::ExitedWithCode(2), "WADC_JOBS");
  setenv("WADC_JOBS", "-3", 1);
  EXPECT_EXIT(resolve_jobs(0), testing::ExitedWithCode(2), "WADC_JOBS");
  unsetenv("WADC_JOBS");
}

SweepSpec small_sweep(int jobs) {
  SweepSpec sweep;
  sweep.configs = 4;
  sweep.base_seed = 1000;
  sweep.jobs = jobs;
  return sweep;
}

void expect_series_equal(const std::vector<AlgorithmSeries>& a,
                         const std::vector<AlgorithmSeries>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    SCOPED_TRACE(testing::Message() << "series " << s);
    EXPECT_EQ(a[s].algorithm, b[s].algorithm);
    EXPECT_EQ(a[s].local_extra_candidates, b[s].local_extra_candidates);
    // Exact equality on purpose: the contract is byte-identical results,
    // not approximately-equal results.
    EXPECT_EQ(a[s].completion_seconds, b[s].completion_seconds);
    EXPECT_EQ(a[s].mean_interarrival, b[s].mean_interarrival);
    EXPECT_EQ(a[s].speedup, b[s].speedup);
    EXPECT_EQ(a[s].relocations, b[s].relocations);
  }
}

TEST(ParallelSweepTest, RunSweepIdenticalAcrossWorkerCounts) {
  const auto& library = shared_library();
  const std::vector<core::AlgorithmKind> algorithms = {
      core::AlgorithmKind::kOneShot, core::AlgorithmKind::kGlobal};
  const auto serial = run_sweep(library, small_sweep(1), algorithms);
  const auto parallel = run_sweep(library, small_sweep(4), algorithms);
  expect_series_equal(serial, parallel);
}

TEST(ParallelSweepTest, BaselineInAlgorithmListIdenticalAcrossWorkerCounts) {
  const auto& library = shared_library();
  const std::vector<core::AlgorithmKind> algorithms = {
      core::AlgorithmKind::kDownloadAll, core::AlgorithmKind::kGlobal,
      core::AlgorithmKind::kDownloadAll};
  const auto serial = run_sweep(library, small_sweep(1), algorithms);
  const auto parallel = run_sweep(library, small_sweep(3), algorithms);
  expect_series_equal(serial, parallel);
}

TEST(ParallelSweepTest, LocalExtrasSweepIdenticalAcrossWorkerCounts) {
  const auto& library = shared_library();
  const std::vector<int> ks = {0, 2};
  const auto serial = run_local_extras_sweep(library, small_sweep(1), ks);
  const auto parallel = run_local_extras_sweep(library, small_sweep(4), ks);
  expect_series_equal(serial, parallel);
}

struct ObsDumps {
  std::string trace;
  std::string metrics;
  std::string timeline_csv;
  std::string decisions_jsonl;
};

ObsDumps obs_dumps_for_jobs(int jobs) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::Timeline timeline;
  obs::DecisionLog decisions;
  SweepSpec sweep = small_sweep(jobs);
  sweep.experiment.obs.tracer = &tracer;
  sweep.experiment.obs.metrics = &metrics;
  sweep.experiment.obs.timeline = &timeline;
  sweep.experiment.obs.decisions = &decisions;
  (void)run_sweep(shared_library(), sweep, {core::AlgorithmKind::kGlobal});
  ObsDumps dumps;
  std::ostringstream trace_out, metrics_out, timeline_out, decisions_out;
  tracer.write_chrome_json(trace_out);
  metrics.write_json(metrics_out);
  timeline.write_csv(timeline_out);
  decisions.write_jsonl(decisions_out);
  dumps.trace = trace_out.str();
  dumps.metrics = metrics_out.str();
  dumps.timeline_csv = timeline_out.str();
  dumps.decisions_jsonl = decisions_out.str();
  return dumps;
}

TEST(ParallelSweepTest, MergedObsOutputIdenticalAcrossWorkerCounts) {
  const auto serial = obs_dumps_for_jobs(1);
  const auto parallel = obs_dumps_for_jobs(4);
  EXPECT_GT(serial.trace.size(), 2u);    // non-trivial trace
  EXPECT_GT(serial.metrics.size(), 2u);  // non-trivial metrics dump
  // The timeline holds sampled rows and the decision log holds adaptation
  // records from every run in the sweep.
  EXPECT_NE(serial.timeline_csv.find(",host,"), std::string::npos)
      << "timeline should contain sampled host rows";
  EXPECT_NE(serial.timeline_csv.find(",net,"), std::string::npos)
      << "timeline should contain sampled net rows";
  EXPECT_NE(serial.decisions_jsonl.find("\"category\":\"plan\""),
            std::string::npos);
  // All four deterministic artifacts are byte-identical across worker
  // counts — the tentpole determinism contract.
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.timeline_csv, parallel.timeline_csv);
  EXPECT_EQ(serial.decisions_jsonl, parallel.decisions_jsonl);
}

TEST(ParallelSweepTest, ProgressSerializedAndMonotoneUnderParallelism) {
  const auto& library = shared_library();
  std::vector<int> dones;
  std::vector<int> totals;
  (void)run_sweep(library, small_sweep(4), {core::AlgorithmKind::kGlobal},
                  [&](int done, int total) {
                    // The runner serializes callbacks, so no locking here.
                    dones.push_back(done);
                    totals.push_back(total);
                  });
  const int expected_total = 4 * 2;  // configs x (baseline + global)
  ASSERT_EQ(dones.size(), static_cast<std::size_t>(expected_total));
  for (int i = 0; i < expected_total; ++i) {
    EXPECT_EQ(dones[i], i + 1);
    EXPECT_EQ(totals[i], expected_total);
  }
}

}  // namespace
}  // namespace wadc::exp
