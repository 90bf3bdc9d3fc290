// Tests for the experiment harness: configuration sampling, runners and
// sweep bookkeeping.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/parse.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "trace/library.h"

namespace wadc::exp {
namespace {

trace::TraceLibrary& shared_library() {
  static trace::TraceLibrary lib(trace::TraceLibraryParams{}, 2026);
  return lib;
}

TEST(NetworkConfig, AssignsEveryLink) {
  const auto table = make_network_config(shared_library(), 9, 1);
  for (net::HostId a = 0; a < 9; ++a) {
    for (net::HostId b = a + 1; b < 9; ++b) {
      EXPECT_TRUE(table.has_link(a, b));
      EXPECT_GT(table.bandwidth_at(a, b, 0.0), 0);
    }
  }
}

TEST(NetworkConfig, DeterministicInSeed) {
  const auto t1 = make_network_config(shared_library(), 9, 5);
  const auto t2 = make_network_config(shared_library(), 9, 5);
  for (net::HostId a = 0; a < 9; ++a) {
    for (net::HostId b = a + 1; b < 9; ++b) {
      EXPECT_EQ(t1.bandwidth_at(a, b, 123.0), t2.bandwidth_at(a, b, 123.0));
    }
  }
}

TEST(NetworkConfig, DifferentSeedsProduceDifferentAssignments) {
  const auto t1 = make_network_config(shared_library(), 9, 5);
  const auto t2 = make_network_config(shared_library(), 9, 6);
  int diffs = 0;
  for (net::HostId a = 0; a < 9; ++a) {
    for (net::HostId b = a + 1; b < 9; ++b) {
      if (t1.bandwidth_at(a, b, 0.0) != t2.bandwidth_at(a, b, 0.0)) ++diffs;
    }
  }
  EXPECT_GT(diffs, 10);
}

TEST(NetworkConfig, StartAtNoonOffsetApplied) {
  NetworkConfigParams params;
  params.trace_start_offset_seconds = 12 * 3600;
  const auto noon = make_network_config(shared_library(), 3, 9, params);
  params.trace_start_offset_seconds = 0;
  const auto midnight = make_network_config(shared_library(), 3, 9, params);
  // Same traces, different offsets: at sim t=0 the values differ for at
  // least one link.
  int diffs = 0;
  for (net::HostId a = 0; a < 3; ++a) {
    for (net::HostId b = a + 1; b < 3; ++b) {
      if (noon.bandwidth_at(a, b, 0.0) != midnight.bandwidth_at(a, b, 0.0)) {
        ++diffs;
      }
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(RunExperiment, IsReproducible) {
  ExperimentSpec spec;
  spec.algorithm = core::AlgorithmKind::kGlobal;
  spec.num_servers = 4;
  spec.iterations = 30;
  spec.config_seed = 7;
  const auto r1 = run_experiment(shared_library(), spec);
  const auto r2 = run_experiment(shared_library(), spec);
  EXPECT_EQ(r1.completion_seconds, r2.completion_seconds);
  EXPECT_EQ(r1.stats.relocations, r2.stats.relocations);
}

TEST(RunSweep, SpeedupIsBaselineOverCompletion) {
  SweepSpec sweep;
  sweep.configs = 3;
  sweep.base_seed = 400;
  sweep.experiment.num_servers = 4;
  sweep.experiment.iterations = 25;
  const auto series = run_sweep(shared_library(), sweep,
                                {core::AlgorithmKind::kDownloadAll,
                                 core::AlgorithmKind::kOneShot});
  ASSERT_EQ(series.size(), 2u);
  const auto& base = series[0];
  const auto& one_shot = series[1];
  ASSERT_EQ(base.completion_seconds.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(base.speedup[i], 1.0);
    EXPECT_NEAR(one_shot.speedup[i],
                base.completion_seconds[i] / one_shot.completion_seconds[i],
                1e-12);
  }
}

TEST(RunSweep, AppendsBaselineWhenNotRequested) {
  SweepSpec sweep;
  sweep.configs = 2;
  sweep.base_seed = 500;
  sweep.experiment.num_servers = 4;
  sweep.experiment.iterations = 20;
  const auto series =
      run_sweep(shared_library(), sweep, {core::AlgorithmKind::kOneShot});
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].algorithm, core::AlgorithmKind::kOneShot);
  EXPECT_EQ(series[1].algorithm, core::AlgorithmKind::kDownloadAll);
}

TEST(RunSweep, ProgressCallbackCoversAllRuns) {
  SweepSpec sweep;
  sweep.configs = 2;
  sweep.base_seed = 600;
  sweep.experiment.num_servers = 4;
  sweep.experiment.iterations = 20;
  int last = 0, total_seen = 0;
  run_sweep(shared_library(), sweep, {core::AlgorithmKind::kOneShot},
            [&](int done, int total) {
              EXPECT_EQ(done, last + 1);
              last = done;
              total_seen = total;
            });
  EXPECT_EQ(last, total_seen);
  EXPECT_EQ(last, 4);  // 2 configs x (baseline + one-shot)
}

TEST(LocalExtrasSweep, OneSeriesPerK) {
  SweepSpec sweep;
  sweep.configs = 2;
  sweep.base_seed = 700;
  sweep.experiment.num_servers = 4;
  sweep.experiment.iterations = 20;
  const auto series =
      run_local_extras_sweep(shared_library(), sweep, {0, 2});
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].local_extra_candidates, 0);
  EXPECT_EQ(series[1].local_extra_candidates, 2);
  for (const auto& s : series) {
    EXPECT_EQ(s.speedup.size(), 2u);
    for (const double sp : s.speedup) EXPECT_GT(sp, 0);
  }
}

TEST(SeriesStats, ComputesSummary) {
  const auto st = stats_of({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(st.mean, 3.0);
  EXPECT_DOUBLE_EQ(st.median, 3.0);
  EXPECT_DOUBLE_EQ(st.p10, 1.4);
  EXPECT_DOUBLE_EQ(st.p90, 4.6);
}

TEST(EnvHelpers, FallBackWithoutVariables) {
  unsetenv("WADC_CONFIGS");
  unsetenv("WADC_SEED");
  EXPECT_EQ(env_int("WADC_CONFIGS", 42, 1), 42);
  EXPECT_EQ(env_u64("WADC_SEED", 7), 7u);
}

TEST(EnvHelpers, ReadOverrides) {
  setenv("WADC_CONFIGS", "12", 1);
  setenv("WADC_SEED", "99", 1);
  EXPECT_EQ(env_int("WADC_CONFIGS", 42, 1), 12);
  EXPECT_EQ(env_u64("WADC_SEED", 7), 99u);
  unsetenv("WADC_CONFIGS");
  unsetenv("WADC_SEED");
}

TEST(EnvHelpers, SeedZeroIsAValidOverride) {
  setenv("WADC_SEED", "0", 1);
  EXPECT_EQ(env_u64("WADC_SEED", 7), 0u);
  unsetenv("WADC_SEED");
}

TEST(EnvHelpersDeathTest, TrailingGarbageInConfigsIsFatal) {
  setenv("WADC_CONFIGS", "8x", 1);
  EXPECT_EXIT(env_int("WADC_CONFIGS", 1, 1), testing::ExitedWithCode(2), "WADC_CONFIGS");
  unsetenv("WADC_CONFIGS");
}

TEST(EnvHelpersDeathTest, NegativeConfigsIsFatal) {
  setenv("WADC_CONFIGS", "-2", 1);
  EXPECT_EXIT(env_int("WADC_CONFIGS", 1, 1), testing::ExitedWithCode(2), "WADC_CONFIGS");
  unsetenv("WADC_CONFIGS");
}

TEST(EnvHelpersDeathTest, NonNumericSeedIsFatal) {
  setenv("WADC_SEED", "abc", 1);
  EXPECT_EXIT(env_u64("WADC_SEED", 1), testing::ExitedWithCode(2), "WADC_SEED");
  unsetenv("WADC_SEED");
}

}  // namespace
}  // namespace wadc::exp
