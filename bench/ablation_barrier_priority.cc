// Ablation: barrier-message priority (§2.2).
//
// "This scheme has the potential disadvantage that barriers might take a
// long time; for example, if a barrier message is enqueued behind a large
// (data-transfer) message. To get around this problem, barrier messages are
// assigned a higher priority than other messages."
//
// We run the global algorithm with and without the priority boost, at two
// relocation periods (more frequent adaptation means more barriers, so the
// effect should be larger at short periods).
#include <cstdio>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "net/network.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;

  exp::BenchHarness bench(argc, argv, "ablation_barrier_priority");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::SweepSpec sweep;
  sweep.configs = env_int("WADC_CONFIGS", 100, 1);
  sweep.base_seed = env_u64("WADC_SEED", 1000);
  sweep.jobs = bench.jobs();

  std::printf("=== Ablation: barrier/control message priority (global "
              "algorithm, %d configurations each) ===\n\n",
              sweep.configs);
  std::printf("# period_min\tpriority\tmean_speedup\tmedian_speedup\n");

  for (const double minutes : {2.0, 10.0}) {
    for (const bool priority_boost : {true, false}) {
      exp::SweepSpec s = sweep;
      s.experiment.relocation_period_seconds = minutes * 60;
      s.experiment.engine_base.control_priority =
          priority_boost ? net::kControlPriority : net::kDataPriority;
      const auto series =
          exp::run_sweep(library, s, {core::AlgorithmKind::kGlobal});
      const auto st = exp::stats_of(series[0].speedup);
      std::printf("%g\t%s\t%.3f\t%.3f\n", minutes,
                  priority_boost ? "high" : "normal", st.mean, st.median);
      std::fflush(stdout);
      bench.add_runs(2LL * sweep.configs);  // baseline + global
    }
  }
  std::printf("\n(paper's design: high priority; without it barrier "
              "messages queue behind ~128KB data transfers)\n");

  return bench.finish();
}
