// Configuration-count convergence (§4).
//
// "We chose to run our experiments on 300 network configurations after
// preliminary experiments showed that using more configurations (up to
// 600) did not cause a significant change in the results."
//
// This harness reproduces that methodological check: median speedups of
// the three relocation algorithms at 75, 150, 300 and 600 configurations.
// The 300→600 deltas should be small (a few percent), justifying the
// paper's choice of 300.
#include <cstdio>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;
  using core::AlgorithmKind;

  exp::BenchHarness bench(argc, argv, "analysis_config_convergence");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  std::printf("=== Configuration-count convergence (the paper's 300 vs 600 "
              "check) ===\n\n");
  std::printf("# configs\tone-shot_median\tglobal_median\tlocal_median\n");

  double prev[3] = {0, 0, 0};
  for (const int configs : {75, 150, 300, 600}) {
    exp::SweepSpec sweep;
    sweep.configs = configs;
    sweep.base_seed = env_u64("WADC_SEED", 1000);
    sweep.jobs = bench.jobs();
    const auto series = exp::run_sweep(
        library, sweep,
        {AlgorithmKind::kOneShot, AlgorithmKind::kGlobal,
         AlgorithmKind::kLocal},
        [configs](int done, int total) {
          if (done % 400 == 0) {
            std::fprintf(stderr, "  [%d configs] ... %d/%d runs\n", configs,
                         done, total);
          }
        });
    const double medians[3] = {exp::stats_of(series[0].speedup).median,
                               exp::stats_of(series[1].speedup).median,
                               exp::stats_of(series[2].speedup).median};
    std::printf("%d\t%.3f\t%.3f\t%.3f", configs, medians[0], medians[1],
                medians[2]);
    if (prev[0] > 0) {
      std::printf("\t(deltas %+.1f%% %+.1f%% %+.1f%%)",
                  100 * (medians[0] / prev[0] - 1),
                  100 * (medians[1] / prev[1] - 1),
                  100 * (medians[2] / prev[2] - 1));
    }
    std::printf("\n");
    std::fflush(stdout);
    for (int i = 0; i < 3; ++i) prev[i] = medians[i];
    bench.add_runs(4LL * configs);  // baseline + 3 algorithms
  }
  std::printf("\n(paper: going beyond 300 configurations 'did not cause a "
              "significant change in the results')\n");

  return bench.finish();
}
