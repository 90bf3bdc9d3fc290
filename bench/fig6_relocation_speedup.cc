// Figure 6 + §5 headline numbers: performance of the relocation algorithms
// over 300 network configurations (8 servers, complete binary tree, 10 min
// relocation period).
//
// Prints two sorted speedup series (panel a: one-shot vs global, panel b:
// local vs global — both sorted by the global series, both on the same
// scale, as in the paper), the §5 summary statistics (median global/one-shot
// and global/local ratios), and the mean image interarrival time per
// algorithm (paper: 101.2 s download-all, 24.6 s one-shot, 22 s local,
// 17.1 s global).
//
// WADC_CONFIGS overrides the configuration count (default 300, as in the
// paper); WADC_SEED the base seed; WADC_JOBS / --jobs the sweep worker
// count (results are byte-identical for every jobs value).
#include <cstdio>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "trace/library.h"
#include "trace/stats.h"

int main(int argc, char** argv) {
  using namespace wadc;
  using core::AlgorithmKind;

  exp::BenchHarness bench(argc, argv, "fig6_relocation_speedup");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::SweepSpec sweep;
  sweep.configs = env_int("WADC_CONFIGS", 300, 1);
  sweep.base_seed = env_u64("WADC_SEED", 1000);
  sweep.jobs = bench.jobs();
  sweep.profiler = bench.profiler();

  std::printf("=== Figure 6: speedup over download-all, %d configurations, "
              "8 servers ===\n",
              sweep.configs);

  const auto series = exp::run_sweep(
      library, sweep,
      {AlgorithmKind::kOneShot, AlgorithmKind::kGlobal,
       AlgorithmKind::kLocal},
      [](int done, int total) {
        if (done % 50 == 0) {
          std::fprintf(stderr, "  ... %d/%d runs\n", done, total);
        }
      });
  bench.add_runs(4LL * sweep.configs);
  const int bench_rc = bench.finish();

  const auto& one_shot = series[0];
  const auto& global = series[1];
  const auto& local = series[2];
  const auto& download_all = series[3];  // baseline appended by run_sweep

  exp::print_sorted_series(
      "\n# Figure 6(a): one-shot vs global (sorted by global speedup)",
      {"one-shot", "global"}, {one_shot.speedup, global.speedup},
      /*sort_by=*/1);
  exp::print_sorted_series(
      "\n# Figure 6(b): local vs global (sorted by global speedup)",
      {"local", "global"}, {local.speedup, global.speedup},
      /*sort_by=*/1);

  std::printf("\n# Speedup summary (vs download-all)\n");
  exp::print_summary({"one-shot", "global", "local"},
                     {one_shot.speedup, global.speedup, local.speedup}, "x");

  // §5: "the global algorithm achieves a median improvement of 40% over and
  // above the speedup achieved by the one-shot algorithm" and "the median
  // ratio [global over local] is about 1.25".
  std::vector<double> global_over_oneshot, global_over_local;
  for (std::size_t i = 0; i < global.speedup.size(); ++i) {
    global_over_oneshot.push_back(global.speedup[i] / one_shot.speedup[i]);
    global_over_local.push_back(global.speedup[i] / local.speedup[i]);
  }
  std::printf("\nmedian global/one-shot speedup ratio: %.3f  (paper: ~1.40)\n",
              trace::median_of(global_over_oneshot));
  std::printf("median global/local    speedup ratio: %.3f  (paper: ~1.25)\n",
              trace::median_of(global_over_local));

  std::printf("\n# Mean image interarrival time at the client (seconds)\n");
  std::printf("#   paper: download-all 101.2, one-shot 24.6, local 22, "
              "global 17.1\n");
  exp::print_summary(
      {"download-all", "one-shot", "local", "global"},
      {download_all.mean_interarrival, one_shot.mean_interarrival,
       local.mean_interarrival, global.mean_interarrival},
      "s");
  return bench_rc;
}
