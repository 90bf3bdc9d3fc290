// Figure 10: impact of the combination order — complete binary tree vs
// left-deep tree — on the global and local algorithms. Sorted speedup
// series over all configurations, sorted by the complete-binary series, as
// in the paper. The paper concludes the complete binary order lets either
// relocation algorithm do better than the left-deep order.
#include <cstdio>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;
  using core::AlgorithmKind;

  exp::BenchHarness bench(argc, argv, "fig10_tree_shape");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::SweepSpec sweep;
  sweep.configs = env_int("WADC_CONFIGS", 300, 1);
  sweep.base_seed = env_u64("WADC_SEED", 1000);
  sweep.jobs = bench.jobs();

  std::printf("=== Figure 10: combination order (complete binary vs "
              "left-deep), %d configurations ===\n",
              sweep.configs);

  std::vector<std::vector<double>> speedups;  // [shape][algo] flattened
  for (const auto shape :
       {core::TreeShape::kCompleteBinary, core::TreeShape::kLeftDeep}) {
    sweep.experiment.tree_shape = shape;
    const auto series = exp::run_sweep(
        library, sweep, {AlgorithmKind::kGlobal, AlgorithmKind::kLocal},
        [shape](int done, int total) {
          if (done % 200 == 0) {
            std::fprintf(stderr, "  [%s] ... %d/%d runs\n",
                         core::tree_shape_name(shape), done, total);
          }
        });
    speedups.push_back(series[0].speedup);  // global
    speedups.push_back(series[1].speedup);  // local
    bench.add_runs(3LL * sweep.configs);  // baseline + global + local
  }

  const int bench_rc = bench.finish();

  exp::print_sorted_series(
      "\n# Figure 10(a): global algorithm (sorted by complete-binary)",
      {"binary", "left-deep"}, {speedups[0], speedups[2]}, /*sort_by=*/0);
  exp::print_sorted_series(
      "\n# Figure 10(b): local algorithm (sorted by complete-binary)",
      {"binary", "left-deep"}, {speedups[1], speedups[3]}, /*sort_by=*/0);

  std::printf("\n# Mean speedup by order\n");
  exp::print_summary({"global/binary", "global/left-deep", "local/binary",
                      "local/left-deep"},
                     {speedups[0], speedups[2], speedups[1], speedups[3]},
                     "x");
  std::printf("\n(paper: the complete binary order outperforms the "
              "left-deep order for both algorithms)\n");
  return bench_rc;
}
