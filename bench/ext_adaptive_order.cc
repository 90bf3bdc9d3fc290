// Extension: adapting the combination *order* as well as the location.
//
// The paper fixes the order (complete binary or left-deep, Figure 10) and
// adapts only locations. Its conclusions invite the next step: choose how
// sources are paired from measured bandwidth, and re-choose it on-line —
// the barrier-based change-over already switches plans atomically, so it
// can switch (tree, placement) pairs just as safely.
//
// Series (speedup over download-all):
//   global/binary     the paper's global algorithm on the fixed binary tree
//   global/left-deep  the same on the fixed left-deep tree (Figure 10's
//                     unfavourable order)
//   global-order      joint order+location adaptation (greedy agglomerative
//                     order planning, one-shot placement refinement)
//   reorder-only      order adapts but operators stay at the client — the
//                     query-scrambling-style adaptation §1 argues is
//                     "inherently limited" (expect ~1x: it cannot avoid a
//                     single slow link)
#include <cstdio>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;
  using core::AlgorithmKind;

  exp::BenchHarness bench(argc, argv, "ext_adaptive_order");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::SweepSpec sweep;
  sweep.configs = env_int("WADC_CONFIGS", 100, 1);
  sweep.base_seed = env_u64("WADC_SEED", 1000);
  sweep.jobs = bench.jobs();

  std::printf("=== Extension: adaptive combination order, %d configurations "
              "===\n\n",
              sweep.configs);

  std::vector<std::string> names;
  std::vector<std::vector<double>> speedups;

  {
    exp::SweepSpec s = sweep;
    const auto series = exp::run_sweep(
        library, s,
        {AlgorithmKind::kGlobal, AlgorithmKind::kGlobalOrder,
         AlgorithmKind::kReorderOnly});
    names.push_back("global/binary");
    speedups.push_back(series[0].speedup);
    names.push_back("global-order");
    speedups.push_back(series[1].speedup);
    names.push_back("reorder-only");
    speedups.push_back(series[2].speedup);
    bench.add_runs(4LL * sweep.configs);  // baseline + 3 algorithms
  }
  {
    exp::SweepSpec s = sweep;
    s.experiment.tree_shape = core::TreeShape::kLeftDeep;
    const auto series = exp::run_sweep(library, s, {AlgorithmKind::kGlobal});
    names.push_back("global/left-deep");
    speedups.push_back(series[0].speedup);
    bench.add_runs(2LL * sweep.configs);  // baseline + global
  }

  const int bench_rc = bench.finish();

  std::printf("# Speedup over download-all\n");
  exp::print_summary(names, speedups, "x");

  int order_wins = 0;
  for (std::size_t i = 0; i < speedups[0].size(); ++i) {
    if (speedups[1][i] > speedups[0][i]) ++order_wins;
  }
  std::printf("\nglobal-order beats global/binary on %d of %d "
              "configurations\n",
              order_wins, sweep.configs);
  std::printf("(hypothesis: adapting the order recovers what a fixed "
              "unfavourable order loses,\n and squeezes more out of "
              "favourable ones; thrash on volatile configs is the cost)\n");
  return bench_rc;
}
