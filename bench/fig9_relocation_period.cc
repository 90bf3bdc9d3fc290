// Figure 9: impact of the relocation period on the global algorithm. Each
// point is the average speedup over all configurations. The paper finds a
// 5-10 minute relocation period performs best.
#include <cstdio>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;
  using core::AlgorithmKind;

  exp::BenchHarness bench(argc, argv, "fig9_relocation_period");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::SweepSpec sweep;
  sweep.configs = env_int("WADC_CONFIGS", 300, 1);
  sweep.base_seed = env_u64("WADC_SEED", 1000);
  sweep.jobs = bench.jobs();

  std::printf("=== Figure 9: global algorithm vs relocation period, %d "
              "configurations each ===\n\n",
              sweep.configs);
  std::printf("# period_min\tmean_speedup\tmedian_speedup\tmean_relocations\n");

  for (const double minutes : {1.0, 2.0, 5.0, 10.0, 30.0, 60.0}) {
    sweep.experiment.relocation_period_seconds = minutes * 60.0;
    const auto series = exp::run_sweep(
        library, sweep, {AlgorithmKind::kGlobal},
        [minutes](int done, int total) {
          if (done % 200 == 0) {
            std::fprintf(stderr, "  [%g min] ... %d/%d runs\n", minutes, done,
                         total);
          }
        });
    const auto st = exp::stats_of(series[0].speedup);
    double mean_reloc = 0;
    for (const int r : series[0].relocations) mean_reloc += r;
    mean_reloc /= static_cast<double>(series[0].relocations.size());
    std::printf("%g\t%.3f\t%.3f\t%.2f\n", minutes, st.mean, st.median,
                mean_reloc);
    std::fflush(stdout);
    bench.add_runs(2LL * sweep.configs);  // baseline + global
  }
  std::printf("\n(paper: a 5-10 minute relocation period provides the best "
              "performance)\n");

  return bench.finish();
}
