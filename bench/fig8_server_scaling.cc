// Figure 8: impact of the number of data sources (4 to 32 servers) on the
// relocation algorithms. Each point is the average speedup over download-all
// across all configurations. The paper's surprise: the global algorithm
// scales *better* than both one-shot and local (whose convergence problem
// worsens with size).
#include <cstdio>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;
  using core::AlgorithmKind;

  exp::BenchHarness bench(argc, argv, "fig8_server_scaling");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::SweepSpec sweep;
  sweep.configs = env_int("WADC_CONFIGS", 300, 1);
  sweep.base_seed = env_u64("WADC_SEED", 1000);
  sweep.jobs = bench.jobs();

  std::printf("=== Figure 8: speedup vs number of servers, %d "
              "configurations each ===\n\n",
              sweep.configs);
  std::printf("# servers\tone-shot\tglobal\tlocal\n");

  for (const int servers : {4, 8, 16, 32}) {
    sweep.experiment.num_servers = servers;
    const auto series = exp::run_sweep(
        library, sweep,
        {AlgorithmKind::kOneShot, AlgorithmKind::kGlobal,
         AlgorithmKind::kLocal},
        [servers](int done, int total) {
          if (done % 200 == 0) {
            std::fprintf(stderr, "  [%d servers] ... %d/%d runs\n", servers,
                         done, total);
          }
        });
    std::printf("%d\t%.3f\t%.3f\t%.3f\n", servers,
                exp::stats_of(series[0].speedup).mean,
                exp::stats_of(series[1].speedup).mean,
                exp::stats_of(series[2].speedup).mean);
    std::fflush(stdout);
    bench.add_runs(4LL * sweep.configs);  // baseline + 3 algorithms
  }
  std::printf("\n(paper: global scales best; the local algorithm's "
              "convergence problem grows with the configuration)\n");

  return bench.finish();
}
