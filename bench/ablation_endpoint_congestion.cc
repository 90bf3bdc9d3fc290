// Ablation: the single-network-interface assumption (§2, assumption (2)).
//
// "servers have a single network interface – that is, they can send or
// receive at most one message at a time". The paper notes this assumption
// can be relaxed; here we relax it by giving every host capacity for k
// simultaneous transfers (k independent interfaces — concurrent transfers
// do not share one interface's bandwidth) and measure how much of
// download-all's penalty, and of relocation's advantage, comes from
// endpoint congestion rather than from slow links.
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

  exp::BenchHarness bench(argc, argv, "ablation_endpoint_congestion");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::SweepSpec sweep;
  sweep.configs = env_int("WADC_CONFIGS", 100, 1);
  sweep.base_seed = env_u64("WADC_SEED", 1000);
  sweep.jobs = bench.jobs();

  std::printf("=== Ablation: per-host transfer capacity (endpoint "
              "congestion), %d configurations each ===\n\n",
              sweep.configs);
  std::printf("# capacity\tdownload-all_interarrival_s\tglobal_speedup\n");

  for (const int capacity : {1, 2, 4, 8}) {
    exp::SweepSpec s = sweep;
    s.experiment.network.host_capacity = capacity;
    const auto series =
        exp::run_sweep(library, s, {AlgorithmKind::kGlobal});
    const auto& global = series[0];
    const auto& baseline = series[1];  // appended download-all
    std::printf("%d\t%.2f\t%.3f\n", capacity,
                trace::mean_of(baseline.mean_interarrival),
                exp::stats_of(global.speedup).mean);
    std::fflush(stdout);
    bench.add_runs(2LL * sweep.configs);  // baseline + global
  }
  std::printf("\n(capacity 1 is the paper's model; higher capacity melts "
              "the client bottleneck that download-all suffers from, so "
              "relocation's advantage should shrink)\n");

  return bench.finish();
}
