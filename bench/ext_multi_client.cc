// Extension: multi-client scaling. The paper runs one query at a time; the
// session runtime (src/session) runs N concurrent query sessions over one
// shared network, contending at the single-NIC endpoints and wide-area
// links. This bench sweeps the client count for each placement algorithm
// and reports mean/p95 session response time, Jain's fairness index over
// per-session throughput, and aggregate delivered throughput — the
// client-scaling figure of docs/EXPERIMENTS.md.
//
// Expectation: download-all degrades fastest (every session hammers the
// client's NIC with full-size partitions); the relocating algorithms keep
// combination traffic off the congested endpoint and should hold both
// response time and fairness longer.
#include <cstdio>
#include <vector>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "trace/library.h"
#include "trace/stats.h"

int main(int argc, char** argv) {
  using namespace wadc;
  using core::AlgorithmKind;

  exp::BenchHarness bench(argc, argv, "ext_multi_client");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  const int configs = env_int("WADC_CONFIGS", 20, 1);
  const std::uint64_t base_seed = env_u64("WADC_SEED", 1000);
  const std::vector<int> client_counts = {1, 2, 4, 8};
  const std::vector<AlgorithmKind> algorithms = {
      AlgorithmKind::kDownloadAll, AlgorithmKind::kOneShot,
      AlgorithmKind::kGlobal, AlgorithmKind::kLocal};

  std::printf("=== Extension: multi-client scaling, %d configurations per "
              "cell ===\n\n",
              configs);
  std::printf("# clients\talgorithm\tmean_response_s\tp95_response_s\t"
              "jain_fairness\tthroughput_per_s\n");

  // Every (clients, algorithm, configuration) cell is an independent
  // session run over its own shared stack; results land in index-keyed
  // slots, so output is byte-identical for any worker count.
  const int num_cells =
      static_cast<int>(client_counts.size() * algorithms.size());
  const int total = num_cells * configs;
  std::vector<session::SessionStats> outcomes(
      static_cast<std::size_t>(total));
  const int jobs = exp::resolve_jobs(bench.jobs());
  exp::parallel_for(total, jobs, [&](int idx) {
    const int cell = idx / configs;
    const int c = idx % configs;
    const int clients =
        client_counts[static_cast<std::size_t>(cell) / algorithms.size()];
    exp::ExperimentSpec spec;
    spec.algorithm =
        algorithms[static_cast<std::size_t>(cell) % algorithms.size()];
    spec.num_servers = 5;
    spec.iterations = 30;
    spec.relocation_period_seconds = 300;
    spec.config_seed = base_seed + static_cast<std::uint64_t>(c);
    outcomes[static_cast<std::size_t>(idx)] = exp::run_session_experiment(
        library, spec, session::SessionSpec::concurrent_clients(clients));
  });

  for (int cell = 0; cell < num_cells; ++cell) {
    const int clients =
        client_counts[static_cast<std::size_t>(cell) / algorithms.size()];
    const AlgorithmKind algorithm =
        algorithms[static_cast<std::size_t>(cell) % algorithms.size()];
    std::vector<double> mean_resp, p95_resp, jain, throughput;
    for (int c = 0; c < configs; ++c) {
      const session::SessionStats& st =
          outcomes[static_cast<std::size_t>(cell * configs + c)];
      mean_resp.push_back(st.mean_response_seconds());
      p95_resp.push_back(st.p95_response_seconds());
      jain.push_back(st.jain_fairness());
      throughput.push_back(st.aggregate_throughput());
    }
    bench.add_runs(static_cast<long long>(clients) * configs);
    std::printf("%d\t%s\t%.1f\t%.1f\t%.4f\t%.6f\n", clients,
                core::algorithm_name(algorithm), trace::mean_of(mean_resp),
                trace::mean_of(p95_resp), trace::mean_of(jain),
                trace::mean_of(throughput));
    std::fflush(stdout);
  }
  std::printf("\n(expectation: download-all's response time and fairness "
              "degrade fastest with\n client count — every session ships "
              "full partitions through the client NIC;\n the relocating "
              "algorithms shed that contention)\n");
  return bench.finish(jobs);
}
