// Extension: fault injection and failure recovery. Sweeps the transient
// crash rate and reports, per placement algorithm, how often runs still
// complete, how much completion time degrades, and what the recovery
// machinery (retries, out-of-cycle repair relocations) actually did.
//
// Faults here are always transient (every crash restarts, the client is
// protected), so completion is reachable in principle at every rate; the
// interesting output is the price paid for it.
#include <cstdio>
#include <vector>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;
  using core::AlgorithmKind;

  exp::BenchHarness bench(argc, argv, "ext_fault_recovery");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  const int configs = env_int("WADC_CONFIGS", 40, 1);
  const std::uint64_t base_seed = env_u64("WADC_SEED", 9000);
  const std::vector<AlgorithmKind> algorithms = {
      AlgorithmKind::kOneShot, AlgorithmKind::kGlobal, AlgorithmKind::kLocal};

  std::printf("=== Fault recovery: crash rate sweep, %d configurations per "
              "cell ===\n\n",
              configs);
  std::printf("# crashes/hr\talgorithm\tcompleted\tmean_completion_s\t"
              "mean_faults\tmean_retries\tmean_repairs\tmean_recovery_s\n");

  for (const double rate : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    for (const AlgorithmKind algorithm : algorithms) {
      int completed = 0;
      double sum_completion = 0, sum_faults = 0, sum_retries = 0;
      double sum_repairs = 0, sum_recovery = 0;
      for (int c = 0; c < configs; ++c) {
        exp::ExperimentSpec spec;
        spec.algorithm = algorithm;
        spec.num_servers = 5;
        spec.iterations = 30;
        spec.relocation_period_seconds = 300;
        spec.config_seed = base_seed + static_cast<std::uint64_t>(c);
        if (rate > 0) {
          spec.fault.random.crash_rate_per_hour = rate;
          spec.fault.random.mean_downtime_seconds = 180;
          spec.fault.random.blackout_rate_per_hour = rate / 2;
          spec.fault.random.mean_blackout_seconds = 90;
          spec.fault.random.horizon_seconds = 86400;
          spec.fault.random.protect_client = true;
        }
        const auto r = exp::run_experiment(library, spec);
        bench.add_runs(1);
        const auto& fs = r.stats.failure_summary;
        if (r.stats.completed) {
          ++completed;
          sum_completion += r.completion_seconds;
        }
        sum_faults += fs.faults_injected;
        sum_retries += static_cast<double>(fs.transfer_retries);
        sum_repairs += fs.repair_relocations;
        sum_recovery += fs.recovery_seconds_total;
      }
      const double n = static_cast<double>(configs);
      std::printf("%g\t%s\t%d/%d\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\n", rate,
                  core::algorithm_name(algorithm), completed, configs,
                  completed > 0 ? sum_completion / completed : 0.0,
                  sum_faults / n, sum_retries / n, sum_repairs / n,
                  sum_recovery / n);
      std::fflush(stdout);
    }
  }
  std::printf("\n(transient faults only: every cell should complete every "
              "run; the cost shows up as completion time and retries)\n");

  return bench.finish(1);
}
