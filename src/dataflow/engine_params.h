// Configuration types for the dataflow engine. Result types (RunStats,
// FailureSummary) live in run_stats.h.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "core/algorithm_kind.h"
#include "core/operator_directory.h"
#include "obs/obs.h"
#include "sim/types.h"

namespace wadc::cache {
class CacheFabric;
}  // namespace wadc::cache

namespace wadc::fault {
class FaultInjector;
}  // namespace wadc::fault

namespace wadc::dataflow {

struct EngineParams {
  core::AlgorithmKind algorithm = core::AlgorithmKind::kDownloadAll;

  // On-line adaptation period (§4: the global and local algorithms were run
  // once every 10 minutes in the main experiments; Figure 9 sweeps this).
  // For the local algorithm, the epoch length is this period divided by the
  // tree depth, so each operator reconsiders its placement once per period
  // while the staggered wavefront (§2.3) sweeps all levels within it.
  sim::SimTime relocation_period_seconds = 600;

  // Extra randomly-chosen candidate sites for the local rule (Figure 7's k).
  int local_extra_candidates = 0;

  // Wire sizes for protocol messages.
  double demand_bytes = 512;         // demand message body
  double control_bytes = 256;        // barrier reports / releases
  double operator_move_bytes = 1024; // light-move state transfer (§2)
  double directory_entry_bytes = 12; // per-operator (timestamp, location)

  // Planning driver: probe-and-replan rounds for unknown link bandwidths.
  int max_plan_probe_rounds = 4;

  // The client will not initiate a change-over with fewer than
  // (tree depth + this) iterations left, so barriers always complete.
  int barrier_guard_iterations = 4;

  // Timestamp-vector merge rule for the local algorithm (see
  // OperatorDirectory).
  core::MergeRule merge_rule = core::MergeRule::kEntryWise;

  // When an operator has moved but a sender still believes the old
  // location, the old host forwards the message (one extra hop). Only the
  // local algorithm can be stale; disabling forwarding makes staleness a
  // hard error (useful in tests).
  bool forwarding_enabled = true;

  // Verify protocol invariants while running (cheap; on by default).
  bool check_invariants = true;

  // Priority used for barrier/control traffic. The paper assigns barrier
  // messages a higher priority (§2.2); setting this to net::kDataPriority
  // ablates that design choice.
  int control_priority = 10;  // == net::kControlPriority

  // Order-adaptive replanning (kGlobalOrder) adopts a new combination tree
  // only when its estimated cost undercuts the current plan's by this
  // factor; switching the whole tree relocates many operators, so a little
  // hysteresis prevents thrash.
  double order_adoption_threshold = 0.9;

  // Ablation: plan from ground-truth link bandwidth instead of the
  // monitoring subsystem (an idealized upper bound on what better
  // monitoring could buy; never used by the paper's algorithms).
  bool oracle_bandwidth = false;

  // Seed for engine-local randomness (the local rule's k extra sites).
  std::uint64_t seed = 1;

  // Query-session id under the multi-client session runtime (wadc_session).
  // Tags every transfer this engine issues so shared-network traces and
  // metrics can be attributed per session. -1 (the default) leaves
  // transfers untagged — single-session output stays byte-identical.
  int session_id = -1;

  // Shared result-cache fabric (src/cache). When non-null the engine
  // consults it before scheduling a sub-tree: a hit fetches the
  // materialized result from the nearest replica and prunes the subtree
  // for that iteration; every composed result is registered back. The
  // session runtime hands every concurrent engine the same fabric, which
  // is where cross-session reuse comes from. When null (the default) the
  // engine behaves exactly as the cache-free original — same events, same
  // RNG draws, byte-identical output (the goldens pin this).
  cache::CacheFabric* cache_fabric = nullptr;

  // ---- failure recovery (active only when fault_injector is set) --------
  // When non-null, the engine runs fault-tolerant: transfers carry
  // timeouts, failed hops are retried with capped exponential backoff, and
  // operators stranded on dead hosts are repaired by out-of-cycle
  // relocation. When null (the default) the engine behaves exactly as the
  // fault-free original — same events, same RNG draws, same output.
  fault::FaultInjector* fault_injector = nullptr;

  // Base timeout for one transfer attempt; the engine adds the message's
  // worst-case transmission time at the cost model's pessimistic bandwidth,
  // so an in-flight transfer on a live slow link never times out spuriously.
  double transfer_timeout_seconds = 120;

  // Retries per hop after the first attempt. Exhausting them surfaces the
  // failure to the caller, which re-resolves the destination (the operator
  // may have been repaired elsewhere) and tries again.
  int max_transfer_retries = 5;

  // Backoff between retry attempts: min(base * 2^attempt, max), with
  // deterministic seeded jitter in [0.75, 1.25).
  double retry_backoff_base_seconds = 2;
  double retry_backoff_max_seconds = 60;

  // Hard wall for fault-tolerant runs: if the computation has not finished
  // by this simulated time, run() returns completed=false with a populated
  // failure_summary instead of spinning forever.
  double run_deadline_seconds = 14 * 86400.0;

  // Observability sink (tracing + metrics). Defaults to the null sink;
  // attach the same Obs to the Network and MonitoringSystem so one run's
  // events land in one trace (exp::run_experiment does this).
  obs::Obs obs;
};

// Returns an empty string if the parameters are usable, otherwise a
// human-readable description of the first problem found. The Engine asserts
// this at construction; wadc_run turns it into exit code 2.
inline std::string validate(const EngineParams& p) {
  const auto finite_positive = [](double v) {
    return std::isfinite(v) && v > 0;
  };
  if (!finite_positive(p.relocation_period_seconds)) {
    return "relocation_period_seconds must be finite and > 0, got " +
           std::to_string(p.relocation_period_seconds);
  }
  if (p.local_extra_candidates < 0) {
    return "local_extra_candidates must be >= 0, got " +
           std::to_string(p.local_extra_candidates);
  }
  if (!finite_positive(p.demand_bytes)) {
    return "demand_bytes must be finite and > 0, got " +
           std::to_string(p.demand_bytes);
  }
  if (!finite_positive(p.control_bytes)) {
    return "control_bytes must be finite and > 0, got " +
           std::to_string(p.control_bytes);
  }
  if (!finite_positive(p.operator_move_bytes)) {
    return "operator_move_bytes must be finite and > 0, got " +
           std::to_string(p.operator_move_bytes);
  }
  if (!(p.directory_entry_bytes >= 0) ||
      !std::isfinite(p.directory_entry_bytes)) {
    return "directory_entry_bytes must be finite and >= 0, got " +
           std::to_string(p.directory_entry_bytes);
  }
  if (p.max_plan_probe_rounds < 0) {
    return "max_plan_probe_rounds must be >= 0, got " +
           std::to_string(p.max_plan_probe_rounds);
  }
  if (p.barrier_guard_iterations < 0) {
    return "barrier_guard_iterations must be >= 0, got " +
           std::to_string(p.barrier_guard_iterations);
  }
  if (!std::isfinite(p.order_adoption_threshold) ||
      p.order_adoption_threshold < 0) {
    // 0 is legal: it means "never adopt a new order".
    return "order_adoption_threshold must be finite and >= 0, got " +
           std::to_string(p.order_adoption_threshold);
  }
  if (!finite_positive(p.transfer_timeout_seconds)) {
    return "transfer_timeout_seconds must be finite and > 0, got " +
           std::to_string(p.transfer_timeout_seconds);
  }
  if (p.max_transfer_retries < 0) {
    return "max_transfer_retries must be >= 0, got " +
           std::to_string(p.max_transfer_retries);
  }
  if (!finite_positive(p.retry_backoff_base_seconds)) {
    return "retry_backoff_base_seconds must be finite and > 0, got " +
           std::to_string(p.retry_backoff_base_seconds);
  }
  if (!std::isfinite(p.retry_backoff_max_seconds) ||
      p.retry_backoff_max_seconds < p.retry_backoff_base_seconds) {
    return "retry_backoff_max_seconds must be finite and >= the base, got " +
           std::to_string(p.retry_backoff_max_seconds);
  }
  if (!finite_positive(p.run_deadline_seconds)) {
    return "run_deadline_seconds must be finite and > 0, got " +
           std::to_string(p.run_deadline_seconds);
  }
  return {};
}

}  // namespace wadc::dataflow
