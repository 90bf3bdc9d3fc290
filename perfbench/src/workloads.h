// Workload definitions and the one-query runner shared by the timed,
// traced and checking passes.
//
// A query is one complete combination: one run_experiment call in a sweep
// workload, one session of a fleet in the session workload. A round runs
// every configuration of the workload once, download-all (the §5 base case)
// first and then each relocating algorithm, so every round does exactly the
// same work for a given seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithm_kind.h"
#include "dataflow/run_stats.h"
#include "exp/experiment.h"
#include "obs/obs.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "trace/library.h"

namespace perfbench {

struct WorkloadDef {
  const char* name;
  int servers;
  int iterations;
  double period_seconds;
  std::vector<wadc::core::AlgorithmKind> algorithms;  // relocating ones
  int configs;          // configurations in the reference round
  int counted_configs;  // the first ones, run there with obs sinks attached
  int timed_configs;    // the first ones, whose relocating runs are timed

  // Session workload only (fleet == 0 for the sweeps).
  int fleet = 0;                 // open-loop Poisson sessions per config
  double rate_per_hour = 0;      // arrival rate
  int cap = 0;                   // FIFO `cap` admission limit
  std::uint64_t cache_bytes = 0; // per-host result-cache capacity, 0 = off

  bool sessions() const { return fleet > 0; }
  // Engines that run at once: one for a sweep run, `cap` for a fleet.
  int concurrent_engines() const { return sessions() ? cap : 1; }
};

// Null when `name` names no workload.
const WorkloadDef* find_workload(const std::string& name);
std::vector<std::string> workload_names();

// The configurations are the paper benches' own (seeds kBaseSeed + c: the
// trace→link assignment, image sizes, session arrivals and engine seeds).
// --seed picks where in the two-day traces the runs start: within half a
// second either side of noon.
inline constexpr std::uint64_t kBaseSeed = 1000;
double trace_offset_seconds(std::uint64_t seed);

// The library every workload draws its links from (the benches' library).
wadc::trace::TraceLibrary make_library();

wadc::exp::ExperimentSpec make_spec(const WorkloadDef& w,
                                    std::uint64_t config_seed,
                                    wadc::core::AlgorithmKind algorithm,
                                    double trace_offset);
wadc::session::SessionSpec make_sessions(const WorkloadDef& w);

// What one query (sweep) or one fleet of queries (sessions) produced.
struct RunOutput {
  wadc::dataflow::RunStats stats;        // sweep run
  wadc::session::SessionStats sessions;  // session fleet
  double wall_seconds = 0;
  std::uint64_t global_news = 0;  // global-allocator calls during the run
  std::uint64_t arena_allocs = 0; // sim::Arena allocations during the run
};

// Runs one cell of a round: configuration `config` under `algorithm`.
// Sweeps go through the benchmark's RunContext (one worker, epoch reuse,
// as exp::run_sweep does); fleets through exp::run_session_experiment.
RunOutput run_cell(const wadc::trace::TraceLibrary& library,
                   const WorkloadDef& w, std::uint64_t config_seed,
                   wadc::core::AlgorithmKind algorithm, double trace_offset,
                   wadc::exp::RunContext& ctx,
                   const wadc::obs::Obs& obs = {});

// Algorithms of one round in run order: download-all, then w.algorithms.
std::vector<wadc::core::AlgorithmKind> round_algorithms(const WorkloadDef& w);

}  // namespace perfbench
