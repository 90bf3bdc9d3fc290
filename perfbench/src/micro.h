// Per-layer timings: calls into each layer's public functions, made and
// timed from the benchmark, at the sizes a workload reaches. Each returns
// the median over several repetitions of the per-call wall time.
#pragma once

#include <cstdint>

#include "trace/library.h"
#include "workloads.h"

namespace perfbench {

struct MicroTimings {
  double event_ns = 0;            // sim::Simulation schedule + dispatch
  double transfer_ns = 0;         // net::Network transfer, start to finish
  double freshest_shared_us = 0;  // monitor::BandwidthCache::freshest_shared
  double critical_path_us = 0;    // core::CostModel::critical_path
  double route_ns = 0;            // dataflow::MessageRouter::route_to_operator
  double cache_find_ns = 0;       // cache::ResultCache::find
  double cache_insert_ns = 0;     // cache::ResultCache::insert
};

MicroTimings measure_layers(const wadc::trace::TraceLibrary& library,
                            const WorkloadDef& w, std::uint64_t config_seed);

}  // namespace perfbench
