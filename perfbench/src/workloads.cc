#include "workloads.h"

#include <chrono>

#include "common/rng.h"
#include "sim/arena.h"

namespace perfbench {

using wadc::core::AlgorithmKind;

namespace {

const std::vector<WorkloadDef>& all_workloads() {
  static const std::vector<WorkloadDef> defs = [] {
    std::vector<WorkloadDef> d;
    // §4 main experiment (Figure 6): 8 servers, complete binary tree,
    // 180 iterations, relocation every 10 minutes.
    d.push_back({"paper-fig6", 8, 180, 600,
                 {AlgorithmKind::kOneShot, AlgorithmKind::kGlobal,
                  AlgorithmKind::kLocal},
                 100, 100, 100});
    // Figure 8's widest point: 32 servers, the same three algorithms.
    d.push_back({"wide-32", 32, 180, 600,
                 {AlgorithmKind::kOneShot, AlgorithmKind::kGlobal,
                  AlgorithmKind::kLocal},
                 34, 6, 12});
    // One shared network, open-loop Poisson sessions under FIFO cap
    // admission, result cache smaller than the working set.
    WorkloadDef s{"sessions-cache", 8, 180, 600, {AlgorithmKind::kGlobal}, 32,
                  32, 8};
    s.fleet = 12;
    s.rate_per_hour = 4;
    s.cap = 4;
    s.cache_bytes = 16ull << 20;
    d.push_back(s);
    return d;
  }();
  return defs;
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadDef& w : all_workloads()) names.emplace_back(w.name);
  return names;
}

double trace_offset_seconds(std::uint64_t seed) {
  wadc::Rng rng = wadc::Rng(seed).fork(0x9e7fbe4c);
  return rng.uniform(12 * 3600.0 - 0.5, 12 * 3600.0 + 0.5);
}

wadc::trace::TraceLibrary make_library() {
  return wadc::trace::TraceLibrary(wadc::trace::TraceLibraryParams{}, 2026);
}

wadc::exp::ExperimentSpec make_spec(const WorkloadDef& w,
                                    std::uint64_t config_seed,
                                    AlgorithmKind algorithm,
                                    double trace_offset) {
  wadc::exp::ExperimentSpec spec;
  spec.config.trace_start_offset_seconds = trace_offset;
  spec.algorithm = algorithm;
  spec.num_servers = w.servers;
  spec.iterations = w.iterations;
  spec.relocation_period_seconds = w.period_seconds;
  spec.config_seed = config_seed;
  if (w.cache_bytes > 0) {
    spec.cache.enabled = true;
    spec.cache.capacity_bytes = w.cache_bytes;
    spec.cache.policy = wadc::cache::EvictionPolicy::kLru;
  }
  return spec;
}

wadc::session::SessionSpec make_sessions(const WorkloadDef& w) {
  wadc::session::SessionSpec s =
      wadc::session::SessionSpec::poisson(w.fleet, w.rate_per_hour);
  s.admission.policy = wadc::session::AdmissionPolicy::kFixedCap;
  s.admission.max_concurrent = w.cap;
  return s;
}

RunOutput run_cell(const wadc::trace::TraceLibrary& library,
                   const WorkloadDef& w, std::uint64_t config_seed,
                   AlgorithmKind algorithm, double trace_offset,
                   wadc::exp::RunContext& ctx, const wadc::obs::Obs& obs) {
  wadc::exp::ExperimentSpec spec =
      make_spec(w, config_seed, algorithm, trace_offset);
  spec.obs = obs;
  RunOutput out;
  const std::uint64_t news_before = wadc::sim::global_alloc_stats().global_news;
  const std::uint64_t arena_before = ctx.arena_stats().allocs;
  const auto start = std::chrono::steady_clock::now();
  if (w.sessions()) {
    out.sessions =
        wadc::exp::run_session_experiment(library, spec, make_sessions(w));
  } else {
    out.stats = wadc::exp::run_experiment(library, spec, ctx).stats;
  }
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  out.global_news = wadc::sim::global_alloc_stats().global_news - news_before;
  out.arena_allocs = ctx.arena_stats().allocs - arena_before;
  return out;
}

std::vector<AlgorithmKind> round_algorithms(const WorkloadDef& w) {
  std::vector<AlgorithmKind> algs{AlgorithmKind::kDownloadAll};
  algs.insert(algs.end(), w.algorithms.begin(), w.algorithms.end());
  return algs;
}

}  // namespace perfbench
