// perfbench: the end-to-end and per-layer benchmark of wadc.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// --trace 0 measures the end-to-end metrics with every observability sink
// off; --trace 1 runs traced rounds beside untraced ones and reports the
// per-layer metrics. Either way the outputs are checked (checks.h) and the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md for the workloads and what each metric means.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "micro.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "trace/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wadc::core::AlgorithmKind;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 11;
// Timed runs a measurement takes at least, so that ten lie beyond p90.
constexpr std::size_t kMinTimedRuns = 100;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ---- command line --------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool self_test = false;
};

bool parse_number(const char* s, unsigned long long max,
                  unsigned long long& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0' && out <= max;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed" && parse_number(value, ~0ull, n)) {
      a.seed = n;
    } else if (flag == "--seconds" && parse_number(value, 3600, n) && n > 0) {
      a.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && parse_number(value, 1, n)) {
      a.trace = static_cast<int>(n);
    } else {
      return false;
    }
  }
  return a.self_test ||
         ((a.workload == "all" || find_workload(a.workload) != nullptr) &&
          a.seconds > 0 && a.trace >= 0);
}

// ---- set-up: trace library and input generation --------------------------

struct Cell {
  int config;
  AlgorithmKind algorithm;
  bool base() const { return algorithm == AlgorithmKind::kDownloadAll; }
};

struct Setup {
  std::unique_ptr<wadc::trace::TraceLibrary> library;
  std::uint64_t base_seed = kBaseSeed;  // configuration c: base_seed + c
  double trace_offset = 0;              // drawn from --seed
  std::vector<Cell> cells;      // one round, in run order
  std::vector<wadc::workload::ImageWorkload> draws;  // per configuration
  std::vector<double> nic_bounds;  // per cell; 0 = no bound (cache on)
  double library_seconds = 0;
  double seconds = 0;
};

// The timed set-up: the trace library and the workload draws.
Setup make_setup(const WorkloadDef& w, std::uint64_t seed) {
  const auto start = Clock::now();
  Setup s;
  s.library = std::make_unique<wadc::trace::TraceLibrary>(make_library());
  s.library_seconds = seconds_since(start);
  s.trace_offset = trace_offset_seconds(seed);
  const wadc::exp::ExperimentSpec proto =
      make_spec(w, s.base_seed, AlgorithmKind::kDownloadAll, s.trace_offset);
  wadc::workload::WorkloadParams wp = proto.workload;
  wp.iterations = w.iterations;
  for (int c = 0; c < w.configs; ++c) {
    s.draws.emplace_back(wp, w.servers, s.base_seed + c);
    for (const AlgorithmKind alg : round_algorithms(w)) {
      s.cells.push_back({c, alg});
    }
  }
  s.seconds = seconds_since(start);
  return s;
}

// The client-NIC bound of every cell, outside the timed set-up: it is the
// checker's work, not the program's.
void add_nic_bounds(Setup& s, const WorkloadDef& w) {
  const double startup =
      make_spec(w, s.base_seed, AlgorithmKind::kDownloadAll, s.trace_offset)
          .network.startup_seconds;
  double fastest = 0;
  for (const Cell& c : s.cells) {
    if (w.cache_bytes > 0) {
      s.nic_bounds.push_back(0.0);
      continue;
    }
    if (c.algorithm == AlgorithmKind::kDownloadAll) {  // first per config
      fastest = client_fastest_bandwidth(*s.library, s.base_seed + c.config,
                                         w.servers);
    }
    s.nic_bounds.push_back(client_nic_bound(
        s.draws[static_cast<std::size_t>(c.config)], fastest, c.base(),
        startup));
  }
}

// ---- rounds --------------------------------------------------------------

// Everything a round's outputs must reproduce exactly on the same inputs.
std::vector<double> digest(const WorkloadDef& w, const RunOutput& r) {
  std::vector<double> d;
  if (w.sessions()) {
    for (const auto& s : r.sessions.sessions()) {
      d.insert(d.end(), {s.arrival_seconds, s.admit_seconds, s.end_seconds,
                         double(s.images), double(s.relocations),
                         double(s.completed), double(s.shed)});
    }
    d.push_back(r.sessions.network_bytes_delivered);
    return d;
  }
  const auto& st = r.stats;
  d.insert(d.end(), {double(st.completed), st.completion_seconds,
                     double(st.relocations), double(st.barriers_initiated),
                     double(st.barriers_completed),
                     double(st.messages_forwarded), double(st.plan_rounds),
                     double(st.replans)});
  d.insert(d.end(), st.arrival_seconds.begin(), st.arrival_seconds.end());
  return d;
}

// One round's outputs: cells[ids[i]] produced outputs[i].
struct Round {
  std::vector<std::size_t> ids;
  std::vector<RunOutput> outputs;
};

// Which cells a round runs: every cell (the reference round), or the
// relocating cells of the first w.timed_configs configurations (the timed
// rounds).
enum class Cells { kAll, kTimed };

std::vector<std::size_t> cell_ids(const Setup& s, const WorkloadDef& w,
                                  Cells which) {
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    const Cell& c = s.cells[i];
    if (which == Cells::kAll ||
        (!c.base() && c.config < w.timed_configs)) {
      ids.push_back(i);
    }
  }
  return ids;
}

std::vector<double> round_digest(const WorkloadDef& w, const Round& r,
                                 const std::vector<std::size_t>& ids) {
  std::vector<double> d;
  for (const std::size_t id : ids) {
    const auto at = std::find(r.ids.begin(), r.ids.end(), id);
    if (at == r.ids.end()) continue;
    const std::vector<double> one =
        digest(w, r.outputs[static_cast<std::size_t>(at - r.ids.begin())]);
    d.insert(d.end(), one.begin(), one.end());
  }
  return d;
}

std::string cell_label(const WorkloadDef& w, const Cell& c) {
  return std::string(w.name) + " config " + std::to_string(c.config) + " " +
         wadc::core::algorithm_name(c.algorithm);
}

Round run_round(const Setup& s, const WorkloadDef& w,
                wadc::exp::RunContext& ctx,
                const std::vector<std::size_t>& ids) {
  Round r{ids, {}};
  r.outputs.reserve(ids.size());
  for (const std::size_t id : ids) {
    const Cell& c = s.cells[id];
    r.outputs.push_back(run_cell(*s.library, w, s.base_seed + c.config,
                                 c.algorithm, s.trace_offset, ctx));
  }
  return r;
}

// A round with a metrics registry and a decision log attached to the runs
// of the first `counted_configs` configurations (the others run with the
// sinks off). Sinks are private per run; with `merge`, the relocating
// runs' sinks are merged afterwards into `reloc` in run order. The program
// has no sweep runner for session fleets, so for them the benchmark times
// these steps itself, as the setup / engine_run / obs_merge phases of
// `prof` (the sweeps read those phases from exp::run_sweep).
struct TracedRound {
  Round round;
  std::vector<double> bytes;  // net.bytes_delivered per run; 0 if uncounted
  std::vector<SessionAccount> accounts;  // per fleet (session workload)
  wadc::obs::MetricsRegistry reloc;
  wadc::obs::DecisionLog reloc_decisions;
  double wall_seconds = 0;
};

double count_hit_records(const wadc::obs::DecisionLog& log) {
  double n = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& r = log.at(i);
    if (std::strcmp(r.category, "cache") == 0 &&
        std::strcmp(r.action, "hit") == 0) {
      ++n;
    }
  }
  return n;
}

SessionAccount account_of(const WorkloadDef& w, const RunOutput& r,
                          wadc::obs::MetricsRegistry& m,
                          const wadc::obs::DecisionLog& log,
                          const std::string& label) {
  SessionAccount a;
  a.label = label;
  a.sessions = w.fleet;
  a.arrivals = static_cast<int>(m.counter("session.arrivals").value());
  a.admitted = static_cast<int>(m.counter("session.admitted").value());
  a.completed = static_cast<int>(m.counter("session.completed").value());
  a.shed = static_cast<int>(m.counter("session.shed").value());
  a.hits = m.counter("cache.hits").value();
  a.misses = m.counter("cache.misses").value();
  for (int h = 0; h <= w.servers; ++h) {
    const std::string host = "cache.host" + std::to_string(h);
    a.lookups += m.counter(host + ".hits").value() +
                 m.counter(host + ".misses").value();
  }
  a.hit_records = count_hit_records(log);
  for (const auto& s : r.sessions.sessions()) a.images += s.images;
  a.iterations = w.iterations;
  return a;
}

std::unique_ptr<TracedRound> run_traced_round(
    const Setup& s, const WorkloadDef& w, wadc::exp::RunContext& ctx,
    const std::vector<std::size_t>& ids, int counted_configs, bool merge,
    wadc::obs::Profiler* prof) {
  auto t = std::make_unique<TracedRound>();
  t->round.ids = ids;
  const auto start = Clock::now();
  for (const std::size_t id : ids) {
    const Cell& c = s.cells[id];
    if (c.config >= counted_configs) {
      t->round.outputs.push_back(run_cell(*s.library, w,
                                          s.base_seed + c.config, c.algorithm,
                                          s.trace_offset, ctx));
      t->bytes.push_back(0);
      continue;
    }
    std::unique_ptr<wadc::obs::MetricsRegistry> metrics;
    std::unique_ptr<wadc::obs::DecisionLog> decisions;
    wadc::obs::Obs obs;
    {
      wadc::obs::Profiler::Scope scope(prof, "setup");
      metrics = std::make_unique<wadc::obs::MetricsRegistry>();
      decisions = std::make_unique<wadc::obs::DecisionLog>();
      obs.metrics = metrics.get();
      obs.decisions = decisions.get();
    }
    {
      wadc::obs::Profiler::Scope scope(prof, "engine_run");
      t->round.outputs.push_back(run_cell(*s.library, w,
                                          s.base_seed + c.config, c.algorithm,
                                          s.trace_offset, ctx, obs));
    }
    t->bytes.push_back(metrics->counter("net.bytes_delivered").value());
    if (w.sessions()) {
      t->accounts.push_back(account_of(w, t->round.outputs.back(), *metrics,
                                       *decisions, cell_label(w, c)));
    }
    if (merge && !c.base()) {
      wadc::obs::Profiler::Scope scope(prof, "obs_merge");
      t->reloc.merge_from(*metrics);
      t->reloc_decisions.merge_from(std::move(*decisions));
    }
  }
  t->wall_seconds = seconds_since(start);
  return t;
}

// The timed configurations through exp::run_sweep: every relocating
// algorithm and the download-all baseline, each configuration once.
std::vector<wadc::exp::AlgorithmSeries> sweep_timed(
    const Setup& s, const WorkloadDef& w, int jobs, const wadc::obs::Obs& obs,
    wadc::obs::Profiler* prof) {
  wadc::exp::SweepSpec sweep;
  sweep.configs = w.timed_configs;
  sweep.base_seed = s.base_seed;
  sweep.jobs = jobs;
  sweep.profiler = prof;
  sweep.experiment = make_spec(w, s.base_seed, AlgorithmKind::kDownloadAll,
                               s.trace_offset);
  sweep.experiment.obs = obs;
  return wadc::exp::run_sweep(*s.library, sweep, w.algorithms);
}

std::size_t sweep_cells(const WorkloadDef& w) {
  return static_cast<std::size_t>(w.timed_configs) *
         round_algorithms(w).size();
}

// A sweep's series must report, for every cell of the timed
// configurations, the reference round's completion, mean interarrival and
// relocations.
Problems check_sweep(const Setup& s, const WorkloadDef& w,
                     const Round& reference,
                     const std::vector<wadc::exp::AlgorithmSeries>& series,
                     const std::string& what) {
  std::vector<double> want, got;
  for (std::size_t i = 0; i < reference.ids.size(); ++i) {
    const Cell& c = s.cells[reference.ids[i]];
    if (c.config >= w.timed_configs) continue;
    const RunOutput& r = reference.outputs[i];
    // run_sweep returns the requested series, then the download-all
    // baseline.
    std::size_t k = series.size() - 1;
    for (std::size_t a = 0; a + 1 < series.size(); ++a) {
      if (series[a].algorithm == c.algorithm) k = a;
    }
    const auto cfg = static_cast<std::size_t>(c.config);
    want.insert(want.end(), {r.stats.completion_seconds,
                             r.stats.mean_interarrival_seconds(),
                             double(r.stats.relocations)});
    got.insert(got.end(), {series[k].completion_seconds[cfg],
                           series[k].mean_interarrival[cfg],
                           double(series[k].relocations[cfg])});
  }
  return check_same(want, got, what);
}

// Reruns the timed configurations' cells through the program's parallel
// runners with several workers: exp::run_sweep for the sweeps,
// exp::parallel_for over run_session_experiment for the fleets. Both must
// reproduce the reference round's outputs.
Problems check_workers(const Setup& s, const WorkloadDef& w,
                       const Round& all, int jobs) {
  const std::string what = std::string(w.name) + " with " +
                           std::to_string(jobs) + " workers";
  if (!w.sessions()) {
    return check_sweep(s, w, all, sweep_timed(s, w, jobs, {}, nullptr), what);
  }
  Round reference;
  for (std::size_t i = 0; i < all.ids.size(); ++i) {
    if (s.cells[all.ids[i]].config >= w.timed_configs) continue;
    reference.ids.push_back(all.ids[i]);
    reference.outputs.push_back(all.outputs[i]);
  }
  Round par{reference.ids, std::vector<RunOutput>(reference.ids.size())};
  wadc::exp::parallel_for(
      static_cast<int>(par.ids.size()), jobs, [&](int i) {
        const Cell& c = s.cells[par.ids[static_cast<std::size_t>(i)]];
        wadc::exp::RunContext unused;  // fleets build their own stack
        par.outputs[static_cast<std::size_t>(i)] =
            run_cell(*s.library, w, s.base_seed + c.config, c.algorithm,
                     s.trace_offset, unused);
      });
  return check_same(round_digest(w, reference, reference.ids),
                    round_digest(w, par, par.ids), what);
}

// Query-level checks on one round's outputs; counts the queries attempted
// and failed.
Problems check_round(const Setup& s, const WorkloadDef& w, const Round& r,
                     long long& attempted, long long& failed) {
  Problems p;
  for (std::size_t i = 0; i < r.ids.size(); ++i) {
    const Cell& c = s.cells[r.ids[i]];
    const RunOutput& out = r.outputs[i];
    const std::string label = cell_label(w, c);
    std::vector<QueryRecord> queries;
    if (w.sessions()) {
      attempted += w.fleet;
      for (const auto& rec : out.sessions.sessions()) {
        QueryRecord q;
        q.label = label + " session " + std::to_string(rec.id);
        q.completed = rec.completed;
        q.images = rec.images;
        q.completion_seconds = rec.response_seconds();
        queries.push_back(q);
      }
      const int missing = w.fleet - out.sessions.total_count();
      if (missing != 0) {
        p.push_back(label + ": " + std::to_string(missing) +
                    " sessions missing from the results");
        failed += std::max(missing, 0);
      }
    } else {
      attempted += 1;
      QueryRecord q;
      q.label = label;
      q.completed = out.stats.completed;
      q.images = static_cast<int>(out.stats.arrival_seconds.size());
      q.arrivals = out.stats.arrival_seconds;
      q.completion_seconds = out.stats.completion_seconds;
      q.nic_bound_seconds = s.nic_bounds[r.ids[i]];
      queries.push_back(q);
    }
    for (const QueryRecord& q : queries) {
      if (!q.completed) ++failed;
      const Problems qp = check_query(q, w.iterations);
      p.insert(p.end(), qp.begin(), qp.end());
    }
  }
  return p;
}

void append(Problems& to, const Problems& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// ---- reporting -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double quantile(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : wadc::trace::percentile_of(std::move(xs), p);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// The end-to-end metrics of one workload. Sim-time figures come from the
// reference round (every later round reproduces it exactly), bytes from
// its counted configurations, wall-clock figures from every run of the
// timed rounds.
std::vector<Metric> end_to_end(const Setup& s, const WorkloadDef& w,
                               const TracedRound& traced_reference,
                               const std::vector<double>& walls,
                               const std::vector<double>& round_rates,
                               double setup_s, double peak_rss_mb) {
  std::vector<double> wall_ms;
  for (const double x : walls) wall_ms.push_back(1e3 * x);

  const Round& reference = traced_reference.round;
  std::vector<double> interarrival, speedup, response;
  double base_completion = 0;
  for (std::size_t i = 0; i < reference.ids.size(); ++i) {
    const Cell& c = s.cells[reference.ids[i]];
    const RunOutput& r = reference.outputs[i];
    const double completion = w.sessions() ? r.sessions.makespan_seconds()
                                           : r.stats.completion_seconds;
    if (c.base()) {
      base_completion = completion;  // download-all runs first per config
      continue;
    }
    speedup.push_back(base_completion / completion);
    if (w.sessions()) {
      for (const auto& rec : r.sessions.sessions()) {
        if (!rec.completed) continue;
        // Sessions record no per-image times: the mean time per image
        // from admission to the last image stands in for interarrival.
        interarrival.push_back((rec.end_seconds - rec.admit_seconds) /
                               std::max(rec.images, 1));
        response.push_back(rec.response_seconds());
      }
    } else if (r.stats.completed) {
      interarrival.push_back(r.stats.mean_interarrival_seconds());
      response.push_back(r.stats.completion_seconds);
    }
  }

  double bytes = 0;
  long long completed = 0;
  for (std::size_t i = 0; i < reference.ids.size(); ++i) {
    const Cell& c = s.cells[reference.ids[i]];
    if (c.base() || c.config >= w.counted_configs) continue;
    const RunOutput& r = reference.outputs[i];
    bytes += traced_reference.bytes[i];
    if (w.sessions()) {
      completed += r.sessions.completed_count();
    } else {
      completed += r.stats.completed ? 1 : 0;
    }
  }
  return {
      {"runs_per_s", quantile(round_rates, 50), "1/s"},
      {"run_wall_ms_p50", quantile(wall_ms, 50), "ms"},
      {"run_wall_ms_p90", quantile(wall_ms, 90), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"interarrival_s_p50", quantile(interarrival, 50), "s"},
      {"speedup_p50", quantile(speedup, 50), "x"},
      {"response_s_p50", quantile(response, 50), "s"},
      {"response_s_p90", quantile(response, 90), "s"},
      {"net_mb_per_query", bytes / 1e6 / std::max(completed, 1LL), "MB"},
  };
}

double histogram_sum(wadc::obs::MetricsRegistry& m, const char* name) {
  // An existing histogram is returned as is; the bounds only matter when
  // the run never created it (then the sum is 0).
  return m.histogram(name, {1.0}).sum();
}

// The program's sweep profiler exports its counters only as JSON.
double profiler_counter(const wadc::obs::Profiler& prof,
                        const std::string& name) {
  std::ostringstream out;
  prof.write_json(out);
  const std::string text = out.str();
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = text.find(key, text.find("\"counters\""));
  return at == std::string::npos
             ? 0.0
             : std::strtod(text.c_str() + at + key.size(), nullptr);
}

// What one traced round recorded: the merged sinks of its relocating runs
// (of every run, download-all included, for the sweeps), and the figures
// that do not come from the sinks.
struct Layers {
  wadc::obs::MetricsRegistry* metrics;
  const wadc::obs::DecisionLog* decisions;
  double queries;                // queries the sinks cover
  double arena_allocs_per_run;
  double global_news_per_run;
  std::vector<double> queue_s;   // admission queueing per session
};

std::vector<double> layer_counts(wadc::obs::MetricsRegistry& m,
                                 const wadc::obs::DecisionLog& log) {
  std::vector<double> d;
  for (const char* name :
       {"net.transfers_completed", "net.bytes_delivered",
        "monitor.piggyback_samples_delivered", "monitor.probes_issued",
        "monitor.cache_hits", "monitor.cache_misses", "monitor.cache_stale",
        "engine.replans", "engine.relocations", "cache.hits", "cache.misses",
        "cache.evictions", "session.completed"}) {
    d.push_back(m.counter(name).value());
  }
  d.push_back(histogram_sum(m, "net.queue_wait_seconds"));
  d.push_back(histogram_sum(m, "engine.barrier_round_seconds"));
  d.push_back(static_cast<double>(log.size()));
  return d;
}

std::vector<Metric> per_layer(const Layers& l, const MicroTimings& micro,
                              const wadc::obs::Profiler& prof,
                              double phase_cells, double library_ms,
                              double slowdown) {
  auto& m = *l.metrics;
  const auto per_query = [&](double v) { return v / l.queries; };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  double candidates = 0;
  for (std::size_t i = 0; i < l.decisions->size(); ++i) {
    const auto& r = l.decisions->at(i);
    if (std::strcmp(r.category, "plan") != 0) continue;
    for (const auto& arg : r.args) {
      if (arg.key == "candidates") candidates += double(arg.int_value);
    }
  }
  const double hits = m.counter("monitor.cache_hits").value();
  const double lookups = hits + m.counter("monitor.cache_misses").value() +
                         m.counter("monitor.cache_stale").value();
  const double transfers = m.counter("net.transfers_completed").value();
  const double probes = m.counter("monitor.probes_issued").value();
  const double cache_hits = m.counter("cache.hits").value();
  const double cache_lookups = cache_hits + m.counter("cache.misses").value();
  const double phases = prof.phase_seconds("setup") +
                        prof.phase_seconds("engine_run") +
                        prof.phase_seconds("obs_merge") +
                        prof.phase_seconds("result_collect");

  return {
      {"trace.library_build_ms", library_ms, "ms"},
      {"sim.event_ns", micro.event_ns, "ns"},
      {"sim.arena_allocs_per_run", l.arena_allocs_per_run, "count"},
      {"sim.global_news_per_run", l.global_news_per_run, "count"},
      {"net.transfer_ns", micro.transfer_ns, "ns"},
      {"net.transfers_per_query", per_query(transfers), "count"},
      {"net.queue_wait_s_per_query",
       per_query(histogram_sum(m, "net.queue_wait_seconds")), "s"},
      {"monitor.freshest_shared_us", micro.freshest_shared_us, "us"},
      {"monitor.piggybacks_per_query",
       per_query(m.counter("monitor.piggyback_samples_delivered").value()),
       "count"},
      {"monitor.probes_per_query", per_query(probes), "count"},
      {"monitor.estimate_hit_ratio", ratio(hits, lookups), "ratio"},
      {"core.critical_path_us", micro.critical_path_us, "us"},
      {"core.bnb_candidates_per_query", per_query(candidates), "count"},
      {"core.plan_rounds_per_query",
       per_query(m.counter("engine.replans").value()), "count"},
      {"dataflow.route_ns", micro.route_ns, "ns"},
      {"dataflow.messages_per_query", per_query(transfers - probes), "count"},
      {"dataflow.relocations_per_query",
       per_query(m.counter("engine.relocations").value()), "count"},
      {"dataflow.barrier_s_per_query",
       per_query(histogram_sum(m, "engine.barrier_round_seconds")), "s"},
      {"cache.hit_ratio", ratio(cache_hits, cache_lookups), "ratio"},
      {"cache.evictions_per_query",
       per_query(m.counter("cache.evictions").value()), "count"},
      {"cache.find_ns", micro.cache_find_ns, "ns"},
      {"cache.insert_ns", micro.cache_insert_ns, "ns"},
      {"session.queue_s_p50", quantile(l.queue_s, 50), "s"},
      {"exp.engine_run_share", ratio(prof.phase_seconds("engine_run"), phases),
       "ratio"},
      {"exp.run_setup_ms", 1e3 * prof.phase_seconds("setup") / phase_cells,
       "ms"},
      {"exp.obs_merge_ms", 1e3 * prof.phase_seconds("obs_merge") / phase_cells,
       "ms"},
      {"obs.traced_slowdown", slowdown, "x"},
  };
}

void print_environment(const WorkloadDef& w, std::uint64_t seed) {
  std::printf("# perfbench workload=%s seed=%llu hardware_concurrency=%u "
              "nproc=%d build_type=%s\n",
              w.name, static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency(), nproc(),
              PERFBENCH_BUILD_TYPE);
}

void report_problems(const Problems& p) {
  for (const std::string& s : p) std::printf("CHECK FAILED: %s\n", s.c_str());
}

// ---- the two modes -------------------------------------------------------

void run_untraced(const WorkloadDef& w, const Args& a) {
  std::vector<double> setup_times;
  Setup s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s = make_setup(w, a.seed);
    setup_times.push_back(s.seconds);
  }
  add_nic_bounds(s, w);
  wadc::exp::RunContext ctx;
  long long failed = 0, attempted = 0;

  // The reference round runs every cell once, untimed: it warms the run
  // context and gives the sim-time figures. The counted configurations run
  // with the metrics and decision sinks attached, for the byte counts and
  // the session accounting.
  const auto traced_reference = run_traced_round(
      s, w, ctx, cell_ids(s, w, Cells::kAll), w.counted_configs,
      /*merge=*/false, nullptr);
  const Round& reference = traced_reference->round;
  Problems problems = check_round(s, w, reference, attempted, failed);
  for (const SessionAccount& acc : traced_reference->accounts) {
    append(problems, check_sessions(acc));
  }

  // Timed rounds: the timed cells with every sink off. Each must
  // reproduce the reference outputs exactly, so the sinks change nothing.
  const std::vector<std::size_t> timed = cell_ids(s, w, Cells::kTimed);
  const std::vector<double> want = round_digest(w, reference, timed);
  std::vector<double> walls, round_rates;
  const auto start = Clock::now();
  int rounds = 0;
  while (rounds == 0 || seconds_since(start) < a.seconds ||
         walls.size() < kMinTimedRuns) {
    const Round round = run_round(s, w, ctx, timed);
    ++rounds;
    double round_wall = 0;
    for (const RunOutput& out : round.outputs) {
      walls.push_back(out.wall_seconds);
      round_wall += out.wall_seconds;
    }
    round_rates.push_back(static_cast<double>(round.outputs.size()) /
                          round_wall);
    const Problems p = check_round(s, w, round, attempted, failed);
    if (rounds == 1) append(problems, p);
    append(problems,
           check_same(want, round_digest(w, round, timed),
                      std::string(w.name) + " timed round " +
                          std::to_string(rounds)));
  }

  const double timed_s = seconds_since(start);
  // Before the worker check, whose extra workers keep their run contexts.
  const double peak_rss_mb = peak_rss_mib();

  const auto workers_start = Clock::now();
  const int jobs = std::min(nproc(), 4);
  if (jobs > 1) append(problems, check_workers(s, w, reference, jobs));
  const double workers_s = seconds_since(workers_start);

  print_environment(w, a.seed);
  std::printf("# %s: %d timed rounds of %zu runs, %lld queries attempted, "
              "%lld failed\n",
              w.name, rounds, timed.size(), attempted, failed);
  std::printf("# wall:");
  for (const AlgorithmKind alg : round_algorithms(w)) {
    double sum = 0;
    for (std::size_t i = 0; i < reference.ids.size(); ++i) {
      if (s.cells[reference.ids[i]].algorithm == alg) {
        sum += reference.outputs[i].wall_seconds;
      }
    }
    std::printf(" reference %s %.1f s,", wadc::core::algorithm_name(alg), sum);
  }
  std::printf(" timed %.1f s, %d-worker check %.1f s\n", timed_s, jobs,
              workers_s);
  report_problems(problems);
  print_result(problems.empty() && failed == 0, attempted, failed,
               end_to_end(s, w, *traced_reference, walls, round_rates,
                          wadc::trace::median_of(setup_times), peak_rss_mb));
}

// Untraced and traced passes over the timed configurations alternate, so
// both see the same machine; each must reproduce the reference outputs,
// and every traced pass the first one's per-layer counts. The sweeps go
// through exp::run_sweep with one worker, its profiler and its sinks; the
// session fleets through the benchmark's own rounds (see TracedRound).
struct TracedPasses {
  wadc::obs::Profiler prof;
  std::unique_ptr<wadc::obs::MetricsRegistry> metrics;  // first traced pass
  std::unique_ptr<wadc::obs::DecisionLog> decisions;
  std::unique_ptr<TracedRound> first_round;  // session fleets
  std::vector<double> plain_walls, traced_walls;
  double phase_cells = 0;  // runs timed by the profiler's phases
  Layers layers{};
};

void traced_sweeps(const Setup& s, const WorkloadDef& w, const Round& ref,
                   int seconds, TracedPasses& tp, Problems& problems,
                   long long& attempted, long long& failed) {
  long long ref_failed = 0;
  for (std::size_t i = 0; i < ref.ids.size(); ++i) {
    if (s.cells[ref.ids[i]].config < w.timed_configs &&
        !ref.outputs[i].stats.completed) {
      ++ref_failed;  // every pass reproduces the reference outputs
    }
  }
  const auto cells = static_cast<long long>(sweep_cells(w));
  const auto start = Clock::now();
  while (tp.traced_walls.empty() || seconds_since(start) < seconds) {
    const std::string n = std::to_string(tp.traced_walls.size() + 1);
    auto pass_start = Clock::now();
    const auto plain = sweep_timed(s, w, 1, {}, nullptr);
    tp.plain_walls.push_back(seconds_since(pass_start));
    auto metrics = std::make_unique<wadc::obs::MetricsRegistry>();
    auto decisions = std::make_unique<wadc::obs::DecisionLog>();
    wadc::obs::Obs obs;
    obs.metrics = metrics.get();
    obs.decisions = decisions.get();
    pass_start = Clock::now();
    const auto traced = sweep_timed(s, w, 1, obs, &tp.prof);
    tp.traced_walls.push_back(seconds_since(pass_start));
    tp.phase_cells += static_cast<double>(cells);

    attempted += 2 * cells;
    failed += 2 * ref_failed;
    append(problems, check_sweep(s, w, ref, plain,
                                 std::string(w.name) + " untraced sweep " + n));
    append(problems, check_sweep(s, w, ref, traced,
                                 std::string(w.name) + " traced sweep " + n));
    if (tp.metrics == nullptr) {
      tp.metrics = std::move(metrics);
      tp.decisions = std::move(decisions);
    } else {
      append(problems,
             check_same(layer_counts(*tp.metrics, *tp.decisions),
                        layer_counts(*metrics, *decisions),
                        std::string(w.name) + " per-layer counts, sweep " + n));
    }
  }
  tp.layers.metrics = tp.metrics.get();
  tp.layers.decisions = tp.decisions.get();
  tp.layers.queries = static_cast<double>(cells);
  tp.layers.arena_allocs_per_run =
      profiler_counter(tp.prof, "sim.alloc.arena_allocs") / tp.phase_cells;
  tp.layers.global_news_per_run =
      profiler_counter(tp.prof, "sim.alloc.global_news") / tp.phase_cells;
}

void traced_fleets(const Setup& s, const WorkloadDef& w, const Round& ref,
                   wadc::exp::RunContext& ctx, int seconds, TracedPasses& tp,
                   Problems& problems, long long& attempted,
                   long long& failed) {
  const std::vector<std::size_t> timed = cell_ids(s, w, Cells::kTimed);
  const std::vector<double> want = round_digest(w, ref, timed);
  const auto start = Clock::now();
  while (tp.traced_walls.empty() || seconds_since(start) < seconds) {
    const std::string n = std::to_string(tp.traced_walls.size() + 1);
    const auto plain_start = Clock::now();
    const Round plain = run_round(s, w, ctx, timed);
    tp.plain_walls.push_back(seconds_since(plain_start));
    auto traced = run_traced_round(s, w, ctx, timed, w.configs,
                                   /*merge=*/true, &tp.prof);
    tp.traced_walls.push_back(traced->wall_seconds);
    tp.phase_cells += static_cast<double>(timed.size());

    const Problems pp = check_round(s, w, plain, attempted, failed);
    const Problems tq = check_round(s, w, traced->round, attempted, failed);
    if (tp.first_round == nullptr) {
      append(problems, pp);
      append(problems, tq);
    }
    append(problems, check_same(want, round_digest(w, plain, timed),
                                std::string(w.name) + " untraced round " + n));
    append(problems,
           check_same(want, round_digest(w, traced->round, timed),
                      std::string(w.name) + " traced round " + n));
    if (tp.first_round == nullptr) {
      for (const SessionAccount& acc : traced->accounts) {
        append(problems, check_sessions(acc));
      }
      tp.first_round = std::move(traced);
    } else {
      append(problems,
             check_same(layer_counts(tp.first_round->reloc,
                                     tp.first_round->reloc_decisions),
                        layer_counts(traced->reloc, traced->reloc_decisions),
                        std::string(w.name) + " per-layer counts, round " + n));
    }
  }
  tp.layers.metrics = &tp.first_round->reloc;
  tp.layers.decisions = &tp.first_round->reloc_decisions;
  double arena_allocs = 0, global_news = 0;
  for (const RunOutput& out : tp.first_round->round.outputs) {
    arena_allocs += double(out.arena_allocs);
    global_news += double(out.global_news);
    for (const auto& rec : out.sessions.sessions()) {
      tp.layers.queue_s.push_back(rec.queue_seconds());
    }
  }
  const double runs = static_cast<double>(timed.size());
  tp.layers.queries = runs * w.fleet;
  tp.layers.arena_allocs_per_run = arena_allocs / runs;
  tp.layers.global_news_per_run = global_news / runs;
}

void run_traced(const WorkloadDef& w, const Args& a) {
  std::vector<double> library_times;
  Setup s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s = make_setup(w, a.seed);
    library_times.push_back(s.library_seconds);
  }
  add_nic_bounds(s, w);
  wadc::exp::RunContext ctx;
  long long failed = 0, attempted = 0;

  // Untraced reference round over every cell: warms the run context.
  const Round reference = run_round(s, w, ctx, cell_ids(s, w, Cells::kAll));
  Problems problems = check_round(s, w, reference, attempted, failed);

  TracedPasses tp;
  if (w.sessions()) {
    traced_fleets(s, w, reference, ctx, a.seconds, tp, problems, attempted,
                  failed);
  } else {
    traced_sweeps(s, w, reference, a.seconds, tp, problems, attempted,
                  failed);
  }
  const double slowdown = wadc::trace::median_of(tp.traced_walls) /
                          wadc::trace::median_of(tp.plain_walls);
  const MicroTimings micro = measure_layers(*s.library, w, s.base_seed);

  print_environment(w, a.seed);
  std::printf("# %s: %zu traced + %zu untraced passes, %lld queries "
              "attempted, %lld failed\n",
              w.name, tp.traced_walls.size(), tp.plain_walls.size(),
              attempted, failed);
  report_problems(problems);
  print_result(problems.empty() && failed == 0, attempted, failed,
               per_layer(tp.layers, micro, tp.prof, tp.phase_cells,
                         1e3 * wadc::trace::median_of(library_times),
                         slowdown));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::string names;
    for (const std::string& n : workload_names()) names += " " + n;
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n       perfbench --self-test\n"
                 "workloads:%s all\n",
                 names.c_str());
    return 2;
  }
  if (args.self_test) {
    const Problems unnoticed = self_test();
    for (const std::string& s : unnoticed) {
      std::printf("SELF-TEST FAILED: %s\n", s.c_str());
    }
    if (unnoticed.empty()) std::printf("self-test passed\n");
    return unnoticed.empty() ? 0 : 1;
  }
  const std::vector<std::string> names =
      args.workload == "all" ? workload_names()
                             : std::vector<std::string>{args.workload};
  for (const std::string& name : names) {
    const WorkloadDef& w = *find_workload(name);
    if (args.trace == 1) {
      run_traced(w, args);
    } else {
      run_untraced(w, args);
    }
  }
  return 0;
}
