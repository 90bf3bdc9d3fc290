#include "micro.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "cache/result_cache.h"
#include "common/rng.h"
#include "core/combination_tree.h"
#include "core/cost_model.h"
#include "dataflow/engine_messaging.h"
#include "exp/network_config.h"
#include "monitor/bandwidth_cache.h"
#include "monitor/monitoring_system.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "trace/stats.h"

// tests/: the EngineServices fake.
#include "mock_engine_services.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
constexpr int kRepeats = 5;

// Results of the timed calls land here, so no loop can be optimised away.
volatile double g_sink = 0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median over kRepeats of fn(), which returns seconds per call.
template <typename Fn>
double median_per_call(Fn fn) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) samples.push_back(fn());
  return wadc::trace::median_of(samples);
}

// Pending events a run keeps queued: every host and operator process of
// every engine running at once waits on one event.
int queue_depth(const WorkloadDef& w) {
  return (2 * w.servers + 1) * w.concurrent_engines();
}

// ---- sim: hold model at a fixed queue depth ------------------------------

struct Hold {
  wadc::sim::Simulation* sim;
  wadc::Rng rng;
  std::uint64_t remaining;
  void fire() {
    if (remaining == 0) return;
    --remaining;
    sim->schedule_in(rng.exponential(1.0), [this] { fire(); });
  }
};

double event_seconds(int depth) {
  constexpr std::uint64_t kEvents = 400000;
  wadc::sim::Simulation sim;
  std::vector<Hold> holds;
  holds.reserve(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    holds.push_back(
        {&sim, wadc::Rng(static_cast<std::uint64_t>(i) + 1), kEvents / depth});
  }
  const auto start = Clock::now();
  for (Hold& h : holds) h.fire();
  sim.run();
  return seconds_since(start) / static_cast<double>(sim.events_processed());
}

// ---- net: concurrent transfers over one configuration's links ------------

wadc::sim::Task<> transfer_loop(wadc::net::Network& net, wadc::Rng rng,
                                int count, int hosts) {
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<wadc::net::HostId>(rng.next_below(hosts));
    auto dst = static_cast<wadc::net::HostId>(rng.next_below(hosts - 1));
    if (dst >= src) ++dst;
    co_await net.transfer(src, dst, 128.0 * 1024);
  }
}

double transfer_seconds(const wadc::trace::TraceLibrary& library,
                        const WorkloadDef& w, std::uint64_t config_seed) {
  constexpr int kPerSender = 2000;
  const int hosts = w.servers + 1;
  const int senders = w.servers * w.concurrent_engines();
  wadc::sim::Simulation sim;
  const wadc::net::LinkTable links =
      wadc::exp::make_network_config(library, hosts, config_seed);
  wadc::net::Network net(sim, links);
  for (int s = 0; s < senders; ++s) {
    sim.spawn(transfer_loop(net, wadc::Rng(config_seed + s), kPerSender,
                            hosts));
  }
  const auto start = Clock::now();
  sim.run();
  return seconds_since(start) / static_cast<double>(net.transfers_completed());
}

// ---- monitor + core: a bandwidth cache holding every pair ----------------

void fill_cache(wadc::monitor::BandwidthCache& cache, wadc::Rng& rng,
                double now) {
  const int hosts = cache.num_hosts();
  for (int a = 0; a < hosts; ++a) {
    for (int b = a + 1; b < hosts; ++b) {
      cache.record(a, b, rng.uniform(2e3, 2e5), now - rng.uniform(0, 30));
    }
  }
}

double freshest_seconds(const WorkloadDef& w, std::uint64_t seed) {
  constexpr int kCalls = 4000;
  const wadc::monitor::MonitorParams mp;
  const std::size_t entries =
      mp.piggyback_budget_bytes / mp.piggyback_entry_bytes;
  const int hosts = w.servers + 1;
  wadc::monitor::BandwidthCache cache(hosts, mp.t_thres_seconds);
  wadc::Rng rng(seed);
  double now = 100;
  fill_cache(cache, rng, now);
  std::size_t sink = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    // Each passive sample bumps the cache version, as in a run, so the
    // call sees a fresh cache, not its memo.
    now += 0.01;
    const auto a = static_cast<wadc::net::HostId>(rng.next_below(hosts - 1));
    cache.record(a, a + 1, rng.uniform(2e3, 2e5), now);
    sink += cache.freshest_shared(now, entries)->size();
  }
  const double s = seconds_since(start) / kCalls;
  g_sink = static_cast<double>(sink);
  return s;
}

double critical_path_seconds(const WorkloadDef& w, std::uint64_t seed) {
  constexpr int kCalls = 2000;
  const auto tree = wadc::core::CombinationTree::make(
      wadc::core::TreeShape::kCompleteBinary, w.servers);
  const wadc::core::CostModel model(tree, wadc::core::CostModelParams{});
  wadc::monitor::BandwidthCache cache(tree.num_hosts(), 1e9);
  wadc::Rng rng(seed);
  fill_cache(cache, rng, 100);
  std::vector<wadc::core::Placement> placements;
  for (int i = 0; i < 16; ++i) {
    std::vector<wadc::net::HostId> loc;
    for (int op = 0; op < tree.num_operators(); ++op) {
      loc.push_back(static_cast<wadc::net::HostId>(
          rng.next_below(tree.num_hosts())));
    }
    placements.emplace_back(std::move(loc));
  }
  double sink = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    wadc::core::CacheResolver resolver(cache, 100);
    sink += model.critical_path(placements[i % placements.size()], resolver)
                .cost;
  }
  const double s = seconds_since(start) / kCalls;
  g_sink = static_cast<double>(sink);
  return s;
}

// ---- dataflow: routing through the tests' EngineServices fake -----------

wadc::sim::Task<> route_loop(wadc::sim::Simulation& sim,
                             wadc::dataflow::MessageRouter& router, int count,
                             int hosts, int operators, std::uint64_t* sink) {
  for (int i = 0; i < count; ++i) {
    *sink += static_cast<std::uint64_t>(co_await router.route_to_operator(
        i % hosts, i % operators, i, 128.0 * 1024, wadc::net::kDataPriority));
    // Every hop completes at once, so each call resumes this loop from
    // inside the callee. Yielding to the event loop now and then unwinds
    // the stack where the compiler emits no tail call for symmetric
    // transfer (as in sanitizer builds).
    if (i % 64 == 63) co_await sim.delay(0);
  }
}

double route_seconds(const WorkloadDef& w, std::uint64_t seed) {
  constexpr int kCalls = 100000;
  const auto tree = wadc::core::CombinationTree::make(
      wadc::core::TreeShape::kCompleteBinary, w.servers);
  wadc::Rng rng(seed);
  std::vector<wadc::net::HostId> loc;
  for (int op = 0; op < tree.num_operators(); ++op) {
    loc.push_back(
        static_cast<wadc::net::HostId>(rng.next_below(tree.num_hosts())));
  }
  wadc::sim::Simulation sim;
  // Hops complete at once; every operator is where the placement says.
  wadc::dataflow::testing::MockEngineServices services(sim, tree, {});
  services.set_current_plan(tree, wadc::core::Placement(loc));
  for (int op = 0; op < tree.num_operators(); ++op) {
    services.set_operator_location(op, loc[static_cast<std::size_t>(op)]);
  }
  // Placement routing, as global and one-shot route: no message is
  // forwarded, so the figure is the router's own cost.
  wadc::dataflow::MessageRouter router(
      services, /*uses_directory=*/false,
      [&services](int) -> const wadc::core::Placement& {
        return services.current_placement();
      });
  std::uint64_t sink = 0;
  sim.spawn(route_loop(sim, router, kCalls, tree.num_hosts(),
                       tree.num_operators(), &sink));
  const auto start = Clock::now();
  sim.run();
  const double s = seconds_since(start) / kCalls;
  g_sink = static_cast<double>(sink);
  return s;
}

// ---- cache: a full ResultCache at the workload's capacity ----------------

struct CacheTimes {
  double find = 0;
  double insert = 0;
};

CacheTimes cache_seconds(const WorkloadDef& w, std::uint64_t seed) {
  // The sweeps run cache-off; time the session workload's capacity there.
  const std::uint64_t capacity =
      w.cache_bytes > 0 ? w.cache_bytes : 16ull << 20;
  constexpr int kCalls = 20000;
  wadc::cache::ResultCache cache(capacity,
                                 wadc::cache::EvictionPolicy::kLru);
  wadc::Rng rng(seed);
  std::vector<wadc::cache::CacheKey> keys;
  std::uint64_t tick = 0;
  const auto image_of = [&rng](std::uint64_t sig) {
    wadc::workload::ImageSpec img;
    img.bytes = std::max(rng.normal(128.0 * 1024, 32.0 * 1024), 8.0 * 1024);
    img.lineage = sig;
    return img;
  };
  // Fill to capacity first, so timed inserts evict as they do in a run.
  while (cache.bytes_used() < 0.95 * cache.capacity_bytes()) {
    const wadc::cache::CacheKey key{rng.next_u64(),
                                    static_cast<std::int32_t>(tick % 180)};
    cache.insert(key, image_of(key.signature), 1.0, ++tick);
    keys.push_back(key);
  }
  std::vector<wadc::cache::CacheKey> fresh;
  for (int i = 0; i < kCalls; ++i) {
    fresh.push_back({rng.next_u64(), static_cast<std::int32_t>(i % 180)});
  }
  std::vector<wadc::workload::ImageSpec> images;
  for (const auto& key : fresh) images.push_back(image_of(key.signature));

  CacheTimes t;
  std::size_t hits = 0;
  auto start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    // Half the lookups ask for resident or recently evicted keys, half for
    // keys never inserted.
    const auto& key = (i % 2 == 0) ? keys[rng.next_below(keys.size())]
                                   : fresh[static_cast<std::size_t>(i)];
    hits += cache.find(key) != nullptr ? 1 : 0;
  }
  t.find = seconds_since(start) / kCalls;
  start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    cache.insert(fresh[static_cast<std::size_t>(i)],
                 images[static_cast<std::size_t>(i)], 1.0, ++tick);
  }
  t.insert = seconds_since(start) / kCalls;
  g_sink = static_cast<double>(hits);
  return t;
}

}  // namespace

MicroTimings measure_layers(const wadc::trace::TraceLibrary& library,
                            const WorkloadDef& w, std::uint64_t config_seed) {
  MicroTimings m;
  m.event_ns =
      1e9 * median_per_call([&] { return event_seconds(queue_depth(w)); });
  m.transfer_ns = 1e9 * median_per_call([&] {
                    return transfer_seconds(library, w, config_seed);
                  });
  m.freshest_shared_us =
      1e6 * median_per_call([&] { return freshest_seconds(w, config_seed); });
  m.critical_path_us = 1e6 * median_per_call([&] {
                         return critical_path_seconds(w, config_seed);
                       });
  m.route_ns =
      1e9 * median_per_call([&] { return route_seconds(w, config_seed); });
  std::vector<double> finds, inserts;
  for (int r = 0; r < kRepeats; ++r) {
    const CacheTimes t = cache_seconds(w, config_seed + r);
    finds.push_back(t.find);
    inserts.push_back(t.insert);
  }
  m.cache_find_ns = 1e9 * wadc::trace::median_of(finds);
  m.cache_insert_ns = 1e9 * wadc::trace::median_of(inserts);
  return m;
}

}  // namespace perfbench
