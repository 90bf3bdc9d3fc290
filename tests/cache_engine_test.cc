// Engine integration tests for the result cache (src/cache wired through
// dataflow/session/exp): cross-session reuse produces hits, cached results
// are correct (the engine's lineage invariants fire on any wrong image),
// cache runs are deterministic, pruned-demand runs compose with faults
// across every placement algorithm, and a crashed replica host is never
// served — its entries are invalidated and sessions fall back to
// recomputing.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "cache/cache_key.h"
#include "cache/fabric.h"
#include "core/algorithm_kind.h"
#include "core/cost_model.h"
#include "dataflow/engine.h"
#include "exp/experiment.h"
#include "exp/network_config.h"
#include "monitor/monitoring_system.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "trace/library.h"

namespace wadc::exp {
namespace {

trace::TraceLibrary& shared_library() {
  static trace::TraceLibrary lib(trace::TraceLibraryParams{}, 2026);
  return lib;
}

ExperimentSpec cached_spec(core::AlgorithmKind algorithm, std::uint64_t seed,
                           std::uint64_t capacity = 64ull << 20) {
  ExperimentSpec spec;
  spec.algorithm = algorithm;
  spec.num_servers = 4;
  spec.iterations = 10;
  spec.relocation_period_seconds = 300;
  spec.config_seed = seed;
  spec.cache.enabled = true;
  spec.cache.capacity_bytes = capacity;
  return spec;
}

TEST(CacheEngine, SingleSessionInsertsButNeverHits) {
  obs::MetricsRegistry metrics;
  ExperimentSpec spec = cached_spec(core::AlgorithmKind::kGlobal, 21);
  spec.obs.metrics = &metrics;
  const RunResult r = run_experiment(shared_library(), spec);
  EXPECT_TRUE(r.stats.completed);
  // Keys include the iteration, so a lone session never re-asks for a
  // result it already computed: all insertions, no hits.
  EXPECT_GT(metrics.counter("cache.insertions").value(), 0);
  EXPECT_EQ(metrics.counter("cache.hits").value(), 0);
  EXPECT_GT(metrics.counter("cache.misses").value(), 0);
}

TEST(CacheEngine, ConcurrentSessionsReuseEachOthersResults) {
  obs::MetricsRegistry metrics;
  ExperimentSpec spec = cached_spec(core::AlgorithmKind::kGlobal, 22);
  spec.obs.metrics = &metrics;
  const session::SessionStats stats = run_session_experiment(
      shared_library(), spec, session::SessionSpec::concurrent_clients(4));
  ASSERT_EQ(stats.completed_count(), 4);
  // All four sessions combine the same partitions, so whoever materializes
  // a sub-tree first serves everyone else. Every session still delivers
  // the full image sequence — the engine asserts each delivered image's
  // lineage, so a wrong cached result would abort the run, not just skew a
  // counter.
  EXPECT_GT(metrics.counter("cache.hits").value(), 0);
  EXPECT_GT(metrics.counter("cache.bytes_saved").value(), 0);
  for (const session::SessionRecord& r : stats.sessions()) {
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.images, spec.iterations);
  }
}

TEST(CacheEngine, StaggeredSessionsShipFewerBytesWithCache) {
  session::SessionSpec sessions;
  sessions.mode = session::ArrivalMode::kExplicit;
  for (int i = 0; i < 3; ++i) {
    session::ExplicitArrival a;
    a.arrival_seconds = 400.0 * i;  // later arrivals find a warm cache
    a.id = i;
    sessions.arrivals.push_back(a);
  }

  ExperimentSpec off = cached_spec(core::AlgorithmKind::kGlobal, 23);
  off.cache = cache::CacheConfig{};  // disabled
  const session::SessionStats cold =
      run_session_experiment(shared_library(), off, sessions);

  const ExperimentSpec on = cached_spec(core::AlgorithmKind::kGlobal, 23);
  const session::SessionStats warm =
      run_session_experiment(shared_library(), on, sessions);

  ASSERT_EQ(cold.completed_count(), 3);
  ASSERT_EQ(warm.completed_count(), 3);
  // Pruned sub-trees ship no leaf or intermediate images; only the cached
  // root result crosses the network. Aggregate delivered bytes must drop.
  EXPECT_LT(warm.network_bytes_delivered, cold.network_bytes_delivered);
}

TEST(CacheEngine, CacheRunsAreDeterministic) {
  const ExperimentSpec spec = cached_spec(core::AlgorithmKind::kGlobal, 24);
  const auto sessions = session::SessionSpec::concurrent_clients(3);
  obs::MetricsRegistry ma;
  obs::MetricsRegistry mb;
  ExperimentSpec sa = spec;
  sa.obs.metrics = &ma;
  ExperimentSpec sb = spec;
  sb.obs.metrics = &mb;
  const session::SessionStats a =
      run_session_experiment(shared_library(), sa, sessions);
  const session::SessionStats b =
      run_session_experiment(shared_library(), sb, sessions);
  ASSERT_EQ(a.sessions().size(), b.sessions().size());
  for (std::size_t i = 0; i < a.sessions().size(); ++i) {
    EXPECT_EQ(a.sessions()[i].end_seconds, b.sessions()[i].end_seconds);
    EXPECT_EQ(a.sessions()[i].images, b.sessions()[i].images);
  }
  EXPECT_EQ(ma.counter("cache.hits").value(),
            mb.counter("cache.hits").value());
  EXPECT_EQ(ma.counter("cache.evictions").value(),
            mb.counter("cache.evictions").value());
  EXPECT_EQ(ma.counter("cache.bytes_saved").value(),
            mb.counter("cache.bytes_saved").value());
}

TEST(CacheEngine, TinyCapacityEvictsAndStillCompletes) {
  obs::MetricsRegistry metrics;
  // ~2 mean images worth of space per host: constant eviction pressure.
  ExperimentSpec spec =
      cached_spec(core::AlgorithmKind::kGlobal, 25, /*capacity=*/256 << 10);
  spec.cache.policy = cache::EvictionPolicy::kCost;
  spec.obs.metrics = &metrics;
  const session::SessionStats stats = run_session_experiment(
      shared_library(), spec, session::SessionSpec::concurrent_clients(3));
  ASSERT_EQ(stats.completed_count(), 3);
  EXPECT_GT(metrics.counter("cache.evictions").value(), 0);
  for (const session::SessionRecord& r : stats.sessions()) {
    EXPECT_EQ(r.images, spec.iterations);
  }
}

TEST(CacheEngine, RecreateCostShipsOnlyRemoteInputs) {
  // download-all keeps every operator at the client, so on a left-deep tree
  // over servers 0..2 the root combines the co-located result of op(0, 1)
  // with server 2's remote image. The cost-eviction recreate cost must
  // price only that remote input, as core::CostModel prices a co-located
  // edge at zero. Monitoring is off, so every remote input ships at the
  // cost model's pessimistic bandwidth and the expected value is exact.
  constexpr int kServers = 3;
  constexpr int kIterations = 4;
  sim::Simulation sim;
  const net::LinkTable links =
      make_network_config(shared_library(), kServers + 1, 31);
  net::Network network(sim, links, net::NetworkParams{});
  monitor::MonitorParams mp;
  mp.passive_enabled = false;
  mp.piggyback_enabled = false;
  mp.probing_enabled = false;
  monitor::MonitoringSystem monitoring(network, mp);
  const core::CombinationTree tree =
      core::CombinationTree::make(core::TreeShape::kLeftDeep, kServers);
  workload::WorkloadParams wp;
  wp.iterations = kIterations;
  const workload::ImageWorkload workload(wp, kServers, 31);
  cache::CacheConfig config;
  config.enabled = true;
  config.capacity_bytes = 64ull << 20;
  config.policy = cache::EvictionPolicy::kCost;
  config.diffusion = false;  // keep the root entry as the engine priced it
  cache::CacheFabric fabric(config, kServers + 1, &monitoring, {});
  dataflow::EngineParams ep;
  ep.algorithm = core::AlgorithmKind::kDownloadAll;
  ep.cache_fabric = &fabric;
  dataflow::Engine engine(sim, network, monitoring, tree, workload, ep);
  ASSERT_TRUE(engine.run().completed);

  const double bw = core::CostModelParams{}.pessimistic_bandwidth;
  const cache::ResultCache& client = fabric.host_cache(0);
  for (int i = 0; i < kIterations; ++i) {
    const workload::ImageSpec& s0 = workload.image(0, i);
    const workload::ImageSpec& s1 = workload.image(1, i);
    const workload::ImageSpec& s2 = workload.image(2, i);
    const workload::ImageSpec inner = workload::compose(s0, s1);
    const workload::ImageSpec root = workload::compose(inner, s2);
    const auto entry = [&](std::vector<int> leaves,
                           const workload::ImageSpec& image) {
      return client.find(cache::CacheKey{
          cache::subtree_signature(std::move(leaves), image.lineage,
                                   "compose"),
          i});
    };
    const cache::ResultCache::Entry* inner_entry = entry({0, 1}, inner);
    const cache::ResultCache::Entry* root_entry = entry({0, 1, 2}, root);
    ASSERT_NE(inner_entry, nullptr);
    ASSERT_NE(root_entry, nullptr);
    // Both of op(0, 1)'s inputs are remote servers.
    EXPECT_DOUBLE_EQ(inner_entry->recreate_seconds,
                     workload.compose_seconds(inner) + s0.bytes / bw +
                         s1.bytes / bw);
    // The root's co-located input ships nothing.
    EXPECT_DOUBLE_EQ(root_entry->recreate_seconds,
                     workload.compose_seconds(root) + s2.bytes / bw);
  }
}

TEST(CacheEngine, CrashedReplicaHostIsInvalidatedAndRecomputed) {
  obs::MetricsRegistry metrics;
  ExperimentSpec spec = cached_spec(core::AlgorithmKind::kGlobal, 26);
  spec.obs.metrics = &metrics;
  // Crash every server host transiently, staggered mid-run: every replica
  // a host held is dropped the moment it dies, so no later lookup can be
  // served stale bytes from it. Replicas live at operator hosts (placement-
  // dependent) plus the client, so crashing all servers guarantees at least
  // one populated cache is invalidated. Sessions arriving after a crash
  // recompute what was lost — the run must still complete with full,
  // correct results (the engine's lineage asserts police correctness).
  for (int s = 0; s < spec.num_servers; ++s) {
    fault::HostCrash crash;
    crash.host = 1 + s;
    crash.at = 600 + 150.0 * s;
    crash.restart_at = crash.at + 400;
    spec.fault.crashes.push_back(crash);
  }

  session::SessionSpec sessions;
  sessions.mode = session::ArrivalMode::kExplicit;
  for (int i = 0; i < 3; ++i) {
    session::ExplicitArrival a;
    a.arrival_seconds = 500.0 * i;  // spans the crash window
    a.id = i;
    sessions.arrivals.push_back(a);
  }
  const session::SessionStats stats =
      run_session_experiment(shared_library(), spec, sessions);
  ASSERT_EQ(stats.completed_count(), 3);
  for (const session::SessionRecord& r : stats.sessions()) {
    EXPECT_EQ(r.images, spec.iterations);
  }
  EXPECT_GT(metrics.counter("cache.invalidated_replicas").value(), 0);
}

// Every placement algorithm must compose with the cache's pruned-demand
// protocol under transient faults — the prune path touches the demand wave
// the §2.2 barrier rides on, so this matrix is the regression net for the
// change-over/prune interaction.
using CacheFaultParam = std::tuple<core::AlgorithmKind, std::uint64_t>;

class CacheFaultMatrixTest
    : public ::testing::TestWithParam<CacheFaultParam> {};

TEST_P(CacheFaultMatrixTest, CompletesUnderFaultsWithCache) {
  const auto [algorithm, seed] = GetParam();
  ExperimentSpec spec = cached_spec(algorithm, 7000 + seed);
  spec.fault.random.crash_rate_per_hour = 1.5;
  spec.fault.random.mean_downtime_seconds = 200;
  spec.fault.random.horizon_seconds = 86400;
  spec.fault.random.protect_client = true;
  spec.fault.drop_probability = 0.001;
  const session::SessionStats a = run_session_experiment(
      shared_library(), spec, session::SessionSpec::concurrent_clients(2));
  ASSERT_EQ(a.completed_count(), 2);
  for (const session::SessionRecord& r : a.sessions()) {
    EXPECT_EQ(r.images, spec.iterations);
  }
  // And deterministically so.
  const session::SessionStats b = run_session_experiment(
      shared_library(), spec, session::SessionSpec::concurrent_clients(2));
  ASSERT_EQ(b.sessions().size(), a.sessions().size());
  for (std::size_t i = 0; i < a.sessions().size(); ++i) {
    EXPECT_EQ(a.sessions()[i].end_seconds, b.sessions()[i].end_seconds);
  }
}

std::string cache_fault_name(
    const ::testing::TestParamInfo<CacheFaultParam>& info) {
  const auto [algorithm, seed] = info.param;
  std::string name = std::string(core::algorithm_name(algorithm)) + "_seed" +
                     std::to_string(seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    SeedMatrix, CacheFaultMatrixTest,
    ::testing::Combine(::testing::Values(core::AlgorithmKind::kOneShot,
                                         core::AlgorithmKind::kGlobal,
                                         core::AlgorithmKind::kLocal,
                                         core::AlgorithmKind::kGlobalOrder),
                       ::testing::Values<std::uint64_t>(1, 2, 3)),
    cache_fault_name);

}  // namespace
}  // namespace wadc::exp
