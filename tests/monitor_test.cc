// Unit tests for the monitoring subsystem: caches, passive measurement,
// piggybacking and on-demand probes.
#include <gtest/gtest.h>

#include "monitor/bandwidth_cache.h"
#include "monitor/monitoring_system.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "trace/bandwidth_trace.h"

namespace wadc::monitor {
namespace {

TEST(BandwidthCache, RecordsAndLooksUp) {
  BandwidthCache cache(4, 40.0);
  cache.record(1, 2, 5000.0, 10.0);
  const auto s = cache.lookup(2, 1, 20.0);  // symmetric lookup
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->bandwidth, 5000.0);
  EXPECT_DOUBLE_EQ(s->measured_at, 10.0);
}

TEST(BandwidthCache, MissingEntryIsNullopt) {
  BandwidthCache cache(4, 40.0);
  EXPECT_FALSE(cache.lookup(0, 1, 0.0).has_value());
}

TEST(BandwidthCache, EntriesTimeOutAfterTThres) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 1000.0, 0.0);
  EXPECT_TRUE(cache.lookup(0, 1, 40.0).has_value());   // exactly at TTL
  EXPECT_FALSE(cache.lookup(0, 1, 40.01).has_value());  // expired
  // But lookup_any_age still sees it.
  EXPECT_TRUE(cache.lookup_any_age(0, 1).has_value());
}

TEST(BandwidthCache, NewerMeasurementWins) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 1000.0, 5.0);
  cache.record(0, 1, 2000.0, 10.0);
  cache.record(0, 1, 3000.0, 7.0);  // older: ignored
  EXPECT_DOUBLE_EQ(cache.lookup(0, 1, 12.0)->bandwidth, 2000.0);
}

TEST(BandwidthCache, FreshestReturnsNewestFirstUpToBudget) {
  BandwidthCache cache(5, 40.0);
  cache.record(0, 1, 1.0, 1.0);
  cache.record(0, 2, 2.0, 9.0);
  cache.record(1, 2, 3.0, 5.0);
  cache.record(3, 4, 4.0, 7.0);
  const auto top2 = cache.freshest(10.0, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_DOUBLE_EQ(top2[0].sample.measured_at, 9.0);
  EXPECT_DOUBLE_EQ(top2[1].sample.measured_at, 7.0);
}

TEST(BandwidthCache, FreshestSkipsExpired) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 1.0, 0.0);
  cache.record(0, 2, 2.0, 50.0);
  const auto fresh = cache.freshest(80.0, 10);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].a, 0);
  EXPECT_EQ(fresh[0].b, 2);
}

TEST(BandwidthCache, MergeTakesNewerEntries) {
  BandwidthCache mine(4, 40.0);
  mine.record(0, 1, 100.0, 5.0);
  mine.record(0, 2, 200.0, 8.0);
  std::vector<PairSample> incoming = {
      {0, 1, {999.0, 9.0}},  // newer: taken
      {0, 2, {888.0, 2.0}},  // older: ignored
      {1, 3, {777.0, 3.0}},  // new pair: taken
  };
  mine.merge(incoming);
  EXPECT_DOUBLE_EQ(mine.lookup(0, 1, 10.0)->bandwidth, 999.0);
  EXPECT_DOUBLE_EQ(mine.lookup(0, 2, 10.0)->bandwidth, 200.0);
  EXPECT_DOUBLE_EQ(mine.lookup(1, 3, 10.0)->bandwidth, 777.0);
  EXPECT_EQ(mine.entry_count(), 3u);
}

TEST(BandwidthCache, UnexpiredCount) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 1.0, 0.0);
  cache.record(0, 2, 2.0, 30.0);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.unexpired_count(50.0), 1u);
}

// ---- MonitoringSystem --------------------------------------------------------

struct MonitorFixture {
  explicit MonitorFixture(MonitorParams params = {})
      : tr(10.0, {10000.0}), links(4) {
    for (net::HostId a = 0; a < 4; ++a) {
      for (net::HostId b = a + 1; b < 4; ++b) links.set_link(a, b, &tr);
    }
    network = std::make_unique<net::Network>(sim, links, net::NetworkParams{});
    monitoring = std::make_unique<MonitoringSystem>(*network, params);
  }
  sim::Simulation sim;
  trace::BandwidthTrace tr;
  net::LinkTable links;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<MonitoringSystem> monitoring;
};

TEST(MonitoringSystem, PassiveMeasurementAtBothEndpoints) {
  MonitorFixture f;
  f.sim.spawn([](net::Network& n) -> sim::Task<> {
    co_await n.transfer(0, 1, 20000.0);  // >= S_thres
  }(*f.network));
  f.sim.run();
  EXPECT_EQ(f.monitoring->passive_samples(), 1u);
  const auto now = f.sim.now();
  EXPECT_TRUE(f.monitoring->cached_bandwidth(0, 0, 1).has_value());
  EXPECT_TRUE(f.monitoring->cached_bandwidth(1, 0, 1).has_value());
  EXPECT_FALSE(f.monitoring->cached_bandwidth(2, 0, 1).has_value());
  // Measured app-level bandwidth includes the startup cost.
  const double expected = 20000.0 / (0.05 + 2.0);
  EXPECT_NEAR(*f.monitoring->cached_bandwidth(0, 0, 1), expected, 1e-6);
  (void)now;
}

TEST(MonitoringSystem, SmallMessagesAreNotMeasured) {
  MonitorFixture f;
  f.sim.spawn([](net::Network& n) -> sim::Task<> {
    co_await n.transfer(0, 1, 1000.0);  // below S_thres
  }(*f.network));
  f.sim.run();
  EXPECT_EQ(f.monitoring->passive_samples(), 0u);
  EXPECT_FALSE(f.monitoring->cached_bandwidth(0, 0, 1).has_value());
}

TEST(MonitoringSystem, PassiveDisabledRecordsNothing) {
  MonitorParams params;
  params.passive_enabled = false;
  MonitorFixture f(params);
  f.sim.spawn([](net::Network& n) -> sim::Task<> {
    co_await n.transfer(0, 1, 64000.0);
  }(*f.network));
  f.sim.run();
  EXPECT_EQ(f.monitoring->passive_samples(), 0u);
}

TEST(MonitoringSystem, PiggybackPayloadRespectsBudget) {
  MonitorParams params;
  params.piggyback_budget_bytes = 48;
  params.piggyback_entry_bytes = 16;  // 3 entries max
  MonitorFixture f(params);
  auto& cache = f.monitoring->cache(0);
  cache.record(0, 1, 1.0, 1.0);
  cache.record(0, 2, 2.0, 2.0);
  cache.record(0, 3, 3.0, 3.0);
  cache.record(1, 2, 4.0, 4.0);
  const auto payload = f.monitoring->piggyback_payload(0);
  EXPECT_EQ(payload.size(), 3u);
  EXPECT_DOUBLE_EQ(f.monitoring->payload_bytes(payload), 48.0);
}

TEST(MonitoringSystem, PayloadDeliveryMergesIntoReceiver) {
  MonitorFixture f;
  f.monitoring->cache(0).record(0, 1, 123.0, 1.0);
  const auto payload = f.monitoring->piggyback_payload(0);
  ASSERT_EQ(payload.size(), 1u);
  f.monitoring->deliver_payload(3, payload);
  EXPECT_TRUE(f.monitoring->cached_bandwidth(3, 0, 1).has_value());
}

TEST(MonitoringSystem, PiggybackDisabledYieldsEmptyPayload) {
  MonitorParams params;
  params.piggyback_enabled = false;
  MonitorFixture f(params);
  f.monitoring->cache(0).record(0, 1, 123.0, 1.0);
  EXPECT_TRUE(f.monitoring->piggyback_payload(0).empty());
}

TEST(MonitoringSystem, FetchUsesCacheWithoutProbing) {
  MonitorFixture f;
  f.monitoring->cache(0).record(0, 1, 4242.0, 0.0);
  std::optional<double> got;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 0, 1);
  }(*f.monitoring, got));
  f.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, 4242.0);
  EXPECT_EQ(f.monitoring->probes_issued(), 0u);
}

TEST(MonitoringSystem, FetchProbesDirectPair) {
  MonitorFixture f;
  std::optional<double> got;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 0, 2);
  }(*f.monitoring, got));
  f.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(f.monitoring->probes_issued(), 1u);
  // Both probe endpoints now know the bandwidth.
  EXPECT_TRUE(f.monitoring->cached_bandwidth(2, 0, 2).has_value());
  // The probe took simulated time (two 16KB transfers).
  EXPECT_GT(f.sim.now(), 0.0);
}

TEST(MonitoringSystem, FetchDelegatesThirdPartyProbe) {
  MonitorFixture f;
  std::optional<double> got;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 2, 3);  // requester not an endpoint
  }(*f.monitoring, got));
  f.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(f.monitoring->probes_issued(), 1u);
  // The requester learned the third-party bandwidth via the reply payload.
  EXPECT_TRUE(f.monitoring->cache(0).lookup_any_age(2, 3).has_value());
}

TEST(MonitoringSystem, ProbingDisabledFallsBackToStale) {
  MonitorParams params;
  params.probing_enabled = false;
  MonitorFixture f(params);
  f.monitoring->cache(0).record(0, 1, 777.0, 0.0);
  std::optional<double> got;
  f.sim.spawn([](sim::Simulation& s, MonitoringSystem& m,
                 std::optional<double>& out) -> sim::Task<> {
    co_await s.delay(100.0);  // let the entry expire (TTL 40 s)
    out = co_await m.fetch_bandwidth(0, 0, 1);
  }(f.sim, *f.monitoring, got));
  f.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, 777.0);  // stale value, but better than nothing
  EXPECT_EQ(f.monitoring->probes_issued(), 0u);
}

TEST(MonitoringSystem, ProbingDisabledUnknownPairIsNullopt) {
  MonitorParams params;
  params.probing_enabled = false;
  MonitorFixture f(params);
  std::optional<double> got = 1.0;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 1, 2);
  }(*f.monitoring, got));
  f.sim.run();
  EXPECT_FALSE(got.has_value());
}

TEST(MonitoringSystem, ProbeLegsFeedPassiveMonitoringEverywhere) {
  // The two probe legs are ordinary >= S_thres transfers, so they also
  // refresh the passive samples (2 legs -> 2 passive samples).
  MonitorFixture f;
  f.sim.spawn([](MonitoringSystem& m) -> sim::Task<> {
    (void)co_await m.fetch_bandwidth(1, 1, 3);
  }(*f.monitoring));
  f.sim.run();
  EXPECT_EQ(f.monitoring->passive_samples(), 2u);
}

// ---- cache-expiry and invalidation edge cases -----------------------------

TEST(BandwidthCache, InvalidateDropsOnlyTheNamedPair) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 100.0, 1.0);
  cache.record(0, 2, 200.0, 1.0);
  cache.invalidate(1, 0);  // order-insensitive
  EXPECT_FALSE(cache.lookup_any_age(0, 1).has_value());
  EXPECT_TRUE(cache.lookup_any_age(0, 2).has_value());
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(BandwidthCache, InvalidateHostDropsEveryPairTouchingIt) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 100.0, 1.0);
  cache.record(1, 2, 200.0, 1.0);
  cache.record(1, 3, 300.0, 1.0);
  cache.record(2, 3, 400.0, 1.0);
  cache.invalidate_host(1);
  EXPECT_FALSE(cache.lookup_any_age(0, 1).has_value());
  EXPECT_FALSE(cache.lookup_any_age(1, 2).has_value());
  EXPECT_FALSE(cache.lookup_any_age(1, 3).has_value());
  EXPECT_TRUE(cache.lookup_any_age(2, 3).has_value());
  // An invalidated entry can be re-learned afterwards.
  cache.record(0, 1, 555.0, 2.0);
  EXPECT_DOUBLE_EQ(cache.lookup(0, 1, 3.0)->bandwidth, 555.0);
}

TEST(BandwidthCache, EntryCountMatchesAFullScan) {
  constexpr int kHosts = 6;
  BandwidthCache cache(kHosts, 40.0);
  const auto scan = [&cache] {
    std::size_t n = 0;
    for (net::HostId a = 0; a < kHosts; ++a) {
      for (net::HostId b = a + 1; b < kHosts; ++b) {
        if (cache.lookup_any_age(a, b)) ++n;
      }
    }
    return n;
  };
  cache.record(0, 1, 100.0, 1.0);
  cache.record(1, 2, 200.0, 1.0);
  cache.record(1, 0, 150.0, 2.0);  // replaces {0,1}: still one entry
  cache.record(2, 1, 150.0, 0.5);  // older: ignored
  EXPECT_EQ(cache.entry_count(), scan());
  cache.merge({{3, 4, {300.0, 3.0}},
               {0, 1, {100.0, 1.5}},  // older than the {0,1} entry
               {4, 5, {50.0, 4.0}}});
  EXPECT_EQ(cache.entry_count(), scan());
  cache.invalidate(3, 4);
  cache.invalidate(3, 4);  // already empty
  cache.invalidate(2, 5);  // never measured
  EXPECT_EQ(cache.entry_count(), scan());
  cache.invalidate_host(1);
  EXPECT_EQ(cache.entry_count(), scan());
  cache.record(1, 5, 70.0, 6.0);
  cache.invalidate_host(0);
  EXPECT_EQ(cache.entry_count(), scan());
  EXPECT_EQ(cache.entry_count(), 2u);  // {1,5} and {4,5}
}

TEST(BandwidthCache, FreshestAndUnexpiredAgreeAtExactTtlBoundary) {
  // Age == TTL is *fresh* everywhere (lookup, freshest, unexpired_count):
  // the three consumers must share one expiry rule.
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 100.0, 0.0);
  EXPECT_TRUE(cache.lookup(0, 1, 40.0).has_value());
  EXPECT_EQ(cache.freshest(40.0, 10).size(), 1u);
  EXPECT_EQ(cache.unexpired_count(40.0), 1u);
  EXPECT_FALSE(cache.lookup(0, 1, 40.0 + 1e-9).has_value());
  EXPECT_EQ(cache.freshest(40.0 + 1e-9, 10).size(), 0u);
  EXPECT_EQ(cache.unexpired_count(40.0 + 1e-9), 0u);
}

TEST(MonitoringSystem, ProbeRacingPassiveUpdateKeepsNewestSample) {
  // A probe for {0, 1} and a large passive-measured transfer on the same
  // pair contend for the same endpoints; whichever measurement lands last
  // must win in both caches (newer-timestamp-wins, no clobbering by the
  // slower path).
  MonitorFixture f;
  f.sim.spawn([](MonitoringSystem& m) -> sim::Task<> {
    (void)co_await m.fetch_bandwidth(0, 0, 1);
  }(*f.monitoring));
  f.sim.spawn([](net::Network& n) -> sim::Task<> {
    co_await n.transfer(0, 1, 64.0 * 1024);  // passive: >= S_thres
  }(*f.network));
  f.sim.run();
  EXPECT_GE(f.monitoring->passive_samples(), 3u);  // 2 probe legs + transfer
  const auto at0 = f.monitoring->cache(0).lookup_any_age(0, 1);
  const auto at1 = f.monitoring->cache(1).lookup_any_age(0, 1);
  ASSERT_TRUE(at0.has_value());
  ASSERT_TRUE(at1.has_value());
  // Both endpoints observed every measurement, so they agree on the newest.
  EXPECT_DOUBLE_EQ(at0->measured_at, at1->measured_at);
  EXPECT_DOUBLE_EQ(at0->bandwidth, at1->bandwidth);
}

TEST(MonitoringSystem, InvalidateHostScrubsEveryCache) {
  MonitorFixture f;
  f.monitoring->cache(0).record(0, 1, 100.0, 1.0);
  f.monitoring->cache(0).record(2, 3, 400.0, 1.0);
  f.monitoring->cache(2).record(1, 2, 200.0, 1.0);
  f.monitoring->cache(3).record(1, 3, 300.0, 1.0);
  f.monitoring->invalidate_host(1);
  EXPECT_FALSE(f.monitoring->cache(0).lookup_any_age(0, 1).has_value());
  EXPECT_FALSE(f.monitoring->cache(2).lookup_any_age(1, 2).has_value());
  EXPECT_FALSE(f.monitoring->cache(3).lookup_any_age(1, 3).has_value());
  EXPECT_TRUE(f.monitoring->cache(0).lookup_any_age(2, 3).has_value());
}

TEST(MonitoringSystem, ProbeAgainstDeadHostTimesOutInsteadOfHanging) {
  MonitorParams params;
  params.probe_timeout_seconds = 30.0;
  MonitorFixture f(params);
  f.network->set_host_alive(1, false);
  std::optional<double> got = 1.0;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 0, 1);
  }(*f.monitoring, got));
  f.sim.run();  // must terminate: the probe leg times out at t=30
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(f.monitoring->passive_samples(), 0u);
  EXPECT_GE(f.sim.now(), 30.0);
}

}  // namespace
}  // namespace wadc::monitor
