#include "monitor/bandwidth_cache.h"

#include <algorithm>

#include "common/assert.h"

namespace wadc::monitor {

BandwidthCache::BandwidthCache(int num_hosts, sim::SimTime ttl_seconds)
    : num_hosts_(num_hosts),
      ttl_(ttl_seconds),
      entries_(net::pair_count(num_hosts)) {
  WADC_ASSERT(ttl_seconds > 0, "non-positive cache TTL");
}

void BandwidthCache::record(net::HostId a, net::HostId b, double bandwidth,
                            sim::SimTime measured_at) {
  WADC_ASSERT(bandwidth > 0, "non-positive bandwidth measurement");
  Sample& e = entries_[net::pair_index(a, b, num_hosts_)];
  if (measured_at > e.measured_at) {
    if (e.measured_at < 0 && measured_at >= 0) ++live_;
    e.bandwidth = bandwidth;
    e.measured_at = measured_at;
    ++version_;
  }
}

std::optional<Sample> BandwidthCache::lookup(net::HostId a, net::HostId b,
                                             sim::SimTime now) const {
  const Sample& e = entries_[net::pair_index(a, b, num_hosts_)];
  if (e.measured_at < 0) return std::nullopt;
  if (now - e.measured_at > ttl_) return std::nullopt;  // timed out
  return e;
}

std::optional<Sample> BandwidthCache::lookup_any_age(net::HostId a,
                                                     net::HostId b) const {
  const Sample& e = entries_[net::pair_index(a, b, num_hosts_)];
  if (e.measured_at < 0) return std::nullopt;
  return e;
}

Payload BandwidthCache::freshest_shared(sim::SimTime now,
                                        std::size_t max_entries) const {
  // Memo hit: the cache content is unchanged, the request shape matches,
  // and no entry in the memo has crossed its TTL horizon yet (see the
  // header for why excluded entries cannot re-enter). This is the per-
  // message hot path — a payload is recomputed only after a record/merge
  // actually changed something or time passed an expiry boundary.
  if (memo_ && memo_version_ == version_ && memo_max_entries_ == max_entries &&
      now <= memo_valid_until_) {
    return memo_;
  }

  auto fresh = std::make_shared<std::vector<PairSample>>();
  sim::SimTime oldest_included = sim::kTimeInfinity;
  for (net::HostId a = 0; a < num_hosts_; ++a) {
    for (net::HostId b = a + 1; b < num_hosts_; ++b) {
      const Sample& e = entries_[net::pair_index(a, b, num_hosts_)];
      if (e.measured_at < 0 || now - e.measured_at > ttl_) continue;
      fresh->push_back(PairSample{a, b, e});
    }
  }
  std::sort(fresh->begin(), fresh->end(),
            [](const PairSample& x, const PairSample& y) {
              if (x.sample.measured_at != y.sample.measured_at) {
                return x.sample.measured_at > y.sample.measured_at;
              }
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  if (fresh->size() > max_entries) fresh->resize(max_entries);
  // Truncation drops the *oldest* entries; they can only re-enter after an
  // included entry expires, which already invalidates the memo.
  if (!fresh->empty()) {
    oldest_included = fresh->back().sample.measured_at + ttl_;
  }
  memo_ = std::move(fresh);
  memo_version_ = version_;
  memo_max_entries_ = max_entries;
  memo_valid_until_ = oldest_included;
  return memo_;
}

std::vector<PairSample> BandwidthCache::freshest(
    sim::SimTime now, std::size_t max_entries) const {
  return *freshest_shared(now, max_entries);
}

void BandwidthCache::merge(const std::vector<PairSample>& samples) {
  for (const PairSample& ps : samples) {
    record(ps.a, ps.b, ps.sample.bandwidth, ps.sample.measured_at);
  }
}

void BandwidthCache::clear(Sample& e) {
  if (e.measured_at >= 0) --live_;
  e = Sample{};
}

void BandwidthCache::invalidate(net::HostId a, net::HostId b) {
  clear(entries_[net::pair_index(a, b, num_hosts_)]);
  ++version_;
}

void BandwidthCache::invalidate_host(net::HostId h) {
  for (net::HostId other = 0; other < num_hosts_; ++other) {
    if (other == h) continue;
    clear(entries_[net::pair_index(h, other, num_hosts_)]);
  }
  ++version_;
}

std::size_t BandwidthCache::unexpired_count(sim::SimTime now) const {
  std::size_t n = 0;
  for (const Sample& e : entries_) {
    if (e.measured_at >= 0 && now - e.measured_at <= ttl_) ++n;
  }
  return n;
}

}  // namespace wadc::monitor
