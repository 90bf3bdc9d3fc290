#include "monitor/bandwidth_cache.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/assert.h"

namespace wadc::monitor {

BandwidthCache::BandwidthCache(int num_hosts, sim::SimTime ttl_seconds)
    : num_hosts_(num_hosts),
      ttl_(ttl_seconds),
      entries_(net::pair_count(num_hosts)) {
  WADC_ASSERT(ttl_seconds > 0, "non-positive cache TTL");
  order_.reserve(entries_.size());
}

std::size_t BandwidthCache::rank(sim::SimTime measured_at,
                                 std::uint32_t index) const {
  std::size_t i = 0;
  for (; i < order_.size(); ++i) {
    const std::uint32_t x = order_[i];
    const sim::SimTime t = entries_[x].measured_at;
    if (t != measured_at ? t < measured_at : x > index) break;
  }
  return i;
}

std::size_t BandwidthCache::position(std::uint32_t index) const {
  return static_cast<std::size_t>(
      std::find(order_.begin(), order_.end(), index) - order_.begin());
}

void BandwidthCache::record(net::HostId a, net::HostId b, double bandwidth,
                            sim::SimTime measured_at) {
  WADC_ASSERT(bandwidth > 0, "non-positive bandwidth measurement");
  const auto index =
      static_cast<std::uint32_t>(net::pair_index(a, b, num_hosts_));
  Sample& e = entries_[index];
  if (!(measured_at > e.measured_at)) return;  // kept only if newer
  // Ranked while the entry still holds its older sample, the new slot
  // comes at or before the entry's own slot.
  const auto first = order_.begin();
  const auto to = first + static_cast<std::ptrdiff_t>(rank(measured_at, index));
  if (e.measured_at >= 0) {
    const auto from = first + static_cast<std::ptrdiff_t>(position(index));
    std::rotate(to, from, from + 1);
  } else if (measured_at >= 0) {
    order_.insert(to, index);
  }
  e = Sample{bandwidth, measured_at};
  ++version_;
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

  // order_ is newest first, so the unexpired entries are a prefix of it:
  // stop at the first expired one or at the budget, whichever comes first.
  // Truncation drops the *oldest* entries; they can only re-enter after an
  // included entry expires, which already invalidates the memo.
  auto fresh = std::make_shared<std::vector<PairSample>>();
  sim::SimTime oldest_included = sim::kTimeInfinity;
  const std::size_t limit = std::min(max_entries, order_.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const Sample& e = entries_[order_[i]];
    if (now - e.measured_at > ttl_) break;
    const auto [a, b] = net::pair_hosts(order_[i], num_hosts_);
    fresh->push_back(PairSample{a, b, e});
  }
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

void BandwidthCache::clear(std::uint32_t index) {
  Sample& e = entries_[index];
  if (e.measured_at >= 0) {
    order_.erase(order_.begin() +
                 static_cast<std::ptrdiff_t>(position(index)));
  }
  e = Sample{};
}

void BandwidthCache::invalidate(net::HostId a, net::HostId b) {
  clear(static_cast<std::uint32_t>(net::pair_index(a, b, num_hosts_)));
  ++version_;
}

void BandwidthCache::invalidate_host(net::HostId h) {
  // Reset the row first, then compact order_ in one pass.
  for (net::HostId other = 0; other < num_hosts_; ++other) {
    if (other == h) continue;
    entries_[net::pair_index(h, other, num_hosts_)] = Sample{};
  }
  std::erase_if(order_,
                [&](std::uint32_t x) { return entries_[x].measured_at < 0; });
  ++version_;
}

std::size_t BandwidthCache::unexpired_count(sim::SimTime now) const {
  // Unexpired entries are the prefix of order_ (see freshest_shared).
  const auto fresh = std::partition_point(
      order_.begin(), order_.end(), [&](std::uint32_t x) {
        return now - entries_[x].measured_at <= ttl_;
      });
  return static_cast<std::size_t>(fresh - order_.begin());
}

}  // namespace wadc::monitor
