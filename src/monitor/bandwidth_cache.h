// Per-host cache of measured pair bandwidths.
//
// Models the paper's monitoring state (§4): "each node maintains a bandwidth
// measurement cache; entries are timed out after T_thres seconds". The cache
// holds one sample per unordered host pair; a newer measurement always
// replaces an older one. This *is* the "sparse matrix" of bandwidth
// information that the placement algorithms consume (§2).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/types.h"
#include "sim/types.h"

namespace wadc::monitor {

struct Sample {
  double bandwidth = 0;           // bytes/second, application-level
  sim::SimTime measured_at = -1;  // simulation time of the measurement
};

struct PairSample {
  net::HostId a = net::kInvalidHost;
  net::HostId b = net::kInvalidHost;
  Sample sample;
};

// Immutable snapshot of a freshest() result, shared between the cache's
// memo and every in-flight message carrying it. Copying a Payload is a
// refcount bump, so attaching the piggyback list to a message is O(1)
// instead of a vector copy per send.
using Payload = std::shared_ptr<const std::vector<PairSample>>;

class BandwidthCache {
 public:
  // `ttl_seconds` is the paper's T_thres (40 s in the main experiments).
  BandwidthCache(int num_hosts, sim::SimTime ttl_seconds);

  int num_hosts() const { return num_hosts_; }
  sim::SimTime ttl() const { return ttl_; }

  // Records a measurement; kept only if newer than the current entry.
  void record(net::HostId a, net::HostId b, double bandwidth,
              sim::SimTime measured_at);

  // The cached sample for {a, b} if present and not older than T_thres.
  std::optional<Sample> lookup(net::HostId a, net::HostId b,
                               sim::SimTime now) const;

  // Like lookup but ignores expiry (stale data is better than nothing for
  // some consumers; the placement algorithms use lookup()).
  std::optional<Sample> lookup_any_age(net::HostId a, net::HostId b) const;

  // Up to `max_entries` freshest unexpired entries, newest first — the
  // payload source for piggybacking. The shared form returns the memoized
  // snapshot itself (never null); the vector form copies it.
  Payload freshest_shared(sim::SimTime now, std::size_t max_entries) const;
  std::vector<PairSample> freshest(sim::SimTime now,
                                   std::size_t max_entries) const;

  // Merges foreign samples (from piggyback payloads); newer timestamp wins.
  void merge(const std::vector<PairSample>& samples);

  // Drops the entry for {a, b} (back to "never measured").
  void invalidate(net::HostId a, net::HostId b);

  // Drops every entry for a pair involving `h` — measurements through a
  // crashed host describe a network that no longer exists.
  void invalidate_host(net::HostId h);

  // Entries holding a measurement (a running count, O(1)).
  std::size_t entry_count() const { return live_; }
  std::size_t unexpired_count(sim::SimTime now) const;

 private:
  int num_hosts_;
  sim::SimTime ttl_;
  std::vector<Sample> entries_;  // indexed by pair_index; measured_at<0 = none
  std::size_t live_ = 0;         // entries with measured_at >= 0

  // Resets one entry to "never measured", keeping live_ in step.
  void clear(Sample& e);

  // Bumped on every content change (record of a newer sample, invalidate);
  // lets freshest() memoize.
  std::uint64_t version_ = 0;

  // freshest() memo. The hottest call in a run is freshest() — once per
  // outgoing message for the piggyback payload — while the cache content
  // changes far less often, so the scan+sort result is cached. It stays
  // valid while (a) nothing was recorded or invalidated (version_), (b) the
  // request shape is unchanged, and (c) no included entry has crossed its
  // TTL horizon — entries excluded at compute time stay excluded, because
  // "never measured" only changes through record() and expiry is monotone
  // in now. Simulation time never goes backward within a version. Each
  // rebuild allocates a fresh vector: snapshots held by in-flight messages
  // keep the old one alive.
  mutable Payload memo_;
  mutable sim::SimTime memo_valid_until_ = -1;  // min(measured_at)+ttl
  mutable std::size_t memo_max_entries_ = 0;
  mutable std::uint64_t memo_version_ = ~std::uint64_t{0};
};

}  // namespace wadc::monitor
