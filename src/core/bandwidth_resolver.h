// Bandwidth knowledge abstraction for the placement algorithms.
//
// Placement algorithms never see the ground-truth traces; they see what the
// monitoring subsystem knows (§2: bandwidth information is "a sparse
// matrix"). A resolver answers pair-bandwidth queries and reports misses;
// the planning drivers react to misses by issuing on-demand probes and
// re-planning, which realizes the paper's observation that branch-and-bound
// planning only needs a *subset* of the links measured (§2.1).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "monitor/bandwidth_cache.h"
#include "net/link_table.h"
#include "net/types.h"

namespace wadc::core {

using HostPair = std::pair<net::HostId, net::HostId>;  // normalized a < b

inline HostPair make_pair_key(net::HostId a, net::HostId b) {
  return a < b ? HostPair{a, b} : HostPair{b, a};
}

class BandwidthResolver {
 public:
  virtual ~BandwidthResolver() = default;

  // Bandwidth estimate for {a, b} in bytes/second, or nullopt if unknown.
  virtual std::optional<double> bandwidth(net::HostId a, net::HostId b) = 0;
};

// Resolver over ground truth — used by tests, oracle baselines and offline
// planning studies, never by the simulated algorithms.
class OracleResolver final : public BandwidthResolver {
 public:
  OracleResolver(const net::LinkTable& links, sim::SimTime at_time)
      : links_(links), time_(at_time) {}

  std::optional<double> bandwidth(net::HostId a, net::HostId b) override {
    queried_.insert(make_pair_key(a, b));
    return links_.bandwidth_at(a, b, time_);
  }

  const std::set<HostPair>& queried() const { return queried_; }

 private:
  const net::LinkTable& links_;
  sim::SimTime time_;
  std::set<HostPair> queried_;
};

// Resolver over one host's monitoring cache. Pairs with no usable sample
// come back as nullopt; the cost model collects them for the driver to
// probe.
//
// A sample is usable if it is within the cache's T_thres timeout, or — when
// `accept_after` >= 0 — if it was measured at or after that watermark.
// Planning drivers set the watermark to the start of the planning session:
// probing all the links a plan search touches can take longer than T_thres,
// and a one-shot plan should use every measurement gathered during its own
// session (§2.1 "uses information available at the beginning of
// computation") rather than rejecting its own early probes as expired.
//
// A resolver lives for one plan round: `now` is fixed and the cache does not
// change while the planner runs, so each pair's verdict is looked up once
// and memoized for the resolver's lifetime.
class CacheResolver final : public BandwidthResolver {
 public:
  CacheResolver(const monitor::BandwidthCache& cache, sim::SimTime now,
                sim::SimTime accept_after = -1)
      : cache_(cache),
        now_(now),
        accept_after_(accept_after),
        verdicts_(net::pair_count(cache.num_hosts()), kUnresolved) {}

  std::optional<double> bandwidth(net::HostId a, net::HostId b) override {
    double& v = verdicts_[net::pair_index(a, b, cache_.num_hosts())];
    if (v == kUnresolved) v = resolve(a, b);
    if (v == kNoSample) return std::nullopt;
    return v;
  }

 private:
  // Verdict markers; a usable bandwidth is always positive.
  static constexpr double kUnresolved = 0;
  static constexpr double kNoSample = -1;

  double resolve(net::HostId a, net::HostId b) const {
    auto s = cache_.lookup(a, b, now_);
    if (!s && accept_after_ >= 0) {
      const auto any = cache_.lookup_any_age(a, b);
      if (any && any->measured_at >= accept_after_) s = any;
    }
    return s ? s->bandwidth : kNoSample;
  }

  const monitor::BandwidthCache& cache_;
  sim::SimTime now_;
  sim::SimTime accept_after_;
  std::vector<double> verdicts_;  // indexed by pair_index
};

// Fixed-table resolver for unit tests.
class MapResolver final : public BandwidthResolver {
 public:
  void set(net::HostId a, net::HostId b, double bw) {
    table_[make_pair_key(a, b)] = bw;
  }

  std::optional<double> bandwidth(net::HostId a, net::HostId b) override {
    const auto it = table_.find(make_pair_key(a, b));
    if (it == table_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::map<HostPair, double> table_;
};

}  // namespace wadc::core
