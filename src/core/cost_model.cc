#include "core/cost_model.h"

#include <algorithm>

#include "common/assert.h"

namespace wadc::core {

CostModel::CostModel(const CombinationTree& tree,
                     const CostModelParams& params)
    : tree_(tree), params_(params) {
  WADC_ASSERT(params_.partition_bytes > 0, "non-positive partition size");
  WADC_ASSERT(params_.pessimistic_bandwidth > 0,
              "non-positive pessimistic bandwidth");
  WADC_ASSERT(params_.disk_bytes_per_second > 0, "non-positive disk rate");
}

double CostModel::compute_cost() const {
  return params_.compute_seconds_per_byte * params_.partition_bytes;
}

double CostModel::disk_cost() const {
  return params_.partition_bytes / params_.disk_bytes_per_second;
}

double CostModel::edge_cost(net::HostId from, net::HostId to,
                            BandwidthResolver& r,
                            std::set<HostPair>* unknown) const {
  if (from == to) return 0;
  const auto bw = r.bandwidth(from, to);
  if (!bw) {
    if (unknown != nullptr) unknown->insert(make_pair_key(from, to));
    return params_.startup_seconds +
           params_.partition_bytes / params_.pessimistic_bandwidth;
  }
  WADC_ASSERT(*bw > 0, "resolver returned non-positive bandwidth");
  return params_.startup_seconds + params_.partition_bytes / *bw;
}

struct CostModel::EvalState {
  BandwidthResolver* resolver = nullptr;
  struct PerOperator {
    // Upper bound on the root-to-leaf path cost inside the operator's
    // subtree, assuming every cross-host edge runs at the pessimistic
    // bandwidth. Uses host co-location (free to check) but resolves no
    // bandwidth; filled once, bottom-up, before the search starts.
    double upper_bound = 0;
    // Which child (0 = left, 1 = right) carries the critical path into
    // this operator.
    int best_child = -1;
  };
  std::vector<PerOperator> ops;  // indexed by OperatorId
  std::set<HostPair> unknown_pairs;
  std::uint64_t subtrees_pruned = 0;
  std::uint64_t edges_resolved = 0;
};

double CostModel::pessimistic_edge_cost() const {
  return params_.startup_seconds +
         params_.partition_bytes / params_.pessimistic_bandwidth;
}

double CostModel::upper_bound(const Child& child,
                              const EvalState& state) const {
  return child.is_server()
             ? disk_cost()
             : state.ops[static_cast<std::size_t>(child.index)].upper_bound;
}

double CostModel::exact_subtree_cost(const Child& child, const Placement& p,
                                     EvalState& state) const {
  if (child.is_server()) return disk_cost();
  const OperatorId op = child.index;
  const net::HostId here = p.location(op);
  const Child children[2] = {tree_.left_child(op), tree_.right_child(op)};

  // Order the two inputs by optimistic upper bound, evaluate the larger
  // first, and skip the other entirely if its bound cannot win.
  double ubs[2];
  for (int i = 0; i < 2; ++i) {
    const net::HostId ch = p.child_host(tree_, children[i]);
    ubs[i] = upper_bound(children[i], state) +
             (ch == here ? 0.0 : pessimistic_edge_cost());
  }
  const int first = ubs[0] >= ubs[1] ? 0 : 1;
  const int second = 1 - first;

  const auto contribution = [&](int i) {
    const net::HostId ch = p.child_host(tree_, children[i]);
    const double sub = exact_subtree_cost(children[i], p, state);
    double edge = 0;
    if (ch != here) {
      edge = edge_cost(ch, here, *state.resolver, &state.unknown_pairs);
      ++state.edges_resolved;
    }
    return sub + edge;
  };

  const double c_first = contribution(first);
  double best = c_first;
  int best_idx = first;
  if (ubs[second] > c_first) {
    const double c_second = contribution(second);
    if (c_second > c_first) {
      best = c_second;
      best_idx = second;
    }
  } else {
    ++state.subtrees_pruned;
  }

  state.ops[static_cast<std::size_t>(op)].best_child = best_idx;
  return best + compute_cost();
}

CostModel::CriticalPathResult CostModel::critical_path(
    const Placement& p, BandwidthResolver& r) const {
  WADC_ASSERT(p.num_operators() == tree_.num_operators(),
              "placement does not match tree");
  EvalState state;
  state.resolver = &r;
  state.ops.resize(static_cast<std::size_t>(tree_.num_operators()));
  // Children come before parents in topological order, so one pass fills
  // every bound from bounds already in the table.
  for (const OperatorId op : tree_.topological_order()) {
    const net::HostId here = p.location(op);
    double best = 0;
    for (const Child& c : {tree_.left_child(op), tree_.right_child(op)}) {
      const net::HostId child_host = p.child_host(tree_, c);
      const double edge = child_host == here ? 0.0 : pessimistic_edge_cost();
      best = std::max(best, upper_bound(c, state) + edge);
    }
    state.ops[static_cast<std::size_t>(op)].upper_bound = best + compute_cost();
  }

  CriticalPathResult result;
  const Child root = Child::op(tree_.root());
  double cost = exact_subtree_cost(root, p, state);
  // Final hop: root operator to the client.
  const net::HostId root_host = p.location(tree_.root());
  if (root_host != tree_.client_host()) {
    cost += edge_cost(root_host, tree_.client_host(), r,
                      &state.unknown_pairs);
    ++state.edges_resolved;
  }
  result.cost = cost;
  result.unknown_pairs = std::move(state.unknown_pairs);
  result.subtrees_pruned = state.subtrees_pruned;
  result.edges_resolved = state.edges_resolved;

  // Walk the argmax chain from the root down to the critical server.
  OperatorId op = tree_.root();
  for (;;) {
    result.path.push_back(op);
    const int idx = state.ops[static_cast<std::size_t>(op)].best_child;
    WADC_ASSERT(idx == 0 || idx == 1, "operator missing best-child mark");
    const Child& c =
        idx == 0 ? tree_.left_child(op) : tree_.right_child(op);
    if (c.is_server()) {
      result.critical_server = c.index;
      break;
    }
    op = c.index;
  }
  return result;
}

}  // namespace wadc::core
