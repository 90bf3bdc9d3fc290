#include "core/combination_tree.h"

#include <algorithm>

#include "common/assert.h"

namespace wadc::core {

const char* tree_shape_name(TreeShape shape) {
  switch (shape) {
    case TreeShape::kCompleteBinary:
      return "complete-binary";
    case TreeShape::kLeftDeep:
      return "left-deep";
    case TreeShape::kRightDeep:
      return "right-deep";
    case TreeShape::kCustom:
      return "custom";
  }
  return "unknown";
}

CombinationTree CombinationTree::make(TreeShape shape, int num_servers) {
  switch (shape) {
    case TreeShape::kCompleteBinary:
      return complete_binary(num_servers);
    case TreeShape::kLeftDeep:
      return left_deep(num_servers);
    case TreeShape::kRightDeep:
      return right_deep(num_servers);
    case TreeShape::kCustom:
      WADC_FATAL("custom trees are built via CombinationTree::custom");
  }
  WADC_FATAL("unknown tree shape");
}

CombinationTree CombinationTree::complete_binary(int num_servers) {
  WADC_ASSERT(num_servers >= 2, "need at least two servers");
  CombinationTree t;
  t.shape_ = TreeShape::kCompleteBinary;
  t.num_servers_ = num_servers;
  t.server_consumer_.assign(static_cast<std::size_t>(num_servers),
                            kNoOperator);

  // Pair adjacent subtrees level by level; with a power-of-two server count
  // this yields the paper's complete binary tree, and it degrades gracefully
  // (an odd subtree is carried to the next round) otherwise.
  std::vector<Child> frontier;
  frontier.reserve(static_cast<std::size_t>(num_servers));
  for (int s = 0; s < num_servers; ++s) frontier.push_back(Child::server(s));

  while (frontier.size() > 1) {
    std::vector<Child> next;
    for (std::size_t i = 0; i + 1 < frontier.size(); i += 2) {
      const auto op = static_cast<OperatorId>(t.ops_.size());
      OpNode node;
      node.left = frontier[i];
      node.right = frontier[i + 1];
      t.ops_.push_back(node);
      next.push_back(Child::op(op));
    }
    if (frontier.size() % 2 == 1) next.push_back(frontier.back());
    frontier = std::move(next);
  }
  WADC_ASSERT(!frontier.empty() && !frontier.front().is_server(),
              "tree construction failed");
  t.root_ = frontier.front().index;
  t.finalize();
  return t;
}

CombinationTree CombinationTree::left_deep(int num_servers) {
  WADC_ASSERT(num_servers >= 2, "need at least two servers");
  CombinationTree t;
  t.shape_ = TreeShape::kLeftDeep;
  t.num_servers_ = num_servers;
  t.server_consumer_.assign(static_cast<std::size_t>(num_servers),
                            kNoOperator);

  // op0 = (s0, s1); op_i = (op_{i-1}, s_{i+1}).
  OpNode first;
  first.left = Child::server(0);
  first.right = Child::server(1);
  t.ops_.push_back(first);
  for (int s = 2; s < num_servers; ++s) {
    OpNode node;
    node.left = Child::op(static_cast<OperatorId>(t.ops_.size()) - 1);
    node.right = Child::server(s);
    t.ops_.push_back(node);
  }
  t.root_ = static_cast<OperatorId>(t.ops_.size()) - 1;
  t.finalize();
  return t;
}

CombinationTree CombinationTree::right_deep(int num_servers) {
  WADC_ASSERT(num_servers >= 2, "need at least two servers");
  CombinationTree t;
  t.shape_ = TreeShape::kRightDeep;
  t.num_servers_ = num_servers;
  t.server_consumer_.assign(static_cast<std::size_t>(num_servers),
                            kNoOperator);

  // Mirror of left-deep: op0 = (s_{n-2}, s_{n-1}); op_i = (s_{n-2-i},
  // op_{i-1}).
  OpNode first;
  first.left = Child::server(num_servers - 2);
  first.right = Child::server(num_servers - 1);
  t.ops_.push_back(first);
  for (int s = num_servers - 3; s >= 0; --s) {
    OpNode node;
    node.left = Child::server(s);
    node.right = Child::op(static_cast<OperatorId>(t.ops_.size()) - 1);
    t.ops_.push_back(node);
  }
  t.root_ = static_cast<OperatorId>(t.ops_.size()) - 1;
  t.finalize();
  return t;
}

CombinationTree CombinationTree::custom(
    int num_servers, const std::vector<std::pair<Child, Child>>& ops) {
  WADC_ASSERT(num_servers >= 2, "need at least two servers");
  WADC_ASSERT(static_cast<int>(ops.size()) == num_servers - 1,
              "a tree over ", num_servers, " servers needs ",
              num_servers - 1, " operators, got ", ops.size());
  CombinationTree t;
  t.shape_ = TreeShape::kCustom;
  t.num_servers_ = num_servers;
  t.server_consumer_.assign(static_cast<std::size_t>(num_servers),
                            kNoOperator);
  std::vector<int> server_uses(static_cast<std::size_t>(num_servers), 0);
  std::vector<int> op_uses(ops.size(), 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const Child& c : {ops[i].first, ops[i].second}) {
      if (c.is_server()) {
        WADC_ASSERT(c.index >= 0 && c.index < num_servers,
                    "server index out of range");
        ++server_uses[static_cast<std::size_t>(c.index)];
      } else {
        WADC_ASSERT(c.index >= 0 &&
                        static_cast<std::size_t>(c.index) < i,
                    "operator child must precede its parent");
        ++op_uses[static_cast<std::size_t>(c.index)];
      }
    }
    OpNode node;
    node.left = ops[i].first;
    node.right = ops[i].second;
    t.ops_.push_back(node);
  }
  for (int s = 0; s < num_servers; ++s) {
    WADC_ASSERT(server_uses[static_cast<std::size_t>(s)] == 1, "server ", s,
                " must be consumed exactly once");
  }
  for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
    WADC_ASSERT(op_uses[i] == 1, "operator ", i,
                " must feed exactly one consumer");
  }
  WADC_ASSERT(op_uses.empty() || op_uses.back() == 0,
              "the last operator is the root and has no consumer");
  t.root_ = static_cast<OperatorId>(t.ops_.size()) - 1;
  t.finalize();
  return t;
}

void CombinationTree::finalize() {
  // Wire parents and server consumers.
  for (OperatorId op = 0; op < num_operators(); ++op) {
    for (const Child& c : {ops_[static_cast<std::size_t>(op)].left,
                           ops_[static_cast<std::size_t>(op)].right}) {
      if (c.is_server()) {
        server_consumer_[static_cast<std::size_t>(c.index)] = op;
      } else {
        ops_[static_cast<std::size_t>(c.index)].parent = op;
      }
    }
  }
  for (int s = 0; s < num_servers_; ++s) {
    WADC_ASSERT(server_consumer_[static_cast<std::size_t>(s)] != kNoOperator,
                "server ", s, " has no consumer");
  }

  // Levels (longest chain of operators below, 0-based) and a bottom-up
  // order. Construction orders (both builders append children before
  // parents) already guarantee child-index < parent-index.
  depth_ = 0;
  topo_.clear();
  for (OperatorId op = 0; op < num_operators(); ++op) {
    int lvl = 0;
    const OpNode& n = ops_[static_cast<std::size_t>(op)];
    for (const Child& c : {n.left, n.right}) {
      if (!c.is_server()) {
        WADC_ASSERT(c.index < op, "tree is not in bottom-up order");
        lvl = std::max(lvl,
                       ops_[static_cast<std::size_t>(c.index)].level + 1);
      }
    }
    ops_[static_cast<std::size_t>(op)].level = lvl;
    depth_ = std::max(depth_, lvl + 1);
    topo_.push_back(op);
  }
  WADC_ASSERT(ops_[static_cast<std::size_t>(root_)].parent == kNoOperator,
              "root has a parent");
}

OperatorId CombinationTree::server_consumer(int server) const {
  WADC_ASSERT(server >= 0 && server < num_servers_, "bad server index");
  return server_consumer_[static_cast<std::size_t>(server)];
}

int CombinationTree::level(OperatorId op) const {
  WADC_ASSERT(op >= 0 && op < num_operators(), "bad operator id");
  return ops_[static_cast<std::size_t>(op)].level;
}

std::string CombinationTree::to_string() const {
  std::string out = std::string(tree_shape_name(shape_)) + "(";
  out += std::to_string(num_servers_) + " servers, " +
         std::to_string(num_operators()) + " operators, depth " +
         std::to_string(depth_) + ")";
  return out;
}

}  // namespace wadc::core
