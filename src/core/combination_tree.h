// Data-flow trees ordering the combination operations.
//
// The input to every placement algorithm is "the order of combination
// operations (represented as a data-flow tree)" (§2). Leaves are servers,
// internal nodes are pairwise combination operators, and the root operator
// delivers to the client. The paper evaluates two orders: a complete binary
// tree (maximally bushy) and a left-deep tree (linear, the classic database
// plan shape) — Figure 5 and §4.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "net/types.h"

namespace wadc::core {

// Index of an operator (internal node); 0 .. num_operators()-1.
using OperatorId = int;
inline constexpr OperatorId kNoOperator = -1;

// Shape of the combination order.
enum class TreeShape {
  kCompleteBinary,  // maximally bushy (paper's default)
  kLeftDeep,        // linear (paper's Figure 5)
  kRightDeep,       // linear mirror; extension (cf. segmented right-deep
                    // trees for pipelined hash joins, paper §6)
  kCustom,          // built from an explicit merge order (adaptive-order
                    // extension; see core/order_planner.h)
};

const char* tree_shape_name(TreeShape shape);

// A child of an operator: either a server (leaf) or another operator.
struct Child {
  enum class Kind { kServer, kOperator };
  Kind kind;
  int index;  // server index (0-based) or OperatorId

  bool is_server() const { return kind == Kind::kServer; }
  static Child server(int s) { return Child{Kind::kServer, s}; }
  static Child op(OperatorId o) { return Child{Kind::kOperator, o}; }
};

class CombinationTree {
 public:
  // Builds a tree over `num_servers` servers (>= 2). Server index s is
  // served by host 1 + s; host 0 is the client.
  static CombinationTree make(TreeShape shape, int num_servers);
  static CombinationTree complete_binary(int num_servers);
  static CombinationTree left_deep(int num_servers);
  static CombinationTree right_deep(int num_servers);

  // Builds a tree from an explicit bottom-up merge order: ops[i] combines
  // ops[i].first and ops[i].second, which may reference servers or earlier
  // operators (index < i). There must be exactly num_servers-1 operators,
  // every server must be consumed exactly once, every non-root operator
  // exactly once, and the last operator is the root.
  static CombinationTree custom(int num_servers,
                                const std::vector<std::pair<Child, Child>>& ops);

  int num_servers() const { return num_servers_; }
  int num_operators() const { return static_cast<int>(ops_.size()); }
  OperatorId root() const { return root_; }
  TreeShape shape() const { return shape_; }

  const Child& left_child(OperatorId op) const {
    WADC_ASSERT(op >= 0 && op < num_operators(), "bad operator id");
    return ops_[static_cast<std::size_t>(op)].left;
  }
  const Child& right_child(OperatorId op) const {
    WADC_ASSERT(op >= 0 && op < num_operators(), "bad operator id");
    return ops_[static_cast<std::size_t>(op)].right;
  }
  // Parent operator, or kNoOperator for the root (whose consumer is the
  // client).
  OperatorId parent(OperatorId op) const {
    WADC_ASSERT(op >= 0 && op < num_operators(), "bad operator id");
    return ops_[static_cast<std::size_t>(op)].parent;
  }
  // Operator consuming server s's output.
  OperatorId server_consumer(int server) const;

  // Level used for staggering relocation epochs (§2.3): 0 for operators
  // whose deepest input chain is a server, increasing toward the root.
  int level(OperatorId op) const;
  // Number of distinct levels (the paper's "combination tree of depth 3"
  // has depth() == 3).
  int depth() const { return depth_; }

  // Host serving leaf s (host 1 + s by construction).
  net::HostId server_host(int server) const {
    WADC_ASSERT(server >= 0 && server < num_servers_, "bad server index");
    return server + 1;
  }
  // Total number of hosts (servers + client).
  int num_hosts() const { return num_servers_ + 1; }
  net::HostId client_host() const { return 0; }

  // Operators in bottom-up order (children before parents); useful for
  // dynamic programming over the tree.
  const std::vector<OperatorId>& topological_order() const { return topo_; }

  std::string to_string() const;

 private:
  struct OpNode {
    Child left{Child::Kind::kServer, 0};
    Child right{Child::Kind::kServer, 0};
    OperatorId parent = kNoOperator;
    int level = 0;
  };

  void finalize();

  TreeShape shape_ = TreeShape::kCompleteBinary;
  int num_servers_ = 0;
  OperatorId root_ = kNoOperator;
  std::vector<OpNode> ops_;
  std::vector<OperatorId> server_consumer_;
  std::vector<OperatorId> topo_;
  int depth_ = 0;
};

}  // namespace wadc::core
