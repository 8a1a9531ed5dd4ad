#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/ids.hpp"

/// \file wait_for_graph.hpp
/// Deadlock detection. The paper: "Wait-for graphs are used to detect
/// deadlocks. When an object request is received by the server, it is added
/// to the request queue only if it does not cause a deadlock cycle in the
/// wait-for graph." We provide the same admission test: edges are staged,
/// checked for a cycle, and only committed when safe.

namespace rtdb::lock {

/// Node type of the server-side admission graph, where a wait can be charged
/// to a transaction *or* to a client (the CS server blocks whole clients
/// behind recalls). The two id spaces are kept disjoint by a tag bit, and —
/// unlike the raw `(1<<62)|site` punning this type replaced — constructing a
/// node from the wrong id, or mixing TxnId/ClientId nodes in one graph
/// without going through these factories, is a compile error.
class TxnOrClientNode {
 public:
  constexpr TxnOrClientNode() = default;

  static constexpr TxnOrClientNode of_txn(TxnId t) {
    return TxnOrClientNode{t.value()};
  }
  static constexpr TxnOrClientNode of_client(ClientId c) {
    return TxnOrClientNode{kClientBit |
                           static_cast<std::uint64_t>(c.value())};
  }

  /// Encoded value (diagnostics/hashing only).
  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }

  constexpr auto operator<=>(const TxnOrClientNode&) const = default;

 private:
  /// Transactions never reach 2^62 in one run; clients are small ints.
  static constexpr std::uint64_t kClientBit = 1ull << 62;

  constexpr explicit TxnOrClientNode(std::uint64_t v) : v_(v) {}

  std::uint64_t v_ = 0;
};

}  // namespace rtdb::lock

template <>
struct std::hash<rtdb::lock::TxnOrClientNode> {
  std::size_t operator()(rtdb::lock::TxnOrClientNode n) const noexcept {
    return std::hash<std::uint64_t>{}(n.value());
  }
};

namespace rtdb::lock {

/// Directed wait-for graph over strongly-typed node ids: `TxnId` at a
/// client's local lock manager, `TxnOrClientNode` at the server. The node
/// type is a template parameter, so graphs over different id spaces are
/// themselves different types — an edge between a TxnId and a ClientId can
/// only be expressed through TxnOrClientNode's explicit factories.
///
/// Edges are *counted*: the same waiter->holder pair can be justified by
/// waits on several objects at once, and disappears only when the last
/// justification is removed.
///
/// Storage: each node that currently touches an edge occupies one slot of a
/// recycled slab, addressed through a single flat id->slot index; adjacency
/// is a pair of small vectors per slot (out: {target, count}, in: sources),
/// so steady state allocates nothing per edge. Iteration order of the
/// internal tables never feeds any ordered decision (see the determinism
/// test). An admission test is one backward search from the waiter over the
/// waiter's ancestors, O(V+E) whatever the number of holders, with visited
/// and target marks epoch-stamped in one reused scratch buffer.
template <class NodeT>
class WaitForGraph {
 public:
  using Node = NodeT;

  /// Would adding waiter->holder edges close a cycle? Pure query.
  [[nodiscard]] bool would_deadlock(Node waiter,
                                    const std::vector<Node>& holders) const;

  /// Adds waiter->holder edges unconditionally (caller already checked or
  /// wants detection-after-the-fact).
  void add_edges(Node waiter, const std::vector<Node>& holders);

  /// Admission test used by the lock managers: adds the edges only when
  /// they close no cycle. Returns false (and changes nothing) on deadlock.
  bool try_add_edges(Node waiter, const std::vector<Node>& holders);

  /// Removes one justification of an edge; the edge disappears when its
  /// count reaches zero (no-op when absent).
  void remove_edge(Node waiter, Node holder);

  /// Removes a node and all edges touching it (txn finished/aborted).
  void remove_node(Node node);

  /// Drops every node and edge at once — the owning table was wiped
  /// wholesale (server crash recovery), so per-node teardown is pointless.
  void clear();

  /// Current out-edges of a node (whom it waits for).
  [[nodiscard]] std::vector<Node> waits_for(Node waiter) const;

  /// True if the graph currently contains any cycle (diagnostic).
  [[nodiscard]] bool has_cycle() const;

  [[nodiscard]] std::size_t edge_count() const { return edges_; }
  [[nodiscard]] bool empty() const { return edges_ == 0; }

  /// Invariant audit: the forward and reverse adjacency vectors mirror each
  /// other exactly, every edge count is positive, no self-edges, no
  /// edge-less slots stay active, the id index maps exactly the active
  /// slots, and the slot free list is sound. (Acyclicity is deliberately
  /// NOT asserted here: EDF insert-ahead can close a cycle transiently
  /// until the victim is aborted — see local_lock_manager.hpp.) Aborts on
  /// violation.
  void validate_invariants() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct OutEdge {
    std::uint32_t to = 0;
    std::int32_t count = 0;
  };

  struct Slot {
    Node node{};
    std::vector<OutEdge> out;      ///< targets this node waits for
    std::vector<std::uint32_t> in; ///< sources waiting for this node
    bool active = false;
    std::uint32_t next_free = kNoSlot;
  };

  [[nodiscard]] std::uint32_t slot_of(Node n) const {
    const std::uint32_t* s = index_.find(n.value());
    return s == nullptr ? kNoSlot : *s;
  }
  std::uint32_t get_or_create(Node n);
  /// Frees the slot when it no longer touches any edge.
  void release_if_isolated(std::uint32_t slot);
  /// Backward search over `in` from `from`: is a `target`-stamped slot met?
  bool reaches_target_backwards(std::uint32_t from, std::uint64_t target) const;
  /// Drops one (waiter->holder) pair entirely, fixing both adjacencies.
  void drop_pair(std::uint32_t waiter, std::uint32_t holder);

  common::FlatMap<std::uint64_t, std::uint32_t> index_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t active_ = 0;
  std::size_t edges_ = 0;  ///< distinct (waiter, holder) pairs

  // Cycle-check scratch, reused across calls (logically const queries):
  // the search stack, epoch-stamped visited/target marks, and the
  // generation counter for those marks.
  mutable std::vector<std::uint32_t> stack_;
  mutable std::vector<std::uint64_t> seen_epoch_;
  mutable std::uint64_t epoch_ = 0;
};

extern template class WaitForGraph<TxnId>;
extern template class WaitForGraph<TxnOrClientNode>;

}  // namespace rtdb::lock
