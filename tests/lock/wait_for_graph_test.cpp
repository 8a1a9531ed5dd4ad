#include "lock/wait_for_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "common/perf.hpp"

namespace rtdb::lock {
namespace {

TEST(WaitForGraph, EmptyHasNoCycle) {
  WaitForGraph<TxnId> g;
  EXPECT_TRUE(g.empty());
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(WaitForGraph, SelfWaitIsDeadlock) {
  WaitForGraph<TxnId> g;
  EXPECT_TRUE(g.would_deadlock(TxnId{1}, {TxnId{1}}));
}

TEST(WaitForGraph, DirectCycleDetected) {
  WaitForGraph<TxnId> g;
  EXPECT_TRUE(g.try_add_edges(TxnId{1}, {TxnId{2}}));
  EXPECT_TRUE(g.would_deadlock(TxnId{2}, {TxnId{1}}));
  EXPECT_FALSE(g.try_add_edges(TxnId{2}, {TxnId{1}}));
  EXPECT_FALSE(g.has_cycle());  // refused edge left no trace
}

TEST(WaitForGraph, TransitiveCycleDetected) {
  WaitForGraph<TxnId> g;
  EXPECT_TRUE(g.try_add_edges(TxnId{1}, {TxnId{2}}));
  EXPECT_TRUE(g.try_add_edges(TxnId{2}, {TxnId{3}}));
  EXPECT_TRUE(g.try_add_edges(TxnId{3}, {TxnId{4}}));
  EXPECT_TRUE(g.would_deadlock(TxnId{4}, {TxnId{1}}));
  EXPECT_FALSE(g.try_add_edges(TxnId{4}, {TxnId{1}}));
}

TEST(WaitForGraph, DagIsAccepted) {
  WaitForGraph<TxnId> g;
  EXPECT_TRUE(g.try_add_edges(TxnId{1}, {TxnId{2}, TxnId{3}}));
  EXPECT_TRUE(g.try_add_edges(TxnId{2}, {TxnId{4}}));
  EXPECT_TRUE(g.try_add_edges(TxnId{3}, {TxnId{4}}));
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.edge_count(), 4u);
}

TEST(WaitForGraph, MultipleHoldersCheckedTogether) {
  WaitForGraph<TxnId> g;
  g.add_edges(TxnId{5}, {TxnId{6}});
  // Waiting on {7, 5-reaching-node} deadlocks even though 7 alone is fine.
  EXPECT_FALSE(g.would_deadlock(TxnId{6}, {TxnId{7}}));
  EXPECT_TRUE(g.would_deadlock(TxnId{6}, {TxnId{7}, TxnId{5}}));
}

TEST(WaitForGraph, RemoveEdgeBreaksCycleRisk) {
  WaitForGraph<TxnId> g;
  g.add_edges(TxnId{1}, {TxnId{2}});
  g.remove_edge(TxnId{1}, TxnId{2});
  EXPECT_TRUE(g.try_add_edges(TxnId{2}, {TxnId{1}}));
}

TEST(WaitForGraph, CountedEdgesNeedAllRemovals) {
  WaitForGraph<TxnId> g;
  // The same waiter->holder pair justified by two different objects.
  g.add_edges(TxnId{1}, {TxnId{2}});
  g.add_edges(TxnId{1}, {TxnId{2}});
  g.remove_edge(TxnId{1}, TxnId{2});
  // One justification remains: the reverse edge still deadlocks.
  EXPECT_TRUE(g.would_deadlock(TxnId{2}, {TxnId{1}}));
  g.remove_edge(TxnId{1}, TxnId{2});
  EXPECT_FALSE(g.would_deadlock(TxnId{2}, {TxnId{1}}));
}

TEST(WaitForGraph, RemoveNodeClearsBothDirections) {
  WaitForGraph<TxnId> g;
  g.add_edges(TxnId{1}, {TxnId{2}});
  g.add_edges(TxnId{3}, {TxnId{1}});
  g.remove_node(TxnId{1});
  EXPECT_TRUE(g.empty() || g.edge_count() == 0u);
  EXPECT_TRUE(g.try_add_edges(TxnId{2}, {TxnId{3}}));
}

TEST(WaitForGraph, WaitsForLists) {
  WaitForGraph<TxnId> g;
  g.add_edges(TxnId{1}, {TxnId{2}, TxnId{3}});
  auto w = g.waits_for(TxnId{1});
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, (std::vector<TxnId>{TxnId{2}, TxnId{3}}));
  EXPECT_TRUE(g.waits_for(TxnId{9}).empty());
}

TEST(WaitForGraph, HasCycleDetectsForcedCycle) {
  WaitForGraph<TxnId> g;
  // add_edges is unconditional; build a cycle deliberately.
  g.add_edges(TxnId{1}, {TxnId{2}});
  g.add_edges(TxnId{2}, {TxnId{1}});
  EXPECT_TRUE(g.has_cycle());
  g.remove_edge(TxnId{2}, TxnId{1});
  EXPECT_FALSE(g.has_cycle());
}

TEST(WaitForGraph, LongChainNoFalsePositive) {
  WaitForGraph<TxnId> g;
  for (TxnId n{0}; n < TxnId{100}; ++n) {
    EXPECT_TRUE(g.try_add_edges(n, {TxnId{n.value() + 1}}));
  }
  EXPECT_FALSE(g.has_cycle());
  EXPECT_TRUE(g.would_deadlock(TxnId{100}, {TxnId{0}}));
  EXPECT_FALSE(g.would_deadlock(TxnId{100}, {TxnId{101}}));
}

TEST(WaitForGraph, DuplicateHoldersInOneCall) {
  WaitForGraph<TxnId> g;
  g.add_edges(TxnId{1}, {TxnId{2}, TxnId{2}, TxnId{2}});
  // Three justifications were recorded; removing once keeps the edge.
  g.remove_edge(TxnId{1}, TxnId{2});
  EXPECT_TRUE(g.would_deadlock(TxnId{2}, {TxnId{1}}));
  g.remove_edge(TxnId{1}, TxnId{2});
  g.remove_edge(TxnId{1}, TxnId{2});
  EXPECT_FALSE(g.would_deadlock(TxnId{2}, {TxnId{1}}));
}

TEST(WaitForGraph, SelfEdgesIgnoredOnAdd) {
  WaitForGraph<TxnId> g;
  g.add_edges(TxnId{1}, {TxnId{1}});
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.has_cycle());
}

TEST(WaitForGraph, MixedTxnClientNodesDetectCycles) {
  // The server's graph mixes transaction and client nodes (a queued entry
  // waits on holders identified by client). TxnOrClientNode keeps the two
  // id spaces disjoint by construction, so txn 5 and client 5 are distinct
  // vertices — a cycle through one must not leak into the other.
  WaitForGraph<TxnOrClientNode> g;
  const auto t5 = TxnOrClientNode::of_txn(TxnId{5});
  const auto c5 = TxnOrClientNode::of_client(ClientId{5});
  EXPECT_NE(t5, c5);

  // txn5 -> client5 -> txn7 -> txn5 is a cycle; would_deadlock must refuse
  // the closing edge and try_add_edges must reject it.
  g.add_edges(t5, {c5});
  g.add_edges(c5, {TxnOrClientNode::of_txn(TxnId{7})});
  EXPECT_TRUE(g.would_deadlock(TxnOrClientNode::of_txn(TxnId{7}), {t5}));
  EXPECT_FALSE(g.try_add_edges(TxnOrClientNode::of_txn(TxnId{7}), {t5}));
  EXPECT_FALSE(g.has_cycle());

  // A same-numbered node from the other family is NOT on the path.
  EXPECT_FALSE(g.would_deadlock(TxnOrClientNode::of_txn(TxnId{7}),
                                {TxnOrClientNode::of_client(ClientId{7})}));
}

// The graph's internal tables (flat id index, per-slot adjacency vectors)
// iterate in a history-dependent order. This test pins the determinism
// contract the flat containers document: no observable answer may depend on
// that order. The same logical graph is built under several permutations of
// the edge list (with interleaved removals), and every query must agree.
TEST(WaitForGraph, AnswersAreInsertionOrderIndependent) {
  // waiter -> holder justifications, with a repeated pair (counted edge).
  const std::vector<std::pair<TxnId, TxnId>> edges = {
      {TxnId{1}, TxnId{2}}, {TxnId{1}, TxnId{3}}, {TxnId{2}, TxnId{4}},
      {TxnId{3}, TxnId{4}}, {TxnId{4}, TxnId{5}}, {TxnId{6}, TxnId{1}},
      {TxnId{2}, TxnId{4}}, {TxnId{5}, TxnId{7}}, {TxnId{8}, TxnId{5}},
  };
  // After building, drop one justification of the doubled edge and a whole
  // node, again in permutation order.
  const std::vector<std::size_t> perm_a = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::size_t> perm_b = {8, 7, 6, 5, 4, 3, 2, 1, 0};
  const std::vector<std::size_t> perm_c = {4, 0, 8, 2, 6, 1, 5, 3, 7};

  auto build = [&](const std::vector<std::size_t>& perm) {
    WaitForGraph<TxnId> g;
    for (const std::size_t i : perm) {
      g.add_edges(edges[i].first, {edges[i].second});
    }
    g.remove_edge(TxnId{2}, TxnId{4});  // one justification remains
    g.remove_node(TxnId{8});
    g.validate_invariants();
    return g;
  };
  const auto ga = build(perm_a);
  const auto gb = build(perm_b);
  const auto gc = build(perm_c);

  EXPECT_EQ(ga.edge_count(), gb.edge_count());
  EXPECT_EQ(ga.edge_count(), gc.edge_count());
  EXPECT_EQ(ga.has_cycle(), gb.has_cycle());
  EXPECT_EQ(ga.has_cycle(), gc.has_cycle());

  // Every single-holder admission question answers identically.
  for (std::uint64_t w = 1; w <= 9; ++w) {
    for (std::uint64_t h = 1; h <= 9; ++h) {
      const bool a = ga.would_deadlock(TxnId{w}, {TxnId{h}});
      EXPECT_EQ(a, gb.would_deadlock(TxnId{w}, {TxnId{h}})) << w << "->" << h;
      EXPECT_EQ(a, gc.would_deadlock(TxnId{w}, {TxnId{h}})) << w << "->" << h;
    }
  }
  // Multi-holder questions too (the admission path's real shape).
  const std::vector<TxnId> holders = {TxnId{6}, TxnId{9}};
  EXPECT_EQ(ga.would_deadlock(TxnId{5}, holders),
            gb.would_deadlock(TxnId{5}, holders));
  EXPECT_EQ(ga.would_deadlock(TxnId{5}, holders),
            gc.would_deadlock(TxnId{5}, holders));

  // waits_for is unordered by contract: compare as sorted sets.
  for (std::uint64_t w = 1; w <= 9; ++w) {
    auto wa = ga.waits_for(TxnId{w});
    auto wb = gb.waits_for(TxnId{w});
    auto wc = gc.waits_for(TxnId{w});
    std::sort(wa.begin(), wa.end());
    std::sort(wb.begin(), wb.end());
    std::sort(wc.begin(), wc.end());
    EXPECT_EQ(wa, wb) << "waits_for(" << w << ")";
    EXPECT_EQ(wa, wc) << "waits_for(" << w << ")";
  }
}

TEST(WaitForGraph, ClearAndRebuildKeepsScratchInStep) {
  // A server crash wipes its graph with clear(); the rebuilt graph must not
  // carry the old graph's search scratch along (the audit checks sizes).
  WaitForGraph<TxnOrClientNode> g;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t t = 1; t <= 20; ++t) {
      const auto client = TxnOrClientNode::of_client(
          ClientId{static_cast<std::int32_t>(t % 5)});
      g.add_edges(TxnOrClientNode::of_txn(TxnId{t}), {client});
      g.add_edges(client, {TxnOrClientNode::of_txn(TxnId{t + 1})});
    }
    g.validate_invariants();
    EXPECT_TRUE(g.would_deadlock(TxnOrClientNode::of_txn(TxnId{21}),
                                 {TxnOrClientNode::of_txn(TxnId{1})}));
    g.clear();
    g.validate_invariants();
    EXPECT_TRUE(g.empty());
    EXPECT_FALSE(g.would_deadlock(TxnOrClientNode::of_txn(TxnId{21}),
                                  {TxnOrClientNode::of_txn(TxnId{1})}));
  }
}

// Differential tests of the admission query against a brute-force
// reference, for both node types the simulator instantiates.
template <class Node>
Node make_node(std::uint64_t i);
template <>
TxnId make_node<TxnId>(std::uint64_t i) {
  return TxnId{i};
}
template <>
TxnOrClientNode make_node<TxnOrClientNode>(std::uint64_t i) {
  // Even i are txns, odd i clients: txn k and client k both take part and
  // must stay distinct nodes.
  return i % 2 == 0
             ? TxnOrClientNode::of_txn(TxnId{i / 2})
             : TxnOrClientNode::of_client(
                   ClientId{static_cast<std::int32_t>(i / 2)});
}

/// Reference verdict: some holder is the waiter or reaches it by a forward
/// BFS over waits_for().
template <class Node>
bool reference_deadlock(const WaitForGraph<Node>& g, Node waiter,
                        const std::vector<Node>& holders) {
  for (const Node h : holders) {
    std::vector<Node> seen = {h};
    for (std::size_t next = 0; next < seen.size(); ++next) {
      if (seen[next] == waiter) return true;
      for (const Node n : g.waits_for(seen[next])) {
        if (std::find(seen.begin(), seen.end(), n) == seen.end()) {
          seen.push_back(n);
        }
      }
    }
  }
  return false;
}

template <class Node>
class WaitForGraphDifferential : public ::testing::Test {};
using NodeTypes = ::testing::Types<TxnId, TxnOrClientNode>;
TYPED_TEST_SUITE(WaitForGraphDifferential, NodeTypes);

TYPED_TEST(WaitForGraphDifferential, EdgeCasesMatchReference) {
  using Node = TypeParam;
  const auto n = [](std::uint64_t i) { return make_node<Node>(i); };
  WaitForGraph<Node> g;
  g.add_edges(n(1), {n(2)});
  g.add_edges(n(2), {n(3)});
  g.add_edges(n(1), {n(2)});  // counted edge: two justifications
  g.add_edges(n(4), {n(1)});  // n(4) only has out-edges, n(3) only in-edges

  const std::vector<std::pair<Node, std::vector<Node>>> cases = {
      {n(9), {n(1)}},              // unknown waiter
      {n(9), {n(9)}},              // unknown waiter waiting on itself
      {n(9), {n(1), n(9)}},        // ... behind another holder
      {n(3), {n(8), n(9)}},        // unknown holders only
      {n(3), {n(8), n(1)}},        // unknown holder then a reaching one
      {n(2), {n(2)}},              // holder == waiter
      {n(3), {n(4), n(4), n(4)}},  // duplicate holders
      {n(1), {n(3)}},              // holder with only in-edges
      {n(2), {n(3), n(1)}},        // in-edge-only holder, then a cycle
      {n(3), {n(1)}},              // transitive reach
      {n(4), {n(3), n(2)}},        // nobody reaches a source node
      {n(3), {}},                  // no holders at all
  };
  for (const auto& [waiter, holders] : cases) {
    EXPECT_EQ(g.would_deadlock(waiter, holders),
              reference_deadlock(g, waiter, holders));
  }
  // With one justification of 1->2 left, 2->1 still closes a cycle; with
  // none left it does not.
  g.remove_edge(n(1), n(2));
  EXPECT_TRUE(g.would_deadlock(n(2), {n(1)}));
  EXPECT_TRUE(reference_deadlock(g, n(2), {n(1)}));
  g.remove_edge(n(1), n(2));
  EXPECT_FALSE(g.would_deadlock(n(2), {n(1)}));
  EXPECT_FALSE(reference_deadlock(g, n(2), {n(1)}));
}

TYPED_TEST(WaitForGraphDifferential, CountsOneCycleCheckPerQuery) {
  using Node = TypeParam;
  const auto n = [](std::uint64_t i) { return make_node<Node>(i); };
  WaitForGraph<Node> g;
  g.add_edges(n(1), {n(2)});
  g.add_edges(n(2), {n(3)});
  // Unknown waiter, self-wait, search hit, search miss, no target at all.
  const std::vector<std::pair<Node, std::vector<Node>>> cases = {
      {n(9), {n(1)}}, {n(1), {n(1)}}, {n(2), {n(1)}},
      {n(1), {n(2)}}, {n(1), {n(7)}}};
  for (const auto& [waiter, holders] : cases) {
    const std::uint64_t before =
        perf::counter_value(perf::Counter::kWfgCycleChecks);
    (void)g.would_deadlock(waiter, holders);
    EXPECT_EQ(perf::counter_value(perf::Counter::kWfgCycleChecks), before + 1);
  }
}

TYPED_TEST(WaitForGraphDifferential, RandomMutationsMatchReference) {
  using Node = TypeParam;
  // Nodes [1, kUniverse) take part in edges; [kUniverse, kUniverse + 3) are
  // only ever asked about, so queries also see holders and waiters that the
  // graph has never held.
  constexpr std::uint64_t kUniverse = 12;
  const auto n = [](std::uint64_t i) { return make_node<Node>(i); };
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    const auto pick = [&](std::uint64_t bound) {
      return n(1 + rng() % (bound - 1));
    };
    const auto pick_holders = [&](std::uint64_t bound) {
      std::vector<Node> holders(1 + rng() % 4);
      for (Node& h : holders) h = pick(bound);  // duplicates allowed
      return holders;
    };
    WaitForGraph<Node> g;
    for (int step = 0; step < 200; ++step) {
      const std::uint32_t op = rng() % 100;
      if (op < 45) {
        const Node w = pick(kUniverse);
        const std::vector<Node> holders = pick_holders(kUniverse);
        if (op % 2 == 0) {
          g.add_edges(w, holders);  // may close a cycle on purpose
        } else {
          const bool expect = reference_deadlock(g, w, holders);
          EXPECT_EQ(g.try_add_edges(w, holders), !expect);
        }
      } else if (op < 80) {
        const Node w = pick(kUniverse);
        const std::vector<Node> out = g.waits_for(w);
        g.remove_edge(w, out.empty() ? pick(kUniverse)
                                     : out[rng() % out.size()]);
      } else if (op < 98) {
        g.remove_node(pick(kUniverse));
      } else {
        g.clear();
      }
      g.validate_invariants();
      for (std::uint64_t w = 1; w < kUniverse + 3; ++w) {
        const std::vector<Node> holders = pick_holders(kUniverse + 3);
        EXPECT_EQ(g.would_deadlock(n(w), holders),
                  reference_deadlock(g, n(w), holders))
            << "seed " << seed << " step " << step << " waiter " << w;
      }
    }
  }
}

}  // namespace
}  // namespace rtdb::lock
