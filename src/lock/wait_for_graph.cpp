#include "lock/wait_for_graph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/perf.hpp"

namespace rtdb::lock {

namespace {
/// RTDB_CHECK-friendly rendering of any node id.
template <class Node>
unsigned long long fmt(Node n) {
  return static_cast<unsigned long long>(n.value());
}
}  // namespace

template <class NodeT>
void WaitForGraph<NodeT>::validate_invariants() const {
  index_.validate_invariants();
  std::size_t active = 0, forward_edges = 0, reverse_edges = 0;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (!s.active) {
      RTDB_CHECK(s.out.empty() && s.in.empty(),
                 "free slot %u keeps adjacency", i);
      continue;
    }
    ++active;
    const std::uint32_t* idx = index_.find(s.node.value());
    RTDB_CHECK(idx != nullptr && *idx == i,
               "active node %llu not indexed at its slot %u", fmt(s.node), i);
    RTDB_CHECK(!s.out.empty() || !s.in.empty(),
               "edge-less node %llu still active", fmt(s.node));
    for (const OutEdge& e : s.out) {
      RTDB_CHECK(e.to < slots_.size() && slots_[e.to].active,
                 "edge %llu-> targets dead slot %u", fmt(s.node), e.to);
      RTDB_CHECK(e.to != i, "self-edge on node %llu", fmt(s.node));
      RTDB_CHECK(e.count > 0, "edge %llu->%llu has count %d", fmt(s.node),
                 fmt(slots_[e.to].node), e.count);
      const auto& rin = slots_[e.to].in;
      RTDB_CHECK(std::count(rin.begin(), rin.end(), i) == 1,
                 "edge %llu->%llu not mirrored exactly once", fmt(s.node),
                 fmt(slots_[e.to].node));
      ++forward_edges;
    }
    for (const std::uint32_t w : s.in) {
      RTDB_CHECK(w < slots_.size() && slots_[w].active,
                 "reverse edge from dead slot %u", w);
      const auto& wout = slots_[w].out;
      RTDB_CHECK(std::any_of(wout.begin(), wout.end(),
                             [&](const OutEdge& e) { return e.to == i; }),
                 "reverse edge %llu<-%llu missing from forward adjacency",
                 fmt(s.node), fmt(slots_[w].node));
      ++reverse_edges;
    }
  }
  RTDB_CHECK(seen_epoch_.size() == slots_.size(), "scratch holds %zu marks "
             "for %zu slots", seen_epoch_.size(), slots_.size());
  RTDB_CHECK(active == active_, "active count %zu != active slots %zu",
             active_, active);
  RTDB_CHECK(index_.size() == active_,
             "index holds %zu nodes, %zu slots active", index_.size(),
             active_);
  RTDB_CHECK(forward_edges == edges_, "edge count %zu != forward edges %zu",
             edges_, forward_edges);
  RTDB_CHECK(forward_edges == reverse_edges,
             "forward/reverse edge counts differ: %zu vs %zu", forward_edges,
             reverse_edges);
  std::size_t free_walked = 0;
  for (std::uint32_t s = free_head_; s != kNoSlot;
       s = slots_[s].next_free) {
    RTDB_CHECK(s < slots_.size(), "free list names slot %u of %zu", s,
               slots_.size());
    RTDB_CHECK(!slots_[s].active, "free list holds active slot %u", s);
    ++free_walked;
    RTDB_CHECK(free_walked <= slots_.size(), "free list cycle detected");
  }
  RTDB_CHECK(free_walked == slots_.size() - active_,
             "free list holds %zu slots, %zu are free", free_walked,
             slots_.size() - active_);
}

template <class NodeT>
std::uint32_t WaitForGraph<NodeT>::get_or_create(Node n) {
  std::uint32_t& slot = index_.get_or_insert(n.value());
  // FlatMap default-initializes new values to 0 — disambiguate "new entry"
  // from "slot 0" by checking the occupant.
  if (slot < slots_.size() && slots_[slot].active &&
      slots_[slot].node == n) {
    return slot;
  }
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    seen_epoch_.push_back(0);
  }
  Slot& s = slots_[slot];
  s.node = n;
  s.active = true;
  s.next_free = kNoSlot;
  ++active_;
  return slot;
}

template <class NodeT>
void WaitForGraph<NodeT>::release_if_isolated(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (!s.active || !s.out.empty() || !s.in.empty()) return;
  index_.erase(s.node.value());
  s.node = Node{};
  s.active = false;
  s.next_free = free_head_;
  free_head_ = slot;
  --active_;
}

template <class NodeT>
bool WaitForGraph<NodeT>::reaches_target_backwards(std::uint32_t from,
                                                   std::uint64_t target) const {
  const std::uint64_t visited = ++epoch_;
  stack_.assign(1, from);
  seen_epoch_[from] = visited;
  while (!stack_.empty()) {
    const std::uint32_t n = stack_.back();
    stack_.pop_back();
    for (const std::uint32_t src : slots_[n].in) {
      if (seen_epoch_[src] == target) return true;
      if (seen_epoch_[src] == visited) continue;
      seen_epoch_[src] = visited;
      stack_.push_back(src);
    }
  }
  return false;
}

template <class NodeT>
bool WaitForGraph<NodeT>::would_deadlock(
    Node waiter, const std::vector<Node>& holders) const {
  RTDB_PERF_TIMER(kWfgCycleCheck);
  RTDB_PERF_ALLOC_SCOPE(kLock);
  RTDB_PERF_COUNT(kWfgCycleChecks);
  // A new edge waiter->h closes a cycle iff h already reaches waiter. Search
  // backwards from waiter for the holders that wait (only they can).
  const std::uint32_t w = slot_of(waiter);
  if (w == kNoSlot) {  // waiter unknown: nothing reaches it
    return std::find(holders.begin(), holders.end(), waiter) != holders.end();
  }
  const std::uint64_t target = ++epoch_;
  bool any_target = false;
  for (const Node h : holders) {
    if (h == waiter) return true;
    const std::uint32_t hs = slot_of(h);
    if (hs == kNoSlot || slots_[hs].out.empty()) continue;
    seen_epoch_[hs] = target;
    any_target = true;
  }
  // rtdb-lint: allow(hot-path-alloc) the search pushes onto the reused
  // epoch-stamped scratch stack: grows to high-water once, then reuses
  return any_target && reaches_target_backwards(w, target);
}

template <class NodeT>
void WaitForGraph<NodeT>::add_edges(Node waiter,
                                    const std::vector<Node>& holders) {
  for (Node h : holders) {
    if (h == waiter) continue;  // self-waits are meaningless
    RTDB_PERF_COUNT(kWfgEdgesAdded);
    const std::uint32_t w = get_or_create(waiter);
    const std::uint32_t t = get_or_create(h);
    auto& out = slots_[w].out;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const OutEdge& e) { return e.to == t; });
    if (it != out.end()) {
      ++it->count;
    } else {
      out.push_back(OutEdge{t, 1});
      slots_[t].in.push_back(w);
      ++edges_;
    }
  }
}

template <class NodeT>
bool WaitForGraph<NodeT>::try_add_edges(Node waiter,
                                        const std::vector<Node>& holders) {
  if (would_deadlock(waiter, holders)) return false;
  add_edges(waiter, holders);
  return true;
}

template <class NodeT>
void WaitForGraph<NodeT>::drop_pair(std::uint32_t waiter,
                                    std::uint32_t holder) {
  auto& out = slots_[waiter].out;
  auto it = std::find_if(out.begin(), out.end(),
                         [&](const OutEdge& e) { return e.to == holder; });
  if (it == out.end()) return;
  *it = out.back();
  out.pop_back();
  auto& in = slots_[holder].in;
  auto jt = std::find(in.begin(), in.end(), waiter);
  if (jt != in.end()) {
    *jt = in.back();
    in.pop_back();
  }
  --edges_;
}

template <class NodeT>
void WaitForGraph<NodeT>::remove_edge(Node waiter, Node holder) {
  const std::uint32_t w = slot_of(waiter);
  const std::uint32_t t = slot_of(holder);
  if (w == kNoSlot || t == kNoSlot) return;
  auto& out = slots_[w].out;
  auto it = std::find_if(out.begin(), out.end(),
                         [&](const OutEdge& e) { return e.to == t; });
  if (it == out.end()) return;
  if (--it->count > 0) return;  // other objects still justify this edge
  drop_pair(w, t);
  release_if_isolated(w);
  release_if_isolated(t);
}

template <class NodeT>
void WaitForGraph<NodeT>::remove_node(Node node) {
  RTDB_PERF_COUNT(kWfgNodesRemoved);
  const std::uint32_t n = slot_of(node);
  if (n == kNoSlot) return;
  Slot& s = slots_[n];
  while (!s.out.empty()) {
    const std::uint32_t t = s.out.back().to;
    drop_pair(n, t);
    release_if_isolated(t);
  }
  while (!s.in.empty()) {
    const std::uint32_t w = s.in.back();
    drop_pair(w, n);
    release_if_isolated(w);
  }
  release_if_isolated(n);
}

template <class NodeT>
void WaitForGraph<NodeT>::clear() {
  index_.clear();
  slots_.clear();
  seen_epoch_.clear();
  free_head_ = kNoSlot;
  active_ = 0;
  edges_ = 0;
}

template <class NodeT>
std::vector<NodeT> WaitForGraph<NodeT>::waits_for(Node waiter) const {
  const std::uint32_t w = slot_of(waiter);
  if (w == kNoSlot) return {};
  std::vector<Node> result;
  result.reserve(slots_[w].out.size());
  for (const OutEdge& e : slots_[w].out) result.push_back(slots_[e.to].node);
  return result;
}

template <class NodeT>
bool WaitForGraph<NodeT>::has_cycle() const {
  // Kahn-style: repeatedly strip nodes with zero in-degree; any active slot
  // never stripped lies on a cycle.
  std::vector<std::size_t> indeg(slots_.size(), 0);
  std::vector<std::uint32_t> ready;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].active) continue;
    indeg[i] = slots_[i].in.size();
    if (indeg[i] == 0) ready.push_back(i);
  }
  std::size_t removed = 0;
  while (!ready.empty()) {
    const std::uint32_t n = ready.back();
    ready.pop_back();
    ++removed;
    for (const OutEdge& e : slots_[n].out) {
      if (--indeg[e.to] == 0) ready.push_back(e.to);
    }
  }
  return removed != active_;
}

template class WaitForGraph<TxnId>;
template class WaitForGraph<TxnOrClientNode>;

}  // namespace rtdb::lock
