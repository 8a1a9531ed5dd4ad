/// \file local_exec_test.cpp
/// The one local execution path (core/local_exec.hpp) driven by a bare
/// host: no System, just a simulator, a telemetry sink and a lock table.
/// Pins the executor-slot cap, ED dispatch order, the skip of stale ready
/// entries, all-or-refuse lock acquisition and the deadlock-victim restart
/// rule.

#include "core/local_exec.hpp"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

namespace rtdb::core {
namespace {

using lock::LockMode;
using txn::TxnState;

constexpr SiteId kSite{3};
const ObjectId kA{10};
const ObjectId kB{11};

using FakeLive = LocalTxn;

/// The smallest host: transactions in an ordered map, hooks that record.
struct Host {
  explicit Host(std::size_t slots, RestartRule rule = {2, sim::msec(50)})
      : exec(*this, sim, tel, kSite, slots, &locks, rule) {
    obs::TelemetryConfig cfg;
    cfg.events = true;
    tel.configure(cfg);
  }

  FakeLive& add(std::uint64_t id, double deadline_s, double length_s = 1.0,
                std::vector<std::pair<ObjectId, LockMode>> needs = {}) {
    FakeLive& l = live[TxnId{id}];
    l.t.id = TxnId{id};
    l.t.deadline = sim::SimTime{} + sim::seconds(deadline_s);
    l.t.length = sim::seconds(length_s);
    l.needs = std::move(needs);
    return l;
  }

  // --- LocalExecutor hooks ---
  FakeLive* find(TxnId id) {
    auto it = live.find(id);
    return it == live.end() ? nullptr : &it->second;
  }
  void on_executed(FakeLive& l) {
    max_busy = std::max(max_busy, exec.busy());
    executed.push_back(l.t.id);
    l.t.state = TxnState::kCommitted;
    exec.release();
    exec.pump();
  }
  void on_locks_held(FakeLive& l) { locked.push_back(l.t.id); }
  void count_refusal() { ++refusals; }
  void reset_attempt(FakeLive& l) { locks.release_all(l.t.id); }
  void abort_victim(FakeLive& l) {
    const TxnId id = l.t.id;
    aborted.push_back(id);
    locks.release_all(id);
    live.erase(id);
  }

  /// (kind, txn) of every recorded event, in order.
  [[nodiscard]] std::vector<std::pair<obs::EventKind, TxnId>> events() const {
    std::vector<std::pair<obs::EventKind, TxnId>> out;
    for (const obs::Event& e : tel.events()) {
      EXPECT_EQ(e.site, kSite);
      out.emplace_back(e.kind, e.txn);
    }
    return out;
  }

  sim::Simulator sim;
  obs::Telemetry tel;
  lock::LocalLockManager locks;
  std::map<TxnId, FakeLive> live;
  LocalExecutor<Host> exec;
  std::vector<TxnId> executed;
  std::vector<TxnId> locked;
  std::vector<TxnId> aborted;
  std::size_t refusals = 0;
  std::size_t max_busy = 0;
};

TEST(LocalExecutor, DispatchesInDeadlineOrderWithinTheSlotCap) {
  Host h(/*slots=*/2);
  // Ready in id order; deadlines 40, 10, 30, 20 s.
  const std::pair<std::uint64_t, double> ready[] = {
      {1, 40.0}, {2, 10.0}, {3, 30.0}, {4, 20.0}};
  for (const auto& [id, deadline] : ready) {
    h.exec.make_ready(h.add(id, deadline).t);
  }
  // The first two took the free slots; the rest wait, ED-ordered.
  EXPECT_EQ(h.exec.busy(), 2u);
  EXPECT_EQ(h.exec.queued(), 2u);
  EXPECT_EQ(h.live[TxnId{1}].t.state, TxnState::kExecuting);
  EXPECT_EQ(h.live[TxnId{3}].t.state, TxnState::kReady);
  h.exec.validate_invariants();

  h.sim.run();
  EXPECT_EQ(h.max_busy, 2u);
  EXPECT_EQ(h.executed,
            (std::vector<TxnId>{TxnId{1}, TxnId{2}, TxnId{4}, TxnId{3}}));
  EXPECT_EQ(h.exec.busy(), 0u);
  EXPECT_EQ(h.sim.now(), sim::SimTime{} + sim::seconds(2));

  using K = obs::EventKind;
  const std::vector<std::pair<K, TxnId>> want = {
      {K::kTxnReady, TxnId{1}}, {K::kTxnExec, TxnId{1}},
      {K::kTxnReady, TxnId{2}}, {K::kTxnExec, TxnId{2}},
      {K::kTxnReady, TxnId{3}}, {K::kTxnReady, TxnId{4}},
      {K::kTxnExec, TxnId{4}},  {K::kTxnExec, TxnId{3}}};
  EXPECT_EQ(h.events(), want);
}

TEST(LocalExecutor, SkipsReadyEntriesWhoseTransactionResolved) {
  Host h(/*slots=*/1);
  h.exec.make_ready(h.add(1, 50).t);  // takes the only slot
  h.exec.make_ready(h.add(2, 10).t);
  h.exec.make_ready(h.add(3, 11).t);
  h.exec.make_ready(h.add(4, 12).t);
  // While they wait, 2 misses its deadline and 3 is torn down entirely.
  h.live[TxnId{2}].t.state = TxnState::kMissed;
  h.live.erase(TxnId{3});

  h.sim.run();
  EXPECT_EQ(h.executed, (std::vector<TxnId>{TxnId{1}, TxnId{4}}));
  EXPECT_EQ(h.exec.queued(), 0u);
  EXPECT_EQ(h.live[TxnId{2}].t.state, TxnState::kMissed);
}

TEST(LocalExecutor, ExecutionEndOfAResolvedTransactionIsIgnored) {
  Host h(/*slots=*/1);
  h.exec.make_ready(h.add(1, 50).t);
  // Missed while executing: the owner frees the slot itself.
  h.live[TxnId{1}].t.state = TxnState::kMissed;
  h.exec.release();
  h.sim.run();
  EXPECT_TRUE(h.executed.empty());
  EXPECT_EQ(h.exec.busy(), 0u);
}

TEST(LocalExecutorDeathTest, ReleasingAnUnheldSlotIsAnAccountingBug) {
  Host h(/*slots=*/2);
  EXPECT_DEATH(h.exec.release(), "frees an executor slot that none holds");
}

TEST(RestartRule, GrantsBelowTheBudgetWithLinearBackoff) {
  const RestartRule rule{3, sim::msec(50)};
  const sim::SimTime now = sim::SimTime{} + sim::seconds(1);
  const sim::SimTime deadline = now + sim::seconds(10);
  // The k-th restart waits k backoffs.
  EXPECT_EQ(rule.next(0, now, deadline), rule.backoff);
  EXPECT_EQ(rule.next(1, now, deadline), rule.backoff * 2.0);
  EXPECT_EQ(rule.next(2, now, deadline), rule.backoff * 3.0);
}

TEST(RestartRule, RefusesAtTheBudget) {
  const RestartRule rule{3, sim::msec(50)};
  const sim::SimTime now = sim::SimTime{} + sim::seconds(1);
  EXPECT_FALSE(rule.next(3, now, now + sim::seconds(10)).has_value());
  EXPECT_FALSE(RestartRule{}.next(0, now, now + sim::seconds(10)).has_value());
}

TEST(RestartRule, RefusesWhenTheBackoffReachesTheDeadline) {
  const RestartRule rule{3, sim::msec(50)};
  const sim::SimTime now = sim::SimTime{} + sim::seconds(1);
  // The second restart waits 100 ms: it needs more than 100 ms of slack.
  EXPECT_FALSE(rule.next(1, now, now + rule.backoff * 2.0).has_value());
  EXPECT_FALSE(rule.next(1, now, now + sim::msec(60)).has_value());
  EXPECT_EQ(rule.next(1, now, now + sim::msec(101)), rule.backoff * 2.0);
}

TEST(LocalExecutor, AcquiresEveryNeedThenReportsOnce) {
  Host h(/*slots=*/1);
  h.add(1, 10, 1, {{kA, LockMode::kShared}, {kB, LockMode::kExclusive}});
  h.exec.acquire_locks(TxnId{1});
  EXPECT_EQ(h.locked, std::vector<TxnId>{TxnId{1}});
  EXPECT_EQ(h.live[TxnId{1}].t.state, TxnState::kAcquiring);
  EXPECT_EQ(h.locks.held_mode(TxnId{1}, kB), LockMode::kExclusive);
}

TEST(LocalExecutor, RefusedVictimRestartsAfterBackoffAndGetsItsLocks) {
  Host h(/*slots=*/1);
  h.add(1, 10, 1, {{kA, LockMode::kExclusive}, {kB, LockMode::kExclusive}});
  h.add(2, 20, 1, {{kB, LockMode::kExclusive}, {kA, LockMode::kExclusive}});
  // 2 already holds B; 1 takes A and queues behind 2 for B.
  ASSERT_EQ(h.locks.acquire(TxnId{2}, kB, LockMode::kExclusive,
                            h.live[TxnId{2}].t.deadline, [](bool) {}),
            lock::LocalLockManager::Outcome::kGranted);
  h.exec.acquire_locks(TxnId{1});
  EXPECT_TRUE(h.locked.empty());

  // 2 asking for A would close the cycle: refused at admission. The victim
  // restarts, and its released B completes 1's acquisition.
  h.exec.acquire_locks(TxnId{2});
  EXPECT_EQ(h.refusals, 1u);
  EXPECT_EQ(h.live[TxnId{2}].restarts, 1u);
  EXPECT_EQ(h.live[TxnId{2}].epoch, 1u);
  EXPECT_EQ(h.locked, std::vector<TxnId>{TxnId{1}});
  EXPECT_EQ(h.locks.held_mode(TxnId{2}, kB), LockMode::kNone);
  EXPECT_EQ(h.events().back(),
            std::pair(obs::EventKind::kTxnRestart, TxnId{2}));

  // After the 50-ms backoff it queues behind 1 and is granted once 1 is
  // done with its locks.
  h.sim.run();
  EXPECT_EQ(h.sim.now(), sim::SimTime{} + sim::msec(50));
  EXPECT_EQ(h.locked, std::vector<TxnId>{TxnId{1}});
  h.locks.release_all(TxnId{1});
  EXPECT_EQ(h.locked, (std::vector<TxnId>{TxnId{1}, TxnId{2}}));
  EXPECT_TRUE(h.aborted.empty());
}

TEST(LocalExecutor, VictimAbortsAtTheBudgetOrWithoutSlack) {
  Host h(/*slots=*/1, RestartRule{1, sim::msec(50)});
  h.add(1, 10);
  h.exec.restart_victim(TxnId{1});  // within budget
  EXPECT_EQ(h.live[TxnId{1}].restarts, 1u);
  h.exec.restart_victim(TxnId{1});  // budget spent
  EXPECT_EQ(h.aborted, std::vector<TxnId>{TxnId{1}});

  h.add(2, 0.04);  // the 50-ms backoff outlasts the deadline
  h.exec.restart_victim(TxnId{2});
  EXPECT_EQ(h.aborted, (std::vector<TxnId>{TxnId{1}, TxnId{2}}));
  // The pending resume of 1's granted restart finds nothing to run.
  h.sim.run();
  EXPECT_TRUE(h.locked.empty());
}

TEST(SortedKeys, AscendingWhateverTheHashOrder) {
  std::unordered_map<TxnId, int> map;
  for (std::uint64_t id : {42u, 7u, 19u, 3u, 88u}) {
    map.emplace(TxnId{id}, static_cast<int>(id % 2));
  }
  EXPECT_EQ(sorted_keys(map), (std::vector<TxnId>{TxnId{3}, TxnId{7},
                                                  TxnId{19}, TxnId{42},
                                                  TxnId{88}}));
  EXPECT_EQ(sorted_keys(map, [](int odd) { return odd == 1; }),
            (std::vector<TxnId>{TxnId{3}, TxnId{7}, TxnId{19}}));
}

}  // namespace
}  // namespace rtdb::core
