/// \file lock_model_test.cpp
/// Model-based randomized testing of the lock managers: thousands of
/// random acquire/release/cancel sequences, checked after every step
/// against first-principles invariants (and, for LRU, a tiny reference
/// model). Seeds are fixed — failures replay deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "lock/global_lock_table.hpp"
#include "lock/local_lock_manager.hpp"
#include "sim/rng.hpp"

namespace rtdb::lock {
namespace {

// ---------------------------------------------------------------------------
// LocalLockManager under random traffic
// ---------------------------------------------------------------------------

class LocalLockModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalLockModel, InvariantsHoldUnderRandomTraffic) {
  sim::Rng rng(GetParam());
  LocalLockManager llm;

  constexpr TxnId::Rep kTxns = 12;
  constexpr ObjectId::Rep kObjects = 6;
  std::set<TxnId> live;

  const auto check_invariants = [&] {
    for (ObjectId obj{0}; obj < ObjectId{kObjects}; ++obj) {
      const auto holders = llm.holders(obj);
      // Invariant 1: no two holders with incompatible modes.
      for (std::size_t i = 0; i < holders.size(); ++i) {
        for (std::size_t j = i + 1; j < holders.size(); ++j) {
          EXPECT_TRUE(compatible(llm.held_mode(holders[i], obj),
                                 llm.held_mode(holders[j], obj)))
              << "obj " << obj << ": " << holders[i] << " vs " << holders[j];
        }
      }
      // Invariant 2: a non-empty wait queue implies the front waiter
      // cannot be granted (otherwise the pump failed to run).
      if (llm.waiting_count(obj) > 0) {
        EXPECT_FALSE(holders.empty())
            << "waiters with no holders on obj " << obj;
      }
    }
    // Invariant 3: the wait-for graph never contains a cycle (admission
    // control must refuse them).
    EXPECT_FALSE(llm.wait_graph().has_cycle());
  };

  for (int step = 0; step < 3000; ++step) {
    const TxnId txn{1 + rng.uniform_int(0, kTxns - 1)};
    const ObjectId obj{
        static_cast<ObjectId::Rep>(rng.uniform_int(0, kObjects - 1))};
    const double dice = rng.uniform01();
    if (dice < 0.55) {
      const LockMode mode = rng.bernoulli(0.3) ? LockMode::kExclusive
                                               : LockMode::kShared;
      llm.acquire(txn, obj, mode, sim::SimTime{rng.uniform(0, 1000)},
                  [](bool) {});
      live.insert(txn);
    } else if (dice < 0.8) {
      llm.release(txn, obj);
    } else if (dice < 0.95) {
      llm.release_all(txn);
      live.erase(txn);
    } else {
      llm.cancel_waits(txn);
    }
    if (step % 64 == 0) check_invariants();
  }
  check_invariants();

  // Drain: releasing everything must leave the manager fully quiescent.
  for (TxnId t{1}; t <= TxnId{kTxns}; ++t) llm.release_all(t);
  EXPECT_TRUE(llm.idle());
  EXPECT_EQ(llm.wait_graph().edge_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalLockModel,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Callbacks never get lost: every queued request is eventually granted
// once the blockers release.
// ---------------------------------------------------------------------------

TEST(LocalLockLiveness, EveryWaiterResolvesExactlyOnce) {
  // Each txn takes exactly one lock, so no cycles can form: once holders
  // release, every queued waiter must be granted — unless the releasing
  // txn was itself the waiter (its wait is cancelled by release_all).
  for (std::uint64_t seed : {7ull, 99ull, 12345ull}) {
    sim::Rng rng(seed);
    LocalLockManager llm;
    int granted = 0;
    int resolved_not_granted = 0;
    std::map<TxnId, bool> queued;  // txn -> resolved?
    for (TxnId txn{1}; txn <= TxnId{40}; ++txn) {
      const ObjectId obj{static_cast<ObjectId::Rep>(rng.uniform_int(0, 3))};
      const LockMode mode = rng.bernoulli(0.5) ? LockMode::kExclusive
                                               : LockMode::kShared;
      const auto out = llm.acquire(
          txn, obj, mode, sim::SimTime{rng.uniform(0, 100)},
          [&, txn](bool ok) {
            (ok ? granted : resolved_not_granted) += 1;
            queued[txn] = true;
          });
      if (out == LocalLockManager::Outcome::kQueued) queued.emplace(txn, false);
    }
    // Release every transaction that holds something until quiescent;
    // waiters that get granted along the way are then released too.
    for (int round = 0; round < 50 && !llm.idle(); ++round) {
      for (TxnId t{1}; t <= TxnId{40}; ++t) {
        if (!llm.objects_held(t).empty()) llm.release_all(t);
      }
      // Anything still only-waiting by the last round gets cancelled.
      if (round == 48) {
        for (TxnId t{1}; t <= TxnId{40}; ++t) llm.cancel_waits(t);
      }
    }
    EXPECT_TRUE(llm.idle()) << "seed " << seed;
    // Every queued waiter either resolved via its callback or was
    // explicitly cancelled (callback never fires on cancel).
    EXPECT_GT(granted, 0) << "seed " << seed;
    EXPECT_EQ(resolved_not_granted, 0) << "seed " << seed;  // no cycles here
  }
}

// ---------------------------------------------------------------------------
// GlobalLockTable under random traffic
// ---------------------------------------------------------------------------

class GlobalLockModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlobalLockModel, HolderBookkeepingMatchesReferenceModel) {
  sim::Rng rng(GetParam());
  GlobalLockTable glt;
  // Reference model: the straightforward map everyone can agree on.
  std::map<ObjectId, std::map<ClientId, LockMode>> model;

  constexpr int kClients = 8;
  constexpr ObjectId::Rep kObjects = 5;

  for (int step = 0; step < 4000; ++step) {
    const ClientId site{
        static_cast<ClientId::Rep>(1 + rng.uniform_int(0, kClients - 1))};
    const ObjectId obj{
        static_cast<ObjectId::Rep>(rng.uniform_int(0, kObjects - 1))};
    const double dice = rng.uniform01();
    if (dice < 0.5) {
      const LockMode mode = rng.bernoulli(0.3) ? LockMode::kExclusive
                                               : LockMode::kShared;
      glt.add_holder(obj, site, mode);
      auto& held = model[obj][site];
      held = stronger(held, mode);
    } else if (dice < 0.8) {
      const LockMode was = glt.remove_holder(obj, site);
      LockMode expect = LockMode::kNone;
      auto it = model.find(obj);
      if (it != model.end()) {
        auto st = it->second.find(site);
        if (st != it->second.end()) {
          expect = st->second;
          it->second.erase(st);
        }
      }
      EXPECT_EQ(was, expect);
    } else {
      const bool did = glt.downgrade_holder(obj, site);
      bool expect = false;
      auto it = model.find(obj);
      if (it != model.end()) {
        auto st = it->second.find(site);
        if (st != it->second.end() && st->second == LockMode::kExclusive) {
          st->second = LockMode::kShared;
          expect = true;
        }
      }
      EXPECT_EQ(did, expect);
    }

    // Cross-check queries against the model.
    if (step % 32 == 0) {
      for (ObjectId o{0}; o < ObjectId{kObjects}; ++o) {
        for (ClientId s{1}; s <= ClientId{kClients}; ++s) {
          LockMode expect = LockMode::kNone;
          auto it = model.find(o);
          if (it != model.end()) {
            auto st = it->second.find(s);
            if (st != it->second.end()) expect = st->second;
          }
          ASSERT_EQ(glt.holder_mode(o, s), expect)
              << "obj " << o << " site " << s << " step " << step;
        }
        // can_grant(EL) iff no *other* holder at all.
        for (ClientId s{1}; s <= ClientId{kClients}; ++s) {
          bool other = false;
          auto it = model.find(o);
          if (it != model.end()) {
            for (const auto& [hs, hm] : it->second) {
              (void)hm;
              if (hs != s) other = true;
            }
          }
          ASSERT_EQ(glt.can_grant(o, s, LockMode::kExclusive), !other);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalLockModel,
                         ::testing::Values(11, 22, 33, 44));

TEST(GlobalLockModel, ConflictCountMatchesBruteForce) {
  sim::Rng rng(77);
  GlobalLockTable glt;
  for (int i = 0; i < 60; ++i) {
    glt.add_holder(ObjectId{static_cast<ObjectId::Rep>(rng.uniform_int(0, 9))},
                   ClientId{static_cast<ClientId::Rep>(
                       1 + rng.uniform_int(0, 5))},
                   rng.bernoulli(0.4) ? LockMode::kExclusive
                                      : LockMode::kShared);
  }
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<ObjectId, LockMode>> needs;
    const auto n = 1 + rng.uniform_int(0, 7);
    for (std::uint64_t k = 0; k < n; ++k) {
      needs.emplace_back(
          ObjectId{static_cast<ObjectId::Rep>(rng.uniform_int(0, 9))},
                         rng.bernoulli(0.4) ? LockMode::kExclusive
                                            : LockMode::kShared);
    }
    const ClientId site{
        static_cast<ClientId::Rep>(1 + rng.uniform_int(0, 5))};
    std::size_t brute = 0;
    for (const auto& [obj, mode] : needs) {
      bool conflict = false;
      glt.for_each_conflicting_holder(obj, mode, site,
                                      [&](ClientId) { conflict = true; });
      if (conflict) ++brute;
    }
    EXPECT_EQ(glt.conflict_count_at(needs, site), brute);
  }
}

}  // namespace
}  // namespace rtdb::lock
