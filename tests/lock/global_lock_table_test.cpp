#include "lock/global_lock_table.hpp"

#include <gtest/gtest.h>

namespace rtdb::lock {
namespace {

TEST(GlobalLocks, EmptyObjectGrantsAnything) {
  GlobalLockTable glt;
  EXPECT_TRUE(glt.can_grant(ObjectId{1}, ClientId{2}, LockMode::kExclusive));
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kNone);
  EXPECT_EQ(glt.location_of(ObjectId{1}), kServerSite);
}

TEST(GlobalLocks, AddHolderTracksMode) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kShared);
  EXPECT_EQ(glt.holders(ObjectId{1}).size(), 1u);
  EXPECT_EQ(glt.lock_count(ClientId{2}), 1u);
}

TEST(GlobalLocks, UpgradeKeepsStrongest) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kExclusive);
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);  // no downgrade via add
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kExclusive);
  EXPECT_EQ(glt.holders(ObjectId{1}).size(), 1u);
}

TEST(GlobalLocks, SharedHoldersAllowMoreShared) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{1}, ClientId{3}, LockMode::kShared);
  EXPECT_TRUE(glt.can_grant(ObjectId{1}, ClientId{4}, LockMode::kShared));
  EXPECT_FALSE(glt.can_grant(ObjectId{1}, ClientId{4}, LockMode::kExclusive));
}

TEST(GlobalLocks, ExclusiveHolderBlocksOthers) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_FALSE(glt.can_grant(ObjectId{1}, ClientId{3}, LockMode::kShared));
  // The holder itself is never its own conflict.
  EXPECT_TRUE(glt.can_grant(ObjectId{1}, ClientId{2}, LockMode::kExclusive));
}

TEST(GlobalLocks, ConflictingHoldersExcludesRequester) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{1}, ClientId{3}, LockMode::kShared);
  std::vector<ClientId> conflicts;
  glt.for_each_conflicting_holder(
      ObjectId{1}, LockMode::kExclusive, ClientId{2},
      [&](ClientId c) { conflicts.push_back(c); });
  EXPECT_EQ(conflicts, (std::vector<ClientId>{ClientId{3}}));
}

TEST(GlobalLocks, RemoveHolderReturnsMode) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_EQ(glt.remove_holder(ObjectId{1}, ClientId{2}), LockMode::kExclusive);
  EXPECT_EQ(glt.remove_holder(ObjectId{1}, ClientId{2}), LockMode::kNone);
  EXPECT_EQ(glt.lock_count(ClientId{2}), 0u);
  EXPECT_EQ(glt.tracked_objects(), 0u);  // quiescent state dropped
}

TEST(GlobalLocks, DowngradeExclusiveToShared) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_TRUE(glt.downgrade_holder(ObjectId{1}, ClientId{2}));
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kShared);
  EXPECT_TRUE(glt.can_grant(ObjectId{1}, ClientId{3}, LockMode::kShared));
  // Downgrading a SL or a non-holder fails.
  EXPECT_FALSE(glt.downgrade_holder(ObjectId{1}, ClientId{2}));
  EXPECT_FALSE(glt.downgrade_holder(ObjectId{1}, ClientId{9}));
}

TEST(GlobalLocks, ObjectsHeldBySite) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{5}, ClientId{2}, LockMode::kExclusive);
  glt.add_holder(ObjectId{9}, ClientId{3}, LockMode::kShared);
  auto objs = glt.objects_held_by(ClientId{2});
  std::sort(objs.begin(), objs.end());
  EXPECT_EQ(objs, (std::vector<ObjectId>{ObjectId{1}, ObjectId{5}}));
  EXPECT_TRUE(glt.objects_held_by(ClientId{99}).empty());
}

TEST(GlobalLocks, RecallBookkeeping) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_FALSE(glt.recall_pending(ObjectId{1}, ClientId{2}));
  glt.mark_recall_sent(ObjectId{1}, ClientId{2});
  EXPECT_TRUE(glt.recall_pending(ObjectId{1}, ClientId{2}));
  EXPECT_EQ(glt.recalls_outstanding(ObjectId{1}), 1u);
  glt.clear_recall(ObjectId{1}, ClientId{2});
  EXPECT_FALSE(glt.recall_pending(ObjectId{1}, ClientId{2}));
  EXPECT_EQ(glt.recalls_outstanding(ObjectId{1}), 0u);
}

TEST(GlobalLocks, CirculationBlocksGrantsAndSetsLocation) {
  GlobalLockTable glt;
  glt.set_circulating(ObjectId{7}, /*last_client=*/ClientId{5});
  EXPECT_TRUE(glt.is_circulating(ObjectId{7}));
  EXPECT_FALSE(glt.can_grant(ObjectId{7}, ClientId{2}, LockMode::kShared));
  EXPECT_EQ(glt.location_of(ObjectId{7}), SiteId{5});
  glt.clear_circulating(ObjectId{7});
  EXPECT_FALSE(glt.is_circulating(ObjectId{7}));
  EXPECT_TRUE(glt.can_grant(ObjectId{7}, ClientId{2}, LockMode::kShared));
  EXPECT_EQ(glt.tracked_objects(), 0u);
}

TEST(GlobalLocks, LocationPrefersExclusiveHolder) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{1}, ClientId{3}, LockMode::kExclusive);
  EXPECT_EQ(glt.location_of(ObjectId{1}), SiteId{3});
}

TEST(GlobalLocks, LocationFallsBackToSharedHolderThenServer) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{4}, LockMode::kShared);
  EXPECT_EQ(glt.location_of(ObjectId{1}), SiteId{4});
  glt.remove_holder(ObjectId{1}, ClientId{4});
  EXPECT_EQ(glt.location_of(ObjectId{1}), kServerSite);
}

TEST(GlobalLocks, ConflictCountAtSite) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);  // conflicts for anyone else
  glt.add_holder(ObjectId{5}, ClientId{3}, LockMode::kShared);     // conflicts for EL needs
  std::vector<std::pair<ObjectId, LockMode>> needs{
      {ObjectId{1}, LockMode::kShared},     // blocked by client 2's EL
      {ObjectId{5}, LockMode::kExclusive},  // blocked by client 3's SL
      {ObjectId{9}, LockMode::kShared},     // free
  };
  EXPECT_EQ(glt.conflict_count_at(needs, ClientId{4}), 2u);
  // Client 2's own EL does not conflict with itself.
  EXPECT_EQ(glt.conflict_count_at(needs, ClientId{2}), 1u);
  EXPECT_EQ(glt.conflict_count_at(needs, ClientId{3}), 1u);
}

TEST(GlobalLocks, QueueIsPerObject) {
  GlobalLockTable glt;
  ForwardEntry e;
  e.client = ClientId{2};
  e.txn = TxnId{7};
  e.mode = LockMode::kShared;
  e.priority = sim::SimTime{1.0};
  e.expires = sim::SimTime{99.0};
  glt.queue(ObjectId{1}).add(e);
  EXPECT_EQ(glt.queue(ObjectId{1}).size(), 1u);
  EXPECT_TRUE(glt.queue(ObjectId{2}).empty());
  const ForwardList* q = glt.queue_if_any(ObjectId{1});
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->size(), 1u);
}

TEST(GlobalLocks, CompactDropsQuiescentOnly) {
  GlobalLockTable glt;
  glt.queue(ObjectId{1});  // touched but empty
  glt.add_holder(ObjectId{2}, ClientId{3}, LockMode::kShared);
  glt.compact();
  EXPECT_EQ(glt.tracked_objects(), 1u);
  EXPECT_EQ(glt.holder_mode(ObjectId{2}, ClientId{3}), LockMode::kShared);
}

TEST(GlobalLocks, ExpiredDroppedSurvivesStateRetirement) {
  // total_expired_dropped() must stay cumulative when a quiescent object
  // state is retired — both via compact() and via the drop_if_quiescent
  // path that runs after the last holder/recall/queue entry clears.
  GlobalLockTable glt;
  ForwardEntry e;
  e.client = ClientId{4};
  e.txn = TxnId{7};
  e.mode = LockMode::kExclusive;
  e.priority = sim::SimTime{1.0};
  e.expires = sim::SimTime{5.0};
  glt.queue(ObjectId{1}).add(e);
  EXPECT_FALSE(glt.queue(ObjectId{1}).pop_next(sim::SimTime{6.0}).has_value());
  EXPECT_EQ(glt.total_expired_dropped(), 1u);

  // The state is now quiescent; compact() retires it but keeps the count.
  glt.compact();
  EXPECT_EQ(glt.tracked_objects(), 0u);
  EXPECT_EQ(glt.total_expired_dropped(), 1u);

  // A fresh round on the same object accumulates on top.
  e.txn = TxnId{8};
  glt.queue(ObjectId{1}).add(e);
  EXPECT_FALSE(glt.queue(ObjectId{1}).pop_next(sim::SimTime{6.0}).has_value());
  EXPECT_EQ(glt.total_expired_dropped(), 2u);

  // Retirement through the release path (remove_holder -> quiescent) also
  // folds the live queue's count into the retired total.
  glt.add_holder(ObjectId{1}, ClientId{4}, LockMode::kShared);
  glt.remove_holder(ObjectId{1}, ClientId{4});
  EXPECT_EQ(glt.tracked_objects(), 0u);
  EXPECT_EQ(glt.total_expired_dropped(), 2u);
}

TEST(GlobalLocks, SnapshotSortsHoldsRegardlessOfGrantOrder) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{5}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{3}, ClientId{1}, LockMode::kShared);
  glt.add_holder(ObjectId{5}, ClientId{1}, LockMode::kShared);
  glt.add_holder(ObjectId{5}, ClientId{2}, LockMode::kExclusive);  // upgrade
  glt.remove_holder(ObjectId{5}, ClientId{1});
  glt.add_holder(ObjectId{5}, ClientId{1}, LockMode::kShared);

  const auto holds = glt.snapshot().holds;
  ASSERT_EQ(holds.size(), 3u);
  EXPECT_EQ(holds[0].object, ObjectId{3});
  EXPECT_EQ(holds[0].client, ClientId{1});
  EXPECT_EQ(holds[1].object, ObjectId{5});
  EXPECT_EQ(holds[1].client, ClientId{1});
  EXPECT_EQ(holds[1].mode, LockMode::kShared);
  EXPECT_EQ(holds[2].object, ObjectId{5});
  EXPECT_EQ(holds[2].client, ClientId{2});
  EXPECT_EQ(holds[2].mode, LockMode::kExclusive);
}

TEST(GlobalLocks, SnapshotReAddUpgradesInsteadOfDuplicating) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{7}, ClientId{1}, LockMode::kShared);
  glt.add_holder(ObjectId{7}, ClientId{1}, LockMode::kExclusive);
  const auto holds = glt.snapshot().holds;
  ASSERT_EQ(holds.size(), 1u);
  EXPECT_EQ(holds[0].mode, LockMode::kExclusive);
}

TEST(GlobalLocks, SnapshotListsCirculationInObjectOrder) {
  GlobalLockTable glt;
  glt.set_circulating(ObjectId{9}, ClientId{4});
  glt.set_circulating(ObjectId{2}, ClientId{3});
  auto circ = glt.snapshot().circulating;
  ASSERT_EQ(circ.size(), 2u);
  EXPECT_EQ(circ[0].object, ObjectId{2});
  EXPECT_EQ(circ[0].last_client, ClientId{3});
  EXPECT_EQ(circ[1].object, ObjectId{9});
  EXPECT_EQ(circ[1].last_client, ClientId{4});

  glt.clear_circulating(ObjectId{9});
  circ = glt.snapshot().circulating;
  ASSERT_EQ(circ.size(), 1u);
  EXPECT_EQ(circ[0].object, ObjectId{2});
}

TEST(GlobalLocks, RestoreRebuildsTheSnapshotWithoutCountingMutations) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{4}, ClientId{2}, LockMode::kExclusive);
  glt.add_holder(ObjectId{1}, ClientId{3}, LockMode::kShared);
  glt.set_circulating(ObjectId{6}, ClientId{1});
  const auto snap = glt.snapshot();
  glt.clear();
  glt.restore(snap);

  EXPECT_EQ(glt.mutations(), 3u);
  EXPECT_EQ(glt.holder_mode(ObjectId{4}, ClientId{2}), LockMode::kExclusive);
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{3}), LockMode::kShared);
  EXPECT_TRUE(glt.is_circulating(ObjectId{6}));
  EXPECT_EQ(glt.location_of(ObjectId{6}), SiteId{1});
  glt.validate_invariants();
}

TEST(GlobalLocks, MutationCountCoversNoOpsAndSurvivesClear) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{7}, ClientId{1}, LockMode::kExclusive);
  glt.downgrade_holder(ObjectId{7}, ClientId{1});
  glt.remove_holder(ObjectId{7}, ClientId{1});
  // Calls that change nothing still count: the stream has one entry per call.
  glt.remove_holder(ObjectId{1}, ClientId{1});
  glt.clear_circulating(ObjectId{1});
  EXPECT_EQ(glt.mutations(), 5u);
  EXPECT_TRUE(glt.snapshot().holds.empty());
  EXPECT_TRUE(glt.snapshot().circulating.empty());

  glt.clear();
  EXPECT_EQ(glt.mutations(), 5u);
  // Queries and recall bookkeeping are not holder/circulation mutations.
  glt.mark_recall_sent(ObjectId{2}, ClientId{1});
  glt.clear_recall(ObjectId{2}, ClientId{1});
  (void)glt.holder_mode(ObjectId{2}, ClientId{1});
  EXPECT_EQ(glt.mutations(), 5u);
}

}  // namespace
}  // namespace rtdb::lock
