/// \file protocol_scenarios_test.cpp
/// Hand-built protocol micro-scenarios: a quiet cluster, transactions
/// injected one by one, and exact assertions on the callback / downgrade /
/// upgrade / forward-list behaviours the paper describes. Uses the
/// manual-driving API (ClientServerSystem::bootstrap + simulator()).

#include <gtest/gtest.h>

#include "core/client_server.hpp"

namespace rtdb::core {
namespace {

using lock::LockMode;

/// A quiet two-or-more-client cluster: no background arrivals, cold start.
SystemConfig quiet_cfg(std::size_t clients, bool ls_on) {
  SystemConfig cfg;
  cfg.num_clients = clients;
  cfg.warm_start = false;  // scenarios control cache contents themselves
  cfg.workload.db_size = 100;
  cfg.workload.region_size = 5;
  cfg.ls = ls_on ? LsOptions::all() : LsOptions::none();
  // Keep H1/H2/decomposition out of the way unless a scenario wants them:
  // shipping decisions would move our hand-placed transactions around.
  if (ls_on) {
    cfg.ls.enable_h1 = false;
    cfg.ls.enable_h2 = false;
    cfg.ls.enable_decomposition = false;
  }
  return cfg;
}

txn::Transaction make_txn(TxnId id, SiteId origin, sim::SimTime now,
                          std::vector<txn::Operation> ops,
                          double length = 1.0, double slack = 100.0) {
  txn::Transaction t;
  t.id = id;
  t.origin = origin;
  t.arrival = now;
  t.length = sim::seconds(length);
  t.deadline = now + sim::seconds(length + slack);
  t.ops = std::move(ops);
  return t;
}

TEST(ProtocolScenario, FirstAccessFetchesFromServerAndCaches) {
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(
      make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}, {ObjectId{8}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  // Both objects were shipped and are now cached under SL.
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kObjectShip),
            2u);
  EXPECT_TRUE(sys.client(ClientId{1}).cache().contains(ObjectId{7}));
  EXPECT_EQ(sys.client(ClientId{1}).cached_server_mode(ObjectId{7}), LockMode::kShared);
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}), LockMode::kShared);
}

TEST(ProtocolScenario, SecondAccessIsAllLocal) {
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  const auto ships_before =
      sys.network().stats().messages(net::MessageKind::kObjectShip);
  const auto reqs_before =
      sys.network().stats().messages(net::MessageKind::kObjectRequest);
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1002}, SiteId{1}, sim::SimTime{30}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{60});
  // Inter-transaction caching: no further protocol traffic for object 7.
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kObjectShip),
            ships_before);
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kObjectRequest),
            reqs_before);
}

TEST(ProtocolScenario, SharedReadersCoexistAcrossClients) {
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  sys.client(ClientId{2}).on_new_transaction(make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{30}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{60});
  // Both clients end up holding SL; no recall was needed.
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}), LockMode::kShared);
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{2}), LockMode::kShared);
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kObjectRecall),
            0u);
}

TEST(ProtocolScenario, WriterRecallsReaderEntirely) {
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  sys.client(ClientId{2}).on_new_transaction(make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{30}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{80});
  // The EL demanded a full release from client 1.
  EXPECT_GE(sys.network().stats().messages(net::MessageKind::kObjectRecall),
            1u);
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}), LockMode::kNone);
  EXPECT_FALSE(sys.client(ClientId{1}).cache().contains(ObjectId{7}));
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{2}),
            LockMode::kExclusive);
}

TEST(ProtocolScenario, SharedRequestDowngradesWriter) {
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{30});
  ASSERT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kExclusive);
  sys.client(ClientId{2}).on_new_transaction(make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{30}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{80});
  // Paper §2's modified callback: the EL holder returns the object but
  // keeps a SL and its cached copy; both clients now share read access.
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}), LockMode::kShared);
  EXPECT_TRUE(sys.client(ClientId{1}).cache().contains(ObjectId{7}));
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{2}), LockMode::kShared);
}

TEST(ProtocolScenario, DirtyObjectTravelsBackOnRecall) {
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{30});
  EXPECT_TRUE(sys.client(ClientId{1}).cache().is_dirty(ObjectId{7}));
  sys.client(ClientId{2}).on_new_transaction(make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{30}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{80});
  // The update left client 1 with the recall response.
  EXPECT_FALSE(sys.client(ClientId{1}).cache().contains(ObjectId{7}));
  EXPECT_GE(sys.network().stats().messages(net::MessageKind::kObjectReturn),
            1u);
}

TEST(ProtocolScenario, UpgradeIsLockOnlyMessage) {
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  const auto ships_before =
      sys.network().stats().messages(net::MessageKind::kObjectShip);
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1002}, SiteId{1}, sim::SimTime{30}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{60});
  // SL -> EL upgrade with the data already cached: a lock-only grant.
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kObjectShip),
            ships_before);
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kLockGrant),
            1u);
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kExclusive);
}

TEST(ProtocolScenario, UpgradeNeverRecallsSelf) {
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1002}, SiteId{1}, sim::SimTime{30}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{60});
  // The upgrading client must not be asked to call back its own lock.
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kObjectRecall),
            0u);
}

TEST(ProtocolScenario, UpgradeRecallsOtherReadersOnly) {
  ClientServerSystem sys(quiet_cfg(3, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.client(ClientId{2}).on_new_transaction(make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1003}, SiteId{1}, sim::SimTime{30}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{80});
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kObjectRecall),
            1u);  // only client 2
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{2}), LockMode::kNone);
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kExclusive);
}

TEST(ProtocolScenario, EvictionReturnsLockVoluntarily) {
  auto cfg = quiet_cfg(2, false);
  cfg.client_cache.memory_capacity = 1;
  cfg.client_cache.disk_capacity = 1;
  ClientServerSystem sys(cfg);
  sys.bootstrap();
  // Three distinct objects through a 2-object cache: the first is evicted
  // and its lock returned without any recall.
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1002}, SiteId{1}, sim::SimTime{30}, {{ObjectId{8}, false}}));
  sys.simulator().run_until(sim::SimTime{60});
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1003}, SiteId{1}, sim::SimTime{60}, {{ObjectId{9}, false}}));
  sys.simulator().run_until(sim::SimTime{90});
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}), LockMode::kNone);
  EXPECT_GE(sys.network().stats().messages(net::MessageKind::kObjectReturn),
            1u);
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kObjectRecall),
            0u);
}

TEST(ProtocolScenario, WriterWriterHandoffSerializes) {
  ClientServerSystem sys(quiet_cfg(3, false));
  sys.bootstrap();
  // Client 1 writes 7 with a long transaction; clients 2 and 3 want it too.
  sys.client(ClientId{1}).on_new_transaction(
      make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}, /*length=*/20.0));
  sys.simulator().run_until(sim::SimTime{5});
  sys.client(ClientId{2}).on_new_transaction(
      make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{5}, {{ObjectId{7}, true}}, 1.0));
  sys.client(ClientId{3}).on_new_transaction(
      make_txn(TxnId{1003}, SiteId{3}, sim::SimTime{5}, {{ObjectId{7}, true}}, 1.0));
  sys.simulator().run_until(sim::SimTime{100});
  // Everyone finished; the final holder is whoever served last, and the
  // object was never lost.
  const auto m = sys.live_metrics();
  EXPECT_EQ(m.deadlock_refusals, 0u);
  const auto holders = sys.server().lock_table().holders(ObjectId{7});
  EXPECT_LE(holders.size(), 1u);
}

TEST(ProtocolScenario, ForwardListCirculatesWriters) {
  ClientServerSystem sys(quiet_cfg(3, true));  // forward lists on
  sys.bootstrap();
  // Client 1 holds 7 under a long write; 2 and 3 queue EL requests within
  // one collection window -> an exclusive chain ships 1 -> 2 -> 3.
  sys.client(ClientId{1}).on_new_transaction(
      make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}, /*length=*/10.0));
  sys.simulator().run_until(sim::SimTime{2});
  sys.client(ClientId{2}).on_new_transaction(make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{2}, {{ObjectId{7}, true}}, 0.5));
  sys.client(ClientId{3}).on_new_transaction(make_txn(TxnId{1003}, SiteId{3}, sim::SimTime{2}, {{ObjectId{7}, true}}, 0.5));
  sys.simulator().run_until(sim::SimTime{100});
  EXPECT_GE(sys.live_metrics().forward_list_satisfactions, 1u);
  EXPECT_GE(sys.network().stats().messages(net::MessageKind::kObjectForward),
            1u);
  // The object went home after the chain (circulated copies are returned).
  EXPECT_FALSE(sys.server().lock_table().is_circulating(ObjectId{7}));
}

TEST(ProtocolScenario, CsNeverForwards) {
  ClientServerSystem sys(quiet_cfg(3, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(
      make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}, 10.0));
  sys.simulator().run_until(sim::SimTime{2});
  sys.client(ClientId{2}).on_new_transaction(make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{2}, {{ObjectId{7}, true}}, 0.5));
  sys.client(ClientId{3}).on_new_transaction(make_txn(TxnId{1003}, SiteId{3}, sim::SimTime{2}, {{ObjectId{7}, true}}, 0.5));
  sys.simulator().run_until(sim::SimTime{100});
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kObjectForward),
            0u);
  EXPECT_EQ(sys.live_metrics().forward_list_satisfactions, 0u);
}

TEST(ProtocolScenario, ExpiredTransactionNeverCommits) {
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  // A transaction whose deadline passes while the data is held elsewhere.
  sys.client(ClientId{1}).on_new_transaction(
      make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}, /*length=*/30.0));
  sys.simulator().run_until(sim::SimTime{2});
  sys.client(ClientId{2}).on_new_transaction(
      make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{2}, {{ObjectId{7}, false}}, 1.0, /*slack=*/3.0));
  sys.simulator().run_until(sim::SimTime{100});
  // Client 2's transaction missed (writer holds 7 for 30 s) and the
  // cluster is quiescent afterwards.
  EXPECT_EQ(sys.client(ClientId{2}).live_count(), 0u);
  EXPECT_TRUE(sys.client(ClientId{2}).lock_manager().idle());
}

TEST(ProtocolScenario, DeterministicMessageTrace) {
  const auto run_trace = [] {
    ClientServerSystem sys(quiet_cfg(3, true));
    sys.bootstrap();
    sys.client(ClientId{1}).on_new_transaction(
        make_txn(TxnId{1}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}, {ObjectId{8}, false}}, 2.0));
    sys.client(ClientId{2}).on_new_transaction(
        make_txn(TxnId{2}, SiteId{2}, sim::SimTime{0}, {{ObjectId{7}, false}, {ObjectId{9}, true}}, 2.0));
    sys.client(ClientId{3}).on_new_transaction(make_txn(TxnId{3}, SiteId{3}, sim::SimTime{0}, {{ObjectId{7}, true}}, 2.0));
    sys.simulator().run_until(sim::SimTime{200});
    return sys.network().stats().total_messages();
  };
  EXPECT_EQ(run_trace(), run_trace());
}


TEST(ProtocolScenario, UpgradeDeadlockResolvedByRestart) {
  // Both clients hold SL on object 7 and request the upgrade while their
  // transactions are active: the classic cross-client upgrade deadlock.
  // The wait-for-graph refuses one; the retry/restart path must let at
  // least one of them commit instead of both missing.
  ClientServerSystem sys(quiet_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.client(ClientId{2}).on_new_transaction(make_txn(TxnId{1002}, SiteId{2}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  ASSERT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}), LockMode::kShared);
  ASSERT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{2}), LockMode::kShared);

  sys.client(ClientId{1}).on_new_transaction(make_txn(TxnId{1003}, SiteId{1}, sim::SimTime{30}, {{ObjectId{7}, true}}, 2.0));
  sys.client(ClientId{2}).on_new_transaction(make_txn(TxnId{1004}, SiteId{2}, sim::SimTime{30}, {{ObjectId{7}, true}}, 2.0));
  sys.simulator().run_until(sim::SimTime{200});

  EXPECT_GE(sys.live_metrics().deadlock_refusals, 1u);
  // Both transactions eventually committed (restart resolved the cycle;
  // with 100 s of slack nobody had to miss).
  EXPECT_EQ(sys.client(ClientId{1}).live_count(), 0u);
  EXPECT_EQ(sys.client(ClientId{2}).live_count(), 0u);
  EXPECT_EQ(sys.live_metrics().aborted, 0u);
  EXPECT_EQ(sys.live_metrics().missed, 0u);
}

/// Instant of the first `kind` event of `txn`; kUnsetTime if none.
sim::SimTime first_event(const System& sys, obs::EventKind kind, TxnId txn) {
  for (const auto& e : sys.telemetry().events()) {
    if (e.kind == kind && e.txn == txn) return e.t;
  }
  return obs::kUnsetTime;
}

TEST(ProtocolScenario, LocalIoPhaseEndsAtTheDiskReadBehindTheDemotion) {
  auto cfg = quiet_cfg(2, false);
  cfg.telemetry.events = true;
  cfg.client_cache.memory_capacity = 2;
  cfg.client_cache.disk_capacity = 2;
  ClientServerSystem sys(cfg);
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(
      make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0},
               {{ObjectId{7}, false}, {ObjectId{8}, false},
                {ObjectId{9}, false}}));
  sys.simulator().run_until(sim::SimTime{30});
  const storage::ClientCache& cache = sys.client(ClientId{1}).cache();
  ASSERT_EQ(cache.tier_of(ObjectId{7}), storage::CacheTier::kDisk);
  ASSERT_EQ(cache.tier_of(ObjectId{9}), storage::CacheTier::kMemory);
  ASSERT_EQ(cache.resident(storage::CacheTier::kMemory).size(), 2u);

  // 9 is a memory hit; 7 is a disk-tier hit whose read queues behind the
  // write demoting the memory LRU copy. Both locks are cached: no traffic.
  sys.client(ClientId{1}).on_new_transaction(
      make_txn(TxnId{1002}, SiteId{1}, sim::SimTime{30},
               {{ObjectId{7}, false}, {ObjectId{9}, false}}));
  sys.simulator().run_until(sim::SimTime{60});
  const storage::DiskConfig& disk = cfg.client_cache.disk;
  EXPECT_EQ(first_event(sys, obs::EventKind::kTxnReady, TxnId{1002}),
            sim::SimTime{30} + disk.write_time + disk.read_time);
  EXPECT_NE(first_event(sys, obs::EventKind::kTxnCommit, TxnId{1002}),
            obs::kUnsetTime);
}

TEST(ProtocolScenario, SharedFanOutDeliversCopiesToAllReaders) {
  auto cfg = quiet_cfg(4, true);
  ClientServerSystem sys(cfg);
  sys.bootstrap();
  // Client 1 writes 7 with a long transaction; three readers queue within
  // the collection window -> a shared fan-out serves them in one list.
  sys.client(ClientId{1}).on_new_transaction(
      make_txn(TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}, /*length=*/10.0));
  sys.simulator().run_until(sim::SimTime{2});
  for (ClientId c{2}; c <= ClientId{4}; ++c) {
    sys.client(c).on_new_transaction(
        make_txn(TxnId{static_cast<TxnId::Rep>(1000 + c.value())}, site_of(c),
                 sim::SimTime{2}, {{ObjectId{7}, false}}, 0.5));
  }
  sys.simulator().run_until(sim::SimTime{100});
  // Every reader holds a SL with the copy cached.
  for (ClientId c{2}; c <= ClientId{4}; ++c) {
    EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, c),
              LockMode::kShared)
        << "client " << c;
    EXPECT_TRUE(sys.client(c).cache().contains(ObjectId{7})) << "client " << c;
  }
  EXPECT_FALSE(sys.server().lock_table().is_circulating(ObjectId{7}));
}

}  // namespace
}  // namespace rtdb::core
