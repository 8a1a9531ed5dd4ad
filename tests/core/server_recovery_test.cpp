/// \file server_recovery_test.cpp
/// Hand-driven server crash/recovery scenarios: epoch monotonicity,
/// re-assertion rebuild + duplicate suppression, grace-expiry lease
/// reclamation, warm-standby promotion, plus a full-run gate proving
/// mid-commit losses are rolled back in the ledger instead of surfacing as
/// consistency violations. Uses the manual-driving API (bootstrap +
/// simulator), calling the crash/restart fan-out in the same client-id
/// order ClientServerSystem uses.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/client_server.hpp"
#include "core/runner.hpp"
#include "fault/fault.hpp"

namespace rtdb::core {
namespace {

using lock::LockMode;

/// Quiet cluster with the recovery machinery armed (the plan injects
/// nothing by itself; crashes are driven by hand).
SystemConfig chaos_cfg(std::size_t clients, bool standby) {
  SystemConfig cfg;
  cfg.num_clients = clients;
  cfg.warm_start = false;
  cfg.workload.db_size = 100;
  cfg.workload.region_size = 5;
  cfg.ls = LsOptions::none();
  cfg.fault.force_active = true;
  cfg.fault.allow_server_crash = true;
  cfg.fault.warm_standby = standby;
  cfg.fault.server_recovery_grace = sim::msec(600);
  return cfg;
}

txn::Transaction make_txn(TxnId id, SiteId origin, sim::SimTime now,
                          std::vector<txn::Operation> ops) {
  txn::Transaction t;
  t.id = id;
  t.origin = origin;
  t.arrival = now;
  t.length = sim::seconds(1.0);
  t.deadline = now + sim::seconds(101.0);
  t.ops = std::move(ops);
  return t;
}

void crash_fanout(ClientServerSystem& sys, std::size_t clients) {
  sys.server().crash();
  for (std::size_t i = 1; i <= clients; ++i) {
    sys.client(ClientId{static_cast<ClientId::Rep>(i)}).on_server_crash();
  }
}

void restart_fanout(ClientServerSystem& sys, std::size_t clients,
                    bool failover) {
  sys.server().restart(failover);
  for (std::size_t i = 1; i <= clients; ++i) {
    sys.client(ClientId{static_cast<ClientId::Rep>(i)})
        .on_server_restart(failover);
  }
}

TEST(ServerRecovery, EpochBumpsMonotonicallyAcrossRestarts) {
  ClientServerSystem sys(chaos_cfg(2, false));
  sys.bootstrap();
  EXPECT_EQ(sys.server().epoch(), 1u);
  EXPECT_FALSE(sys.server().in_grace());

  crash_fanout(sys, 2);
  restart_fanout(sys, 2, /*failover=*/false);
  EXPECT_EQ(sys.server().epoch(), 2u);
  EXPECT_TRUE(sys.server().in_grace());
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(1));
  EXPECT_FALSE(sys.server().in_grace());

  crash_fanout(sys, 2);
  restart_fanout(sys, 2, /*failover=*/false);
  EXPECT_EQ(sys.server().epoch(), 3u);
}

TEST(ServerRecovery, ReassertRebuildsTheLockTableAndIgnoresDuplicates) {
  ClientServerSystem sys(chaos_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(
      TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(30));
  ASSERT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kShared);

  crash_fanout(sys, 2);
  // The crash wiped the table; the cached copy survives at the client.
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kNone);
  EXPECT_TRUE(sys.client(ClientId{1}).cache().contains(ObjectId{7}));

  restart_fanout(sys, 2, /*failover=*/false);
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(31));
  const auto& stats = sys.injector()->stats();
  EXPECT_GE(stats.reasserts_sent, 1u);
  EXPECT_GE(stats.reasserts_accepted, 1u);
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kShared);

  // A re-delivered batch (wire duplicate / retransmit crossing its ack) is
  // recognized by the covers() check and changes nothing.
  const std::uint64_t dup_before = stats.duplicate_reasserts_ignored;
  ReassertBatch dup;
  dup.client = ClientId{1};
  dup.epoch = sys.server().epoch();
  dup.entries.push_back({ObjectId{7}, LockMode::kShared, false, 0});
  sys.server().on_reassert(dup);
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(32));
  EXPECT_EQ(stats.duplicate_reasserts_ignored, dup_before + 1);
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kShared);
}

TEST(ServerRecovery, StaleEpochBatchesAreRejectedWholesale) {
  ClientServerSystem sys(chaos_cfg(2, false));
  sys.bootstrap();
  crash_fanout(sys, 2);
  restart_fanout(sys, 2, /*failover=*/false);
  const auto& stats = sys.injector()->stats();
  ReassertBatch stale;
  stale.client = ClientId{1};
  stale.epoch = 1;  // joined the dead incarnation
  stale.entries.push_back({ObjectId{7}, LockMode::kShared, false, 0});
  sys.server().on_reassert(stale);
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(1));
  EXPECT_GE(stats.stale_epoch_rejected, 1u);
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kNone);
}

TEST(ServerRecovery, GraceExpiryReclaimsUnassertedLeases) {
  ClientServerSystem sys(chaos_cfg(2, false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(
      TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(30));
  ASSERT_TRUE(sys.client(ClientId{1}).cache().contains(ObjectId{7}));

  crash_fanout(sys, 2);
  // The restart notification reaches client 1 only after the grace window
  // already closed (a slow failure detector): its re-assertion is late.
  sys.server().restart(/*failover=*/false);
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(31));
  EXPECT_FALSE(sys.server().in_grace());
  sys.client(ClientId{1}).on_server_restart(/*failover=*/false);
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(32));

  const auto& stats = sys.injector()->stats();
  EXPECT_GE(stats.lease_expiries, 1u);
  // The lease is gone on both sides: no phantom registration, no stale copy.
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kNone);
  EXPECT_FALSE(sys.client(ClientId{1}).cache().contains(ObjectId{7}));
  EXPECT_EQ(sys.client(ClientId{1}).cached_server_mode(ObjectId{7}),
            LockMode::kNone);
}

TEST(ServerRecovery, WarmStandbyPromotionSkipsTheGraceRebuild) {
  ClientServerSystem sys(chaos_cfg(2, true));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(make_txn(
      TxnId{1001}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, false}}));
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(30));
  EXPECT_GE(sys.server().standby_mutations(), 1u);
  const auto reasserts_before =
      sys.network().stats().messages(net::MessageKind::kLockReassert);

  crash_fanout(sys, 2);
  restart_fanout(sys, 2, /*failover=*/true);
  // Promotion is immediate: epoch bumped, no grace window, the table
  // rebuilt from the mirrored snapshot without any re-assertion traffic.
  EXPECT_EQ(sys.server().epoch(), 2u);
  EXPECT_FALSE(sys.server().in_grace());
  EXPECT_EQ(sys.server().lock_table().holder_mode(ObjectId{7}, ClientId{1}),
            LockMode::kShared);
  sys.simulator().run_until(sim::SimTime{} + sim::seconds(31));
  EXPECT_EQ(sys.network().stats().messages(net::MessageKind::kLockReassert),
            reasserts_before);
  EXPECT_GE(sys.injector()->stats().server_failovers, 0u);
}

/// Under the server-standby schedule, every promotion hands over exactly
/// the lock table the primary held when it crashed.
TEST(ServerRecovery, StandbyPromotionRestoresThePreCrashTable) {
  SystemConfig cfg = SystemConfig::paper_defaults(20.0);
  cfg.num_clients = 16;
  cfg.warmup = sim::seconds(100);
  cfg.duration = sim::seconds(500);
  cfg.drain = sim::seconds(200);
  cfg.seed = 11;
  cfg.fault = fault::make_chaos_plan("server-standby", cfg.num_clients,
                                     sim::SimTime{} + cfg.warmup,
                                     cfg.horizon());
  ASSERT_EQ(cfg.validate(), "");
  auto made = make_system(SystemKind::kLoadSharing, cfg);
  auto& sys = dynamic_cast<ClientServerSystem&>(*made);

  // Per object: its holds sorted by client, and whether it circulates.
  using Row = std::pair<std::vector<std::pair<ClientId, LockMode>>, bool>;
  const auto capture = [&sys, objects = cfg.workload.db_size] {
    const lock::GlobalLockTable& glt = sys.server().lock_table();
    std::vector<Row> rows(objects);
    for (std::size_t i = 0; i < objects; ++i) {
      const ObjectId obj{static_cast<ObjectId::Rep>(i)};
      for (const auto& h : glt.holders(obj)) {
        rows[i].first.emplace_back(h.client, h.mode);
      }
      std::sort(rows[i].first.begin(), rows[i].first.end());
      rows[i].second = glt.is_circulating(obj);
    }
    return rows;
  };
  std::vector<Row> before;
  std::size_t holds_before = 0;
  std::size_t promotions = 0;
  auto& sim = sys.simulator();
  for (const auto& w : cfg.fault.server_crashes) {
    // Scheduled before run() arms the outages, so FIFO tie-breaking fires
    // this probe just ahead of the crash at the same instant.
    sim.at(w.start, [&] {
      before = capture();
      for (const Row& r : before) holds_before += r.first.size();
    });
    // Re-scheduled from inside the instant, the check runs just after the
    // promotion.
    sim.at(cfg.fault.effective_end(w), [&] {
      sim.at(sim.now(), [&] {
        const std::vector<Row> after = capture();
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < after.size(); ++i) {
          if (after[i] != before[i]) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u) << "promotion " << promotions;
        ++promotions;
      });
    });
  }
  sys.run();
  EXPECT_EQ(promotions, cfg.fault.server_crashes.size());
  EXPECT_EQ(sys.injector()->stats().server_failovers, promotions);
  EXPECT_GT(holds_before, 0u);
}

/// Full-run gate: scheduled outages hit a loaded cluster and every
/// transaction still gets exactly one outcome, with mid-commit losses
/// rolled back in the version ledger (accounted, not violations).
TEST(ServerRecovery, FullRunAccountsEveryTxnAndKeepsTheLedgerClean) {
  for (const SystemKind kind :
       {SystemKind::kClientServer, SystemKind::kLoadSharing}) {
    SystemConfig cfg = SystemConfig::paper_defaults(20.0);
    cfg.num_clients = 16;
    cfg.warmup = sim::seconds(100);
    cfg.duration = sim::seconds(500);
    cfg.drain = sim::seconds(200);
    cfg.seed = 11;
    cfg.fault = fault::make_chaos_plan("server-crash", cfg.num_clients,
                                       sim::SimTime{} + cfg.warmup,
                                       cfg.horizon());
    ASSERT_EQ(cfg.validate(), "");
    auto system = make_system(kind, cfg);
    const auto m = system->run();
    const auto& stats = system->injector()->stats();
    EXPECT_GE(stats.server_crashes, 1u);
    EXPECT_GE(stats.server_recoveries, 1u);
    // Exactly one outcome per measured transaction, even across outages.
    EXPECT_EQ(m.generated, m.committed + m.missed + m.aborted);
    EXPECT_EQ(system->double_records(), 0u);
    ASSERT_TRUE(system->auditor().violations().empty())
        << system->auditor().violations().size() << " violations; first: "
        << ConsistencyAuditor::describe(
               system->auditor().violations().front());
  }
}

}  // namespace
}  // namespace rtdb::core
