#include "core/optimistic.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"

namespace rtdb::core {
namespace {

SystemConfig occ_cfg(std::size_t clients, double update_pct) {
  SystemConfig cfg = SystemConfig::paper_defaults(update_pct);
  cfg.num_clients = clients;
  cfg.warmup = sim::seconds(80);
  cfg.duration = sim::seconds(350);
  cfg.drain = sim::seconds(200);
  cfg.seed = 321;
  return cfg;
}

/// A quiet one-client cluster driven by hand: a one-copy memory tier, a
/// local disk tier for the rest, events and spans recorded.
SystemConfig scenario_cfg() {
  SystemConfig cfg;
  cfg.num_clients = 1;
  cfg.warm_start = false;
  cfg.workload.db_size = 100;
  cfg.workload.region_size = 5;
  cfg.client_cache.memory_capacity = 1;
  cfg.client_cache.disk_capacity = 8;
  cfg.telemetry.events = true;
  cfg.telemetry.spans = true;
  return cfg;
}

/// A 50-ms transaction reading objects 1..5, arriving at `now`.
txn::Transaction read_five(TxnId id, sim::SimTime now) {
  txn::Transaction t;
  t.id = id;
  t.origin = SiteId{1};
  t.arrival = now;
  t.length = sim::msec(50);
  t.deadline = now + sim::seconds(100);
  for (ObjectId o{1}; o <= ObjectId{5}; ++o) t.ops.push_back({o, false});
  return t;
}

TEST(Optimistic, LocalPhaseEndsAtTheLastDiskReadAndIsChargedOnce) {
  OptimisticSystem sys(scenario_cfg());
  sys.bootstrap();
  sys.submit(0, read_five(TxnId{1}, sim::SimTime{0}));  // fetches all five
  sys.simulator().run_until(sim::SimTime{30});
  // The last copy fetched sits in memory, the other four on the local
  // disk. Each access promotes a disk copy and demotes the memory one, so
  // five write + read pairs queue on the client disk.
  sys.submit(0, read_five(TxnId{2}, sim::SimTime{30}));
  sys.simulator().run_until(sim::SimTime{60});
  const storage::DiskConfig& disk = scenario_cfg().client_cache.disk;
  sim::SimTime io_done{30};
  for (int i = 0; i < 5; ++i) io_done = io_done + disk.write_time + disk.read_time;

  sim::SimTime ready = obs::kUnsetTime;
  for (const auto& e : sys.telemetry().events()) {
    if (e.kind == obs::EventKind::kTxnReady && e.txn == TxnId{2}) {
      ready = e.t;
      break;
    }
  }
  EXPECT_EQ(ready, io_done);
  EXPECT_EQ(sys.rejections(), 0u);

  const obs::TxnSpan* span = nullptr;
  for (const obs::TxnSpan* s : sys.telemetry().spans_sorted()) {
    if (s->id == TxnId{2}) span = s;
  }
  ASSERT_NE(span, nullptr);
  ASSERT_EQ(span->outcome, obs::Outcome::kCommitted);
  // The phase's wall time, once — not the sum of the five overlapping
  // per-copy waits (0.24 s), which would exceed the whole span.
  const auto disk_wait =
      span->wait[static_cast<std::size_t>(obs::WaitBucket::kDisk)];
  EXPECT_DOUBLE_EQ(disk_wait, (io_done - sim::SimTime{30}).sec());
  EXPECT_LE(disk_wait, (span->end - span->admit).sec());
}

TEST(Optimistic, RunsAndAccountsEveryTransaction) {
  OptimisticSystem sys(occ_cfg(8, 5.0));
  const auto m = sys.run();
  EXPECT_GT(m.generated, 100u);
  EXPECT_TRUE(m.accounted()) << summarize(m);
}

TEST(Optimistic, ValidationsHappenForEveryExecutionAttempt) {
  OptimisticSystem sys(occ_cfg(8, 5.0));
  const auto m = sys.run();
  // Every committed transaction passed exactly one validation; rejected
  // attempts add more.
  EXPECT_GE(m.occ_validations, m.committed);
  EXPECT_EQ(m.occ_validations, sys.validations());
}

TEST(Optimistic, RejectionsAppearWithUpdates) {
  OptimisticSystem quiet(occ_cfg(10, 0.0));
  const auto mq = quiet.run();
  EXPECT_EQ(mq.occ_rejections, 0u);  // read-only: nothing can invalidate
  OptimisticSystem busy(occ_cfg(10, 20.0));
  const auto mb = busy.run();
  EXPECT_GT(mb.occ_rejections, 0u);
}

TEST(Optimistic, NoLockProtocolTraffic) {
  OptimisticSystem sys(occ_cfg(8, 20.0));
  const auto m = sys.run();
  EXPECT_EQ(m.messages.messages(net::MessageKind::kObjectRecall), 0u);
  EXPECT_EQ(m.messages.messages(net::MessageKind::kObjectReturn), 0u);
  EXPECT_EQ(m.messages.messages(net::MessageKind::kLockGrant), 0u);
  EXPECT_GT(m.messages.messages(net::MessageKind::kValidateRequest), 0u);
  EXPECT_GT(m.messages.messages(net::MessageKind::kValidateReply), 0u);
}

TEST(Optimistic, ConsistencyLedgerStaysClean) {
  // The whole point of validation: no lost updates, no stale committed
  // reads, at any contention level.
  for (double upd : {1.0, 20.0}) {
    auto sys = make_system(SystemKind::kOptimistic, occ_cfg(12, upd));
    const auto m = sys->run();
    EXPECT_EQ(m.consistency_violations, 0u) << upd << "% updates";
    ASSERT_TRUE(sys->auditor().violations().empty())
        << ConsistencyAuditor::describe(sys->auditor().violations().front());
  }
}

TEST(Optimistic, DeterministicForSeed) {
  OptimisticSystem a(occ_cfg(8, 5.0));
  OptimisticSystem b(occ_cfg(8, 5.0));
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_EQ(ma.committed, mb.committed);
  EXPECT_EQ(ma.occ_rejections, mb.occ_rejections);
  EXPECT_EQ(ma.messages.total_messages(), mb.messages.total_messages());
}

TEST(Optimistic, PessimisticWinsUnderHighContention) {
  // The extension's headline finding: with long transactions, blocking
  // beats wasted re-execution.
  const auto cfg = occ_cfg(16, 20.0);
  const auto occ = run_once(SystemKind::kOptimistic, cfg);
  const auto cs = run_once(SystemKind::kClientServer, cfg);
  EXPECT_GT(cs.success_percent(), occ.success_percent());
}

TEST(Optimistic, MaxRestartsBoundsLivelock) {
  auto cfg = occ_cfg(10, 20.0);
  cfg.occ.max_restarts = 0;  // one attempt only
  OptimisticSystem sys(cfg);
  const auto m = sys.run();
  EXPECT_TRUE(m.accounted());
  // With no retries every rejection kills its transaction.
  EXPECT_GE(m.aborted + m.missed, m.occ_rejections);
}

TEST(Optimistic, RunnerBuildsIt) {
  auto sys = make_system(SystemKind::kOptimistic, occ_cfg(4, 5.0));
  EXPECT_NE(dynamic_cast<OptimisticSystem*>(sys.get()), nullptr);
  EXPECT_EQ(to_string(SystemKind::kOptimistic), "OCC-CS-RTDBS");
}

TEST(Optimistic, CacheHitsAccumulate) {
  auto cfg = occ_cfg(8, 1.0);
  cfg.workload.region_size = 400;
  OptimisticSystem sys(cfg);
  const auto m = sys.run();
  EXPECT_GT(m.cache_hit_percent(), 40.0) << summarize(m);
}

}  // namespace
}  // namespace rtdb::core
