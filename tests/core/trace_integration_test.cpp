/// \file trace_integration_test.cpp
/// Typed telemetry events wired into a live cluster: protocol steps appear
/// as events of the expected kinds, in time order.

#include <gtest/gtest.h>

#include "core/client_server.hpp"

namespace rtdb::core {
namespace {

using obs::EventKind;

txn::Transaction mk(TxnId id, SiteId origin, sim::SimTime now,
                    std::vector<txn::Operation> ops) {
  txn::Transaction t;
  t.id = id;
  t.origin = origin;
  t.arrival = now;
  t.length = sim::seconds(1.0);
  t.deadline = now + sim::seconds(100);
  t.ops = std::move(ops);
  return t;
}

SystemConfig cfg2(bool events = true) {
  SystemConfig cfg;
  cfg.telemetry.events = events;
  cfg.num_clients = 2;
  cfg.warm_start = false;
  cfg.workload.db_size = 50;
  cfg.workload.region_size = 5;
  cfg.ls = LsOptions::none();
  return cfg;
}

bool has_txn_event(const System& sys, EventKind kind, TxnId txn) {
  for (const auto& e : sys.telemetry().events()) {
    if (e.kind == kind && e.txn == txn) return true;
  }
  return false;
}

bool has_object_event(const System& sys, EventKind kind, ObjectId object) {
  for (const auto& e : sys.telemetry().events()) {
    if (e.kind == kind && e.object == object) return true;
  }
  return false;
}

TEST(TraceIntegration, GrantRecallCommitSequenceRecorded) {
  ClientServerSystem sys(cfg2());
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(
      mk(TxnId{1}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{30});
  sys.client(ClientId{2}).on_new_transaction(
      mk(TxnId{2}, SiteId{2}, sim::SimTime{30}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{80});

  EXPECT_TRUE(has_object_event(sys, EventKind::kLockGrant, ObjectId{7}));
  EXPECT_TRUE(has_object_event(sys, EventKind::kLockRecall, ObjectId{7}));
  EXPECT_TRUE(has_txn_event(sys, EventKind::kTxnCommit, TxnId{1}));
  EXPECT_TRUE(has_txn_event(sys, EventKind::kTxnCommit, TxnId{2}));
}

TEST(TraceIntegration, DisabledTraceStaysEmpty) {
  ClientServerSystem sys(cfg2(/*events=*/false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(
      mk(TxnId{1}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{30});
  EXPECT_TRUE(sys.telemetry().events().empty());
}

TEST(TraceIntegration, EventsAreTimeOrdered) {
  ClientServerSystem sys(cfg2());
  sys.bootstrap();
  for (TxnId id{1}; id <= TxnId{6}; ++id) {
    const auto slot = static_cast<ClientId::Rep>(1 + (id.value() % 2));
    sys.client(ClientId{slot}).on_new_transaction(
        mk(id, SiteId{static_cast<SiteId::Rep>(slot)},
           sim::SimTime{static_cast<double>(id.value())},
           {{ObjectId{7}, true}}));
  }
  sys.simulator().run_until(sim::SimTime{300});
  const auto& ev = sys.telemetry().events();
  ASSERT_GT(ev.size(), 4u);
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].t, ev[i].t);
  }
}

}  // namespace
}  // namespace rtdb::core
