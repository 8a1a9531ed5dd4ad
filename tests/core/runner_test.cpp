#include "core/runner.hpp"

#include <gtest/gtest.h>

#include "core/centralized.hpp"
#include "core/client_server.hpp"

namespace rtdb::core {
namespace {

SystemConfig tiny_cfg() {
  SystemConfig cfg = SystemConfig::paper_defaults(5.0);
  cfg.num_clients = 4;
  cfg.warmup = sim::seconds(50);
  cfg.duration = sim::seconds(150);
  cfg.drain = sim::seconds(150);
  return cfg;
}

TEST(Runner, MakesRequestedKinds) {
  auto ce = make_system(SystemKind::kCentralized, tiny_cfg());
  EXPECT_NE(dynamic_cast<CentralizedSystem*>(ce.get()), nullptr);
  auto cs = make_system(SystemKind::kClientServer, tiny_cfg());
  EXPECT_NE(dynamic_cast<ClientServerSystem*>(cs.get()), nullptr);
  auto ls = make_system(SystemKind::kLoadSharing, tiny_cfg());
  EXPECT_NE(dynamic_cast<ClientServerSystem*>(ls.get()), nullptr);
}

TEST(Runner, ClientServerForcesTechniquesOff) {
  auto cfg = tiny_cfg();
  cfg.ls = LsOptions::all();
  auto cs = make_system(SystemKind::kClientServer, cfg);
  auto* sys = dynamic_cast<ClientServerSystem*>(cs.get());
  ASSERT_NE(sys, nullptr);
  EXPECT_FALSE(sys->ls().enable_h1);
  EXPECT_FALSE(sys->ls().enable_forward_lists);
}

TEST(Runner, LoadSharingDefaultsToAllTechniques) {
  auto ls = make_system(SystemKind::kLoadSharing, tiny_cfg());
  auto* sys = dynamic_cast<ClientServerSystem*>(ls.get());
  ASSERT_NE(sys, nullptr);
  EXPECT_TRUE(sys->ls().enable_h1);
  EXPECT_TRUE(sys->ls().enable_h2);
  EXPECT_TRUE(sys->ls().enable_decomposition);
  EXPECT_TRUE(sys->ls().enable_forward_lists);
}

TEST(Runner, LoadSharingKeepsCustomAblation) {
  auto cfg = tiny_cfg();
  cfg.ls = LsOptions::all();
  cfg.ls.enable_decomposition = false;
  auto ls = make_system(SystemKind::kLoadSharing, cfg);
  auto* sys = dynamic_cast<ClientServerSystem*>(ls.get());
  ASSERT_NE(sys, nullptr);
  EXPECT_TRUE(sys->ls().enable_h1);
  EXPECT_FALSE(sys->ls().enable_decomposition);
}

TEST(Runner, TechniqueSwitchKeepsCallerTuning) {
  auto cfg = tiny_cfg();
  cfg.ls.parallel_shared_grants = false;
  cfg.ls.max_exclusive_hops = 1;
  for (const SystemKind kind :
       {SystemKind::kLoadSharing, SystemKind::kClientServer}) {
    auto made = make_system(kind, cfg);
    auto* sys = dynamic_cast<ClientServerSystem*>(made.get());
    ASSERT_NE(sys, nullptr);
    EXPECT_EQ(sys->ls().enable_forward_lists,
              kind == SystemKind::kLoadSharing);
    EXPECT_FALSE(sys->ls().parallel_shared_grants) << to_string(kind);
    EXPECT_EQ(sys->ls().max_exclusive_hops, 1u) << to_string(kind);
  }
}

TEST(Runner, RunOnceProducesAccountedMetrics) {
  const auto m = run_once(SystemKind::kClientServer, tiny_cfg());
  EXPECT_GT(m.generated, 0u);
  EXPECT_TRUE(m.accounted());
}

TEST(Runner, ReplicationVariesSeeds) {
  auto agg = run_replicated(SystemKind::kCentralized, tiny_cfg(), 3);
  EXPECT_EQ(agg.runs(), 3u);
  // Replicated means must sit between per-run extremes; just sanity-check
  // it is a percentage.
  EXPECT_GE(agg.mean_success_percent(), 0.0);
  EXPECT_LE(agg.mean_success_percent(), 100.0);
}

TEST(Runner, ReplicatedDeterministicAsAWhole) {
  const auto a = run_replicated(SystemKind::kClientServer, tiny_cfg(), 2);
  const auto b = run_replicated(SystemKind::kClientServer, tiny_cfg(), 2);
  EXPECT_DOUBLE_EQ(a.mean_success_percent(), b.mean_success_percent());
  EXPECT_EQ(a.last().committed, b.last().committed);
}

}  // namespace
}  // namespace rtdb::core
