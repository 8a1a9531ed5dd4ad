/// \file property_test.cpp
/// Parameterized invariant sweeps (TEST_P): properties that must hold for
/// every system kind, client count, update percentage and seed.

#include <gtest/gtest.h>

#include <tuple>

#include "core/client_server.hpp"
#include "core/runner.hpp"

namespace rtdb::core {
namespace {

using Params = std::tuple<SystemKind, std::size_t /*clients*/,
                          double /*update %*/, std::uint64_t /*seed*/>;

class SystemInvariants : public ::testing::TestWithParam<Params> {
 protected:
  SystemConfig make_cfg() const {
    const auto& [kind, clients, upd, seed] = GetParam();
    (void)kind;
    SystemConfig cfg = SystemConfig::paper_defaults(upd);
    cfg.num_clients = clients;
    cfg.warmup = sim::seconds(60);
    cfg.duration = sim::seconds(250);
    cfg.drain = sim::seconds(200);
    cfg.seed = seed;
    return cfg;
  }
};

TEST_P(SystemInvariants, OutcomeConservation) {
  const auto& [kind, clients, upd, seed] = GetParam();
  (void)clients;
  (void)upd;
  (void)seed;
  const auto m = run_once(kind, make_cfg());
  EXPECT_TRUE(m.accounted()) << summarize(m);
  EXPECT_GT(m.generated, 0u);
}

TEST_P(SystemInvariants, CommitsNeverExceedGenerated) {
  const auto& [kind, clients, upd, seed] = GetParam();
  (void)clients;
  (void)upd;
  (void)seed;
  const auto m = run_once(kind, make_cfg());
  EXPECT_LE(m.committed, m.generated);
  EXPECT_LE(m.missed, m.generated);
  EXPECT_LE(m.aborted, m.generated);
}

TEST_P(SystemInvariants, CommittedTransactionsMetTheirDeadlines) {
  const auto& [kind, clients, upd, seed] = GetParam();
  (void)clients;
  (void)upd;
  (void)seed;
  auto m = run_once(kind, make_cfg());
  if (m.committed > 0) {
    EXPECT_GE(m.commit_slack.min(), 0.0)
        << "a transaction committed after its deadline";
    EXPECT_GT(m.response_time.min(), 0.0);
  }
}

TEST_P(SystemInvariants, DeterministicReplay) {
  const auto& [kind, clients, upd, seed] = GetParam();
  (void)clients;
  (void)upd;
  (void)seed;
  const auto a = run_once(kind, make_cfg());
  const auto b = run_once(kind, make_cfg());
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.missed, b.missed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.messages.total_messages(), b.messages.total_messages());
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

TEST_P(SystemInvariants, UtilizationsAreFractions) {
  const auto& [kind, clients, upd, seed] = GetParam();
  (void)clients;
  (void)upd;
  (void)seed;
  const auto m = run_once(kind, make_cfg());
  EXPECT_GE(m.server_cpu_utilization, 0.0);
  EXPECT_LE(m.server_cpu_utilization, 1.0);
  EXPECT_GE(m.network_utilization, 0.0);
  EXPECT_LE(m.network_utilization, 1.0);
  EXPECT_GE(m.server_disk_utilization, 0.0);
  EXPECT_LE(m.server_disk_utilization, 1.0);
}


TEST_P(SystemInvariants, SingleOutcomePerTransaction) {
  const auto& [kind, clients, upd, seed] = GetParam();
  (void)clients;
  (void)upd;
  (void)seed;
  auto system = make_system(kind, make_cfg());
  system->run();
  EXPECT_EQ(system->double_records(), 0u);
}

TEST_P(SystemInvariants, NoConsistencyViolations) {
  const auto& [kind, clients, upd, seed] = GetParam();
  (void)clients;
  (void)upd;
  (void)seed;
  auto system = make_system(kind, make_cfg());
  const auto m = system->run();
  EXPECT_EQ(m.consistency_violations, 0u);
  ASSERT_TRUE(system->auditor().violations().empty())
      << ConsistencyAuditor::describe(system->auditor().violations().front());
  // The audit actually observed work (reads/writes flowed through it).
  EXPECT_GT(system->auditor().audited_reads() +
                system->auditor().audited_writes(),
            0u);
}

std::string sweep_name(const ::testing::TestParamInfo<Params>& info) {
  std::string name = std::string(to_string(std::get<0>(info.param))) + "_c" +
                     std::to_string(std::get<1>(info.param)) + "_u" +
                     std::to_string(static_cast<int>(std::get<2>(info.param))) +
                     "_s" + std::to_string(std::get<3>(info.param));
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SystemInvariants,
    ::testing::Combine(
        ::testing::Values(SystemKind::kCentralized,
                          SystemKind::kClientServer,
                          SystemKind::kLoadSharing),
        ::testing::Values(std::size_t{4}, std::size_t{12}),
        ::testing::Values(1.0, 20.0),
        ::testing::Values(std::uint64_t{7}, std::uint64_t{1234})),
    sweep_name);

/// Client-server protocol invariants across LS ablations.
class AblationInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(AblationInvariants, EveryAblationAccountsAndQuiesces) {
  const auto& [mask, seed] = GetParam();
  SystemConfig cfg = SystemConfig::paper_defaults(20.0);
  cfg.num_clients = 10;
  cfg.warmup = sim::seconds(60);
  cfg.duration = sim::seconds(250);
  cfg.drain = sim::seconds(200);
  cfg.seed = seed;
  cfg.ls = LsOptions::none();
  cfg.ls.enable_h1 = mask & 1;
  cfg.ls.enable_h2 = (mask & 2) != 0;
  cfg.ls.enable_decomposition = (mask & 4) != 0;
  cfg.ls.enable_forward_lists = (mask & 8) != 0;
  cfg.ls.ed_request_scheduling = (mask & 16) != 0;
  cfg.ls.parallel_shared_grants = (mask & 32) == 0;

  ClientServerSystem sys(cfg);
  const auto m = sys.run();
  EXPECT_TRUE(m.accounted()) << "mask=" << mask << " " << summarize(m);
  EXPECT_EQ(sys.double_records(), 0u) << "mask=" << mask;
  for (ClientId c{1}; c.value() <= static_cast<int>(cfg.num_clients); ++c) {
    EXPECT_EQ(sys.client(c).live_count(), 0u) << "mask=" << mask;
    EXPECT_TRUE(sys.client(c).lock_manager().idle()) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniqueCombinations, AblationInvariants,
    ::testing::Combine(::testing::Range(0, 64),
                       ::testing::Values(std::uint64_t{3})));

}  // namespace
}  // namespace rtdb::core
