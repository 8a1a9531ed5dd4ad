/// \file server_recovery_plan_test.cpp
/// Plan-level rules of the server crash/recovery machinery: the capability
/// gate, window well-formedness, the warm-standby effective end, the
/// seeded outage jitter all client retries decorrelate with, and the
/// shared RetryLoop policy built on them.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

namespace rtdb::fault {
namespace {

using sim::msec;
using sim::seconds;

sim::SimTime at(double s) { return sim::SimTime{} + seconds(s); }

FaultPlan crash_plan() {
  FaultPlan plan;
  plan.allow_server_crash = true;
  plan.server_crashes.push_back({at(10), at(12)});
  return plan;
}

TEST(ServerRecoveryPlan, ServerWindowsRequireCapabilityGate) {
  FaultPlan plan = crash_plan();
  EXPECT_EQ(plan.validate(), "");
  plan.allow_server_crash = false;
  EXPECT_NE(plan.validate(), "");
}

TEST(ServerRecoveryPlan, StandbyAndNoRecoveryRequireCapabilityGate) {
  FaultPlan standby;
  standby.warm_standby = true;
  EXPECT_NE(standby.validate(), "");
  FaultPlan broken;
  broken.recovery_disabled = true;
  EXPECT_NE(broken.validate(), "");
}

TEST(ServerRecoveryPlan, StandbyExcludesRecoveryDisabled) {
  FaultPlan plan = crash_plan();
  plan.warm_standby = true;
  plan.recovery_disabled = true;
  EXPECT_NE(plan.validate(), "");
  plan.recovery_disabled = false;
  EXPECT_EQ(plan.validate(), "");
}

TEST(ServerRecoveryPlan, WindowsMustBeSortedAndNonOverlapping) {
  FaultPlan inverted = crash_plan();
  inverted.server_crashes[0].end = at(9);
  EXPECT_NE(inverted.validate(), "");

  FaultPlan overlapping = crash_plan();
  overlapping.server_crashes.push_back({at(11), at(14)});
  EXPECT_NE(overlapping.validate(), "");

  FaultPlan sorted = crash_plan();
  sorted.server_crashes.push_back({at(20), at(22)});
  EXPECT_EQ(sorted.validate(), "");
}

TEST(ServerRecoveryPlan, ServerWindowsMakeThePlanNonEmpty) {
  EXPECT_FALSE(crash_plan().empty());
}

TEST(ServerRecoveryPlan, ServerDownTracksEffectiveWindows) {
  const FaultPlan plan = crash_plan();
  EXPECT_FALSE(plan.server_down(at(9.9)));
  EXPECT_TRUE(plan.server_down(at(10)));
  EXPECT_TRUE(plan.server_down(at(11.9)));
  EXPECT_FALSE(plan.server_down(at(12)));
  EXPECT_EQ(plan.server_restart_time(at(11)), at(12));
}

TEST(ServerRecoveryPlan, WarmStandbyMovesTheEffectiveEndUp) {
  FaultPlan plan = crash_plan();
  plan.warm_standby = true;
  plan.standby_failover = msec(50);
  // Failover ends the outage standby_failover after the crash, well before
  // the scheduled window end.
  EXPECT_TRUE(plan.server_down(at(10.01)));
  EXPECT_FALSE(plan.server_down(at(10.1)));
  EXPECT_EQ(plan.server_restart_time(at(10.01)), at(10) + msec(50));
}

TEST(ServerRecoveryPlan, OutageJitterIsDeterministicAndBounded) {
  const sim::Duration bound = msec(40);
  const sim::Duration a = outage_jitter(7, 123, 0, bound);
  EXPECT_EQ(a, outage_jitter(7, 123, 0, bound));
  EXPECT_GE(a, sim::Duration::zero());
  EXPECT_LT(a, bound);
  // Different salts / attempts decorrelate (the thundering-herd property).
  EXPECT_NE(outage_jitter(7, 123, 0, bound), outage_jitter(7, 124, 0, bound));
  EXPECT_NE(outage_jitter(7, 123, 0, bound), outage_jitter(7, 123, 1, bound));
  EXPECT_EQ(outage_jitter(7, 123, 0, sim::Duration::zero()),
            sim::Duration::zero());
}

// --- RetryLoop: the shared outage-aware retry policy, without a System ---

constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kSalt = 99;
const sim::Duration kFallback = msec(400);

TEST(RetryLoop, DeferralWaitsOutTheRestartPlusJitter) {
  FaultInjector inj(crash_plan(), kSeed);
  const sim::Duration bound = inj.plan().outage_jitter_bound;
  RetryLoop loop;
  sim::Duration delay{};
  EXPECT_FALSE(loop.fire(
      inj, at(11), kSalt, kFallback, [&](sim::Duration d) { delay = d; },
      [] { ADD_FAILURE() << "a deferral never gives up"; }));
  EXPECT_EQ(delay, (at(12) - at(11)) + outage_jitter(kSeed, kSalt, 1, bound));
  // The next deferral of the same loop draws the next jitter number.
  EXPECT_EQ(loop.defer(inj, at(11.5), kSalt, kFallback),
            (at(12) - at(11.5)) + outage_jitter(kSeed, kSalt, 2, bound));
}

TEST(RetryLoop, FallbackWhenNoFiniteRestartLiesAhead) {
  FaultPlan endless = crash_plan();
  endless.server_crashes[0].end = sim::kTimeInfinity;
  FaultInjector never_back(endless, kSeed);
  const sim::Duration bound = endless.outage_jitter_bound;
  RetryLoop a;
  EXPECT_EQ(a.defer(never_back, at(11), kSalt, kFallback),
            kFallback + outage_jitter(kSeed, kSalt, 1, bound));
  // The window already ended: no restart ahead of `now` either.
  FaultInjector past(crash_plan(), kSeed);
  RetryLoop b;
  EXPECT_EQ(b.defer(past, at(13), kSalt, kFallback),
            kFallback + outage_jitter(kSeed, kSalt, 1, bound));
}

TEST(RetryLoop, DeferralsNeverSpendTheBudget) {
  FaultPlan plan = crash_plan();
  plan.server_crashes.push_back({at(20), at(22)});
  plan.max_retransmits = 2;
  FaultInjector inj(plan, kSeed);
  RetryLoop loop;
  int defers = 0;
  int give_ups = 0;
  const auto fire = [&](double t) {
    return loop.fire(
        inj, at(t), kSalt, kFallback, [&](sim::Duration) { ++defers; },
        [&] { ++give_ups; });
  };
  EXPECT_FALSE(fire(10.5));  // down: deferred
  EXPECT_FALSE(fire(11.5));  // down: deferred
  EXPECT_TRUE(fire(12.5));   // up: try 1
  EXPECT_FALSE(fire(20.5));  // down again: deferred, budget untouched
  EXPECT_TRUE(fire(23));     // try 2
  EXPECT_EQ(give_ups, 0);
  EXPECT_FALSE(fire(24));  // max_retransmits tries spent: give up
  EXPECT_EQ(give_ups, 1);
  EXPECT_EQ(defers, 3);
  // A fresh request restarts the budget.
  loop.restart_budget();
  EXPECT_TRUE(fire(25));
}

TEST(RetryLoop, CountersBumpOncePerDecision) {
  FaultInjector inj(crash_plan(), kSeed);
  RetryLoop loop;
  loop.defer(inj, at(11), kSalt, kFallback);
  EXPECT_EQ(inj.stats().outage_deferrals, 1u);
  loop.fire(
      inj, at(12.5), kSalt, kFallback, [](sim::Duration) {}, [] {});
  EXPECT_EQ(inj.stats().outage_deferrals, 1u);  // a retry is no deferral

  // Restart at 12 s plus a 400 ms margin: due by 12.3 s is doomed.
  EXPECT_TRUE(outage_dooms(inj, at(11), at(12.3), kFallback));
  EXPECT_EQ(inj.stats().deadline_early_aborts, 1u);
  EXPECT_FALSE(outage_dooms(inj, at(11), at(12.5), kFallback));
  EXPECT_FALSE(outage_dooms(inj, at(13), at(12.5), kFallback));  // up
  EXPECT_EQ(inj.stats().deadline_early_aborts, 1u);
  EXPECT_EQ(inj.stats().outage_deferrals, 1u);
}

TEST(ServerRecoveryPlan, ServerChaosSchedulesResolveAndValidate) {
  const auto names = server_chaos_schedule_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "server-crash");
  EXPECT_EQ(names[1], "server-standby");
  EXPECT_EQ(names[2], "server-mixed");
  for (const auto n : names) {
    const FaultPlan plan = make_chaos_plan(n, 8, at(100), at(1100));
    EXPECT_EQ(plan.validate(), "") << n;
    EXPECT_TRUE(plan.allow_server_crash) << n;
    EXPECT_FALSE(plan.server_crashes.empty()) << n;
    EXPECT_EQ(plan.warm_standby, n == "server-standby") << n;
  }
  // Legacy schedules never gained the capability: their digests stay pinned.
  for (const auto n : chaos_schedule_names()) {
    EXPECT_FALSE(make_chaos_plan(n, 8, at(100), at(1100)).allow_server_crash)
        << n;
  }
}

}  // namespace
}  // namespace rtdb::fault
