#include "fault/fault.hpp"

#include <cstdio>
#include <stdexcept>

namespace rtdb::fault {

namespace {

bool window_covers(sim::SimTime start, sim::SimTime end, sim::SimTime t) {
  return t >= start && t < end;
}

std::string check_prob(const char* what, double p) {
  if (p < 0.0 || p > 1.0) {
    return std::string(what) + " must lie in [0, 1]";
  }
  return {};
}

std::string check_kind_faults(const char* what, const KindFaults& f) {
  const std::pair<const char*, double> probs[] = {
      {"drop", f.drop}, {"duplicate", f.duplicate}, {"delay", f.delay}};
  for (const auto& [name, p] : probs) {
    if (auto err = check_prob(name, p); !err.empty()) {
      return std::string(what) + "." + err;
    }
  }
  return {};
}

}  // namespace

bool FaultPlan::empty() const {
  if (force_active) return false;
  if (all_kinds.any()) return false;
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    if (per_kind_set[k] && per_kind[k].any()) return false;
  }
  return partitions.empty() && crashes.empty() && server_crashes.empty();
}

sim::SimTime FaultPlan::effective_end(const ServerCrashWindow& w) const {
  if (!warm_standby) return w.end;
  const sim::SimTime promoted = w.start + standby_failover;
  return promoted < w.end ? promoted : w.end;
}

bool FaultPlan::server_down(sim::SimTime t) const {
  for (const auto& w : server_crashes) {
    if (window_covers(w.start, effective_end(w), t)) return true;
  }
  return false;
}

sim::SimTime FaultPlan::server_restart_time(sim::SimTime t) const {
  for (const auto& w : server_crashes) {
    if (window_covers(w.start, effective_end(w), t)) {
      return effective_end(w);
    }
  }
  return sim::kTimeInfinity;
}

std::string FaultPlan::validate() const {
  if (auto err = check_kind_faults("fault.all_kinds", all_kinds);
      !err.empty()) {
    return err;
  }
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    if (!per_kind_set[k]) continue;
    if (auto err = check_kind_faults("fault.per_kind", per_kind[k]);
        !err.empty()) {
      return err;
    }
  }
  if (extra_delay < sim::Duration::zero()) {
    return "fault.extra_delay must be non-negative";
  }
  for (const auto& p : partitions) {
    if (p.client == kInvalidClient) {
      return "fault.partition names an invalid client";
    }
    if (p.end <= p.start) return "fault.partition window is empty or inverted";
  }
  for (const auto& c : crashes) {
    if (c.client == kInvalidClient) {
      return "fault.crash names an invalid client";
    }
    if (c.end <= c.start) return "fault.crash window is empty or inverted";
  }
  if (!server_crashes.empty() && !allow_server_crash) {
    return "fault.server_crashes requires fault.allow_server_crash";
  }
  if (warm_standby && !allow_server_crash) {
    return "fault.warm_standby requires fault.allow_server_crash";
  }
  if (recovery_disabled && !allow_server_crash) {
    return "fault.recovery_disabled requires fault.allow_server_crash";
  }
  if (warm_standby && recovery_disabled) {
    return "fault.warm_standby and fault.recovery_disabled are exclusive";
  }
  for (std::size_t i = 0; i < server_crashes.size(); ++i) {
    const auto& w = server_crashes[i];
    if (w.end <= w.start) {
      return "fault.server_crash window is empty or inverted";
    }
    if (i > 0 && w.start < server_crashes[i - 1].end) {
      return "fault.server_crash windows must be sorted and non-overlapping";
    }
  }
  const std::pair<const char*, sim::Duration> timeouts[] = {
      {"fault.request_timeout", request_timeout},
      {"fault.recall_timeout", recall_timeout},
      {"fault.return_timeout", return_timeout},
      {"fault.detection_delay", detection_delay},
      {"fault.circulation_grace", circulation_grace},
      {"fault.server_recovery_grace", server_recovery_grace},
      {"fault.standby_failover", standby_failover}};
  for (const auto& [name, d] : timeouts) {
    if (d <= sim::Duration::zero()) {
      return std::string(name) + " must be positive";
    }
  }
  if (outage_jitter_bound < sim::Duration::zero()) {
    return "fault.outage_jitter_bound must be non-negative";
  }
  return {};
}

std::uint64_t FaultStats::digest() const {
  std::uint64_t h = UINT64_C(0xcbf29ce484222325);
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= UINT64_C(0x100000001b3);
    }
  };
  // The legacy counter set folds unconditionally: these positions define
  // the pinned chaos digests. Counters (and message kinds) added for the
  // server-outage work fold only when nonzero, prefixed with their index —
  // runs that never crash the server keep their digests byte-identical to
  // the pinned corpus, while any server-outage activity lands in the hash
  // without positional aliasing.
  for (std::size_t k = 0; k < net::kLegacyKindCount; ++k) {
    fold(drops_by_kind[k]);
  }
  for (std::size_t k = net::kLegacyKindCount; k < drops_by_kind.size(); ++k) {
    if (drops_by_kind[k] == 0) continue;
    fold(k);
    fold(drops_by_kind[k]);
  }
  for (const std::uint64_t v :
       {dropped, partition_drops, crash_drops, duplicates,
        duplicates_suppressed, delays, crashes, recoveries, retransmits,
        recall_retransmits, return_retransmits, duplicate_grants,
        stale_grants_ignored, duplicate_requests_ignored,
        duplicate_returns_ignored,
        duplicate_validates_ignored, orphan_locks_reclaimed,
        queue_entries_reclaimed, forward_reroutes, circulation_repairs,
        lost_versions, crash_wiped_pages, arrivals_while_down,
        candidates_filtered, local_fallbacks}) {
    fold(v);
  }
  const std::uint64_t fresh[] = {
      server_crashes,     server_recoveries,
      server_failovers,   server_crash_drops,
      reasserts_sent,     reasserts_accepted,
      duplicate_reasserts_ignored, stale_epoch_rejected,
      lease_expiries,     outage_deferrals,
      deadline_early_aborts, grace_parked,
      standby_mutations};
  for (std::size_t i = 0; i < std::size(fresh); ++i) {
    if (fresh[i] == 0) continue;
    fold(UINT64_C(0x1000) + i);
    fold(fresh[i]);
  }
  return h;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t jitter_seed)
    : plan_(std::move(plan)), rng_(plan_.seed), jitter_seed_(jitter_seed) {}

const KindFaults& FaultInjector::faults_for(net::MessageKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  return plan_.per_kind_set[k] ? plan_.per_kind[k] : plan_.all_kinds;
}

bool FaultInjector::down(SiteId site, sim::SimTime t) const {
  if (site == kServerSite) return server_down(t);
  const ClientId c = client_of(site);
  for (const auto& w : plan_.crashes) {
    if (w.client == c && window_covers(w.start, w.end, t)) return true;
  }
  return false;
}

bool FaultInjector::partitioned(SiteId a, SiteId b, sim::SimTime t) const {
  // Partition windows separate one client from the server; client-to-client
  // traffic relays through the directory server and is unaffected.
  const SiteId client_side = a == kServerSite ? b : a;
  if (a != kServerSite && b != kServerSite) return false;
  if (client_side == kServerSite) return false;
  const ClientId c = client_of(client_side);
  for (const auto& w : plan_.partitions) {
    if (w.client == c && window_covers(w.start, w.end, t)) return true;
  }
  return false;
}

net::FaultVerdict FaultInjector::judge(SiteId src, SiteId dst,
                                       net::MessageKind kind,
                                       sim::SimTime now) {
  net::FaultVerdict v;
  if (partitioned(src, dst, now)) {
    ++stats_.partition_drops;
    v.drop = true;
    return v;  // a partitioned frame is simply gone; no further judging
  }
  const KindFaults& f = faults_for(kind);
  // Draw every probability unconditionally so the verdict stream depends
  // only on the send sequence, not on which faults happen to be enabled —
  // schedules that share a seed stay comparable.
  const bool drop = rng_.bernoulli(f.drop);
  const bool dup = rng_.bernoulli(f.duplicate);
  const bool delay = rng_.bernoulli(f.delay);
  if (drop) {
    ++stats_.dropped;
    ++stats_.drops_by_kind[static_cast<std::size_t>(kind)];
    v.drop = true;
  }
  if (dup) {
    ++stats_.duplicates;
    v.duplicate = true;
  }
  if (delay && !drop) {
    ++stats_.delays;
    v.extra_delay = plan_.extra_delay;
  }
  return v;
}

bool FaultInjector::judge_delivery(SiteId dst, sim::SimTime when) {
  if (!down(dst, when)) return true;
  if (dst == kServerSite) {
    ++stats_.server_crash_drops;
  } else {
    ++stats_.crash_drops;
  }
  return false;
}

FaultPlan make_chaos_plan(std::string_view name, std::size_t num_clients,
                          sim::SimTime t0, sim::SimTime t1) {
  FaultPlan plan;
  plan.seed = 7;
  const sim::Duration span = t1 - t0;
  const auto frac = [&](double a) { return t0 + span * a; };
  const auto nth_client = [&](std::size_t i) {
    return ClientId{static_cast<ClientId::Rep>(1 + (i % num_clients))};
  };
  if (name == "null-active") {
    // No perturbation at all, but the recovery machinery (timers, acks,
    // idempotent handlers) is armed: proves it is harmless when unneeded.
    plan.force_active = true;
  } else if (name == "lossy") {
    plan.all_kinds.drop = 0.02;
    plan.all_kinds.duplicate = 0.01;
    plan.all_kinds.delay = 0.05;
    plan.extra_delay = sim::msec(25);
  } else if (name == "partition") {
    plan.partitions.push_back({nth_client(0), frac(0.2), frac(0.35)});
    plan.partitions.push_back({nth_client(1), frac(0.5), frac(0.6)});
  } else if (name == "crashes") {
    plan.crashes.push_back({nth_client(0), frac(0.25), frac(0.45)});
    plan.crashes.push_back({nth_client(2), frac(0.55), frac(0.7)});
    // One client never comes back.
    plan.crashes.push_back({nth_client(4), frac(0.8), sim::kTimeInfinity});
  } else if (name == "mixed") {
    plan.all_kinds.drop = 0.01;
    plan.all_kinds.duplicate = 0.005;
    plan.all_kinds.delay = 0.02;
    plan.extra_delay = sim::msec(15);
    plan.partitions.push_back({nth_client(1), frac(0.3), frac(0.4)});
    plan.crashes.push_back({nth_client(3), frac(0.5), frac(0.65)});
  } else if (name == "server-crash") {
    // Two clean server outages; clients re-assert through the grace window.
    plan.allow_server_crash = true;
    plan.server_crashes.push_back({frac(0.25), frac(0.33)});
    plan.server_crashes.push_back({frac(0.6), frac(0.66)});
  } else if (name == "server-standby") {
    // Same outages, but a warm standby is promoted — the failover axis.
    plan.allow_server_crash = true;
    plan.warm_standby = true;
    plan.server_crashes.push_back({frac(0.25), frac(0.33)});
    plan.server_crashes.push_back({frac(0.6), frac(0.66)});
  } else if (name == "server-mixed") {
    // Lossy wire + one server outage + one client crash overlapping the
    // recovery tail: re-assertions themselves get dropped and retried.
    plan.allow_server_crash = true;
    plan.all_kinds.drop = 0.01;
    plan.all_kinds.duplicate = 0.005;
    plan.all_kinds.delay = 0.02;
    plan.extra_delay = sim::msec(15);
    plan.server_crashes.push_back({frac(0.4), frac(0.47)});
    plan.crashes.push_back({nth_client(2), frac(0.55), frac(0.7)});
  } else {
    throw std::invalid_argument("unknown chaos schedule: " +
                                std::string(name));
  }
  return plan;
}

std::vector<std::string_view> chaos_schedule_names() {
  return {"null-active", "lossy", "partition", "crashes", "mixed"};
}

std::vector<std::string_view> server_chaos_schedule_names() {
  return {"server-crash", "server-standby", "server-mixed"};
}

sim::Duration outage_jitter(std::uint64_t seed, std::uint64_t salt,
                            std::uint64_t attempt, sim::Duration bound) {
  if (bound <= sim::Duration::zero()) return sim::Duration::zero();
  // splitmix64 finalizer over the mixed inputs.
  std::uint64_t z = seed ^ (salt * UINT64_C(0x9e3779b97f4a7c15)) ^
                    (attempt * UINT64_C(0xbf58476d1ce4e5b9));
  z += UINT64_C(0x9e3779b97f4a7c15);
  z = (z ^ (z >> 30)) * UINT64_C(0xbf58476d1ce4e5b9);
  z = (z ^ (z >> 27)) * UINT64_C(0x94d049bb133111eb);
  z ^= z >> 31;
  const double fraction =
      static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  return bound * fraction;
}

sim::Duration RetryLoop::defer(FaultInjector& inj, sim::SimTime now,
                               std::uint64_t salt, sim::Duration fallback) {
  ++inj.stats().outage_deferrals;
  const FaultPlan& plan = inj.plan();
  const sim::SimTime restart = plan.server_restart_time(now);
  const sim::Duration gap =
      restart.finite() && restart > now ? restart - now : fallback;
  return gap + outage_jitter(inj.jitter_seed(), salt, ++deferrals_,
                             plan.outage_jitter_bound);
}

bool outage_dooms(FaultInjector& inj, sim::SimTime now, sim::SimTime deadline,
                  sim::Duration margin) {
  const sim::SimTime restart = inj.plan().server_restart_time(now);
  if (restart.finite() && deadline <= restart + margin) {
    ++inj.stats().deadline_early_aborts;
    return true;
  }
  return false;
}

std::string describe(const FaultPlan& plan) {
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "seed=%llu drop=%.3f dup=%.3f delay=%.3f(+%.0fms) "
                "partitions=%zu crashes=%zu force_active=%d "
                "server_crashes=%zu grace=%.0fms standby=%d "
                "failover=%.0fms recovery_disabled=%d",
                static_cast<unsigned long long>(plan.seed),
                plan.all_kinds.drop, plan.all_kinds.duplicate,
                plan.all_kinds.delay, plan.extra_delay.sec() * 1e3,
                plan.partitions.size(), plan.crashes.size(),
                plan.force_active ? 1 : 0, plan.server_crashes.size(),
                plan.server_recovery_grace.sec() * 1e3,
                plan.warm_standby ? 1 : 0,
                plan.standby_failover.sec() * 1e3,
                plan.recovery_disabled ? 1 : 0);
  return buf;
}

}  // namespace rtdb::fault
