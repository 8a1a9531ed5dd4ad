#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "net/fault_hook.hpp"
#include "net/message.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

/// \file fault.hpp
/// Deterministic fault injection: what can go wrong, when, and how often.
///
/// A FaultPlan is pure data — probabilities per message kind, timed
/// client<->server partitions, scheduled client crash/recover windows, and
/// the recovery-protocol tuning (timeouts, retry budgets). A FaultInjector
/// turns a plan into per-send verdicts from its *own* seeded stream, so a
/// given (plan, seed) perturbs a run identically every time: chaos runs are
/// replayable and their determinism digests are pinned just like the
/// fault-free ones. An empty plan installs nothing and the run is
/// byte-identical to a fault-free build (scripts/golden_digests.txt).

namespace rtdb::fault {

/// Perturbation probabilities for one message kind.
struct KindFaults {
  double drop = 0.0;       ///< P(frame transmitted but lost)
  double duplicate = 0.0;  ///< P(a second copy crosses the wire)
  double delay = 0.0;      ///< P(delivery delayed by FaultPlan::extra_delay)

  [[nodiscard]] bool any() const {
    return drop > 0 || duplicate > 0 || delay > 0;
  }
};

/// One timed client<->server partition: messages between the client and the
/// server (either direction) are dropped while now is in [start, end).
struct PartitionWindow {
  ClientId client = kInvalidClient;
  sim::SimTime start{};
  sim::SimTime end = sim::kTimeInfinity;
};

/// One scheduled client crash: at `start` the site loses all volatile state
/// (cache, local locks, in-flight transactions); at `end` it rejoins cold.
/// end == kTimeInfinity means the site never recovers.
struct CrashWindow {
  ClientId client = kInvalidClient;
  sim::SimTime start{};
  sim::SimTime end = sim::kTimeInfinity;
};

/// One scheduled *server* crash: at `start` the server loses all volatile
/// state (global lock table, forward lists, queued transactions); at `end`
/// it restarts and rebuilds via the epoch-leased recovery protocol — or, if
/// the plan arms a warm standby, the standby is promoted after
/// FaultPlan::standby_failover and the window effectively ends early.
struct ServerCrashWindow {
  sim::SimTime start{};
  sim::SimTime end = sim::kTimeInfinity;
};

/// The full, deterministic schedule of everything that will go wrong.
struct FaultPlan {
  /// Seed of the injector's private random stream (independent of the
  /// workload seed: the same chaos hits runs of different workloads).
  std::uint64_t seed = 1;

  /// Baseline probabilities applied to every message kind; per-kind
  /// overrides below replace the baseline for that kind.
  KindFaults all_kinds;
  std::array<KindFaults, net::kMessageKindCount> per_kind{};
  std::array<bool, net::kMessageKindCount> per_kind_set{};

  /// Extra delivery delay applied when a delay fault fires.
  sim::Duration extra_delay = sim::msec(20);

  std::vector<PartitionWindow> partitions;
  std::vector<CrashWindow> crashes;

  /// Capability gate: server crash windows are only honoured when this is
  /// set. Keeps legacy plans (which never imagined a crashable server)
  /// byte-identical and makes the blast radius of a schedule explicit.
  bool allow_server_crash = false;
  /// Scheduled server outages (sorted, non-overlapping; see validate()).
  std::vector<ServerCrashWindow> server_crashes;
  /// Grace window after a cold restart during which surviving lock holders
  /// re-assert their grants before the server serves new work.
  sim::Duration server_recovery_grace = sim::msec(600);
  /// Arm a warm standby: a backup that applies every lock-table mutation
  /// as the primary makes it, promoted standby_failover after a crash with
  /// the table as it stood at the crash instant, skipping the grace rebuild
  /// entirely (the window's effective end moves up).
  bool warm_standby = false;
  sim::Duration standby_failover = sim::msec(50);
  /// Bound of the seeded jitter added to client retries deferred across a
  /// server outage (decorrelates the post-restart retry thundering herd).
  sim::Duration outage_jitter_bound = sim::msec(40);
  /// Testing hook (rtdb_verify --no-recovery): the restarted server skips
  /// the epoch bump + grace rebuild and serves from an empty lock table —
  /// the WILL_FAIL gate proving recovery is what keeps ledgers clean.
  bool recovery_disabled = false;

  /// Treat the plan as active even when it injects nothing. Exercises the
  /// recovery machinery (timers, acks, idempotent handlers) on a healthy
  /// network — the "null chaos" gate.
  bool force_active = false;

  // --- recovery-protocol tuning (used only while a plan is active) --------
  /// Client re-sends an unanswered object-request batch after this long.
  sim::Duration request_timeout = sim::msec(400);
  /// Bounded retransmission budget per request/return.
  std::uint32_t max_retransmits = 3;
  /// Server re-sends an unanswered recall (callback) after this long.
  sim::Duration recall_timeout = sim::msec(600);
  /// Client re-sends an unacknowledged dirty object return after this long.
  sim::Duration return_timeout = sim::msec(400);
  /// Crash-to-declared-dead lag at the server (orphan-lock reclamation).
  sim::Duration detection_delay = sim::msec(800);
  /// Grace beyond the last entry's deadline before the server repairs a
  /// circulating forward list by re-shipping its own copy.
  sim::Duration circulation_grace = sim::msec(500);

  /// Sets a per-kind override.
  void set_kind(net::MessageKind kind, KindFaults f) {
    per_kind[static_cast<std::size_t>(kind)] = f;
    per_kind_set[static_cast<std::size_t>(kind)] = true;
  }

  /// True when the plan perturbs nothing and force_active is off: no
  /// injector is installed and runs are byte-identical to fault-free ones.
  [[nodiscard]] bool empty() const;

  /// Empty string when the plan is well-formed, else the first problem
  /// (probabilities outside [0,1], negative durations, inverted windows).
  [[nodiscard]] std::string validate() const;

  /// When the server actually comes back for window `w`: with a warm
  /// standby armed, promotion at start + standby_failover can pre-empt the
  /// scheduled end; without one, the scheduled end.
  [[nodiscard]] sim::SimTime effective_end(const ServerCrashWindow& w) const;

  /// True while the server is inside one of its (effective) crash windows.
  [[nodiscard]] bool server_down(sim::SimTime t) const;

  /// Effective end of the window covering `t` (kTimeInfinity when the
  /// server is up at `t` or never recovers).
  [[nodiscard]] sim::SimTime server_restart_time(sim::SimTime t) const;
};

/// Counters for every injected fault and every recovery action. The chaos
/// verifier proves each perturbed run accounts its faults here; the digest
/// folds into the run digest so chaos runs pin cross-build determinism.
struct FaultStats {
  // Injection side (counted by the injector).
  std::array<std::uint64_t, net::kMessageKindCount> drops_by_kind{};
  std::uint64_t dropped = 0;                ///< probabilistic wire losses
  std::uint64_t partition_drops = 0;        ///< losses due to partitions
  std::uint64_t crash_drops = 0;            ///< deliveries to a down site
  std::uint64_t duplicates = 0;             ///< duplicate frames transmitted
  std::uint64_t duplicates_suppressed = 0;  ///< dedup'd at the receiver
  std::uint64_t delays = 0;                 ///< delayed deliveries
  std::uint64_t crashes = 0;                ///< crash windows entered
  std::uint64_t recoveries = 0;             ///< crash windows left

  // Recovery side (counted by the protocol layers).
  std::uint64_t retransmits = 0;            ///< request batches re-sent
  std::uint64_t recall_retransmits = 0;     ///< recalls re-sent by server
  std::uint64_t return_retransmits = 0;     ///< dirty returns re-sent
  std::uint64_t duplicate_grants = 0;       ///< re-grants for lost grants
  std::uint64_t stale_grants_ignored = 0;   ///< grant payload older than cache
  std::uint64_t duplicate_requests_ignored = 0;
  std::uint64_t duplicate_returns_ignored = 0;
  std::uint64_t duplicate_validates_ignored = 0;
  std::uint64_t orphan_locks_reclaimed = 0;
  std::uint64_t queue_entries_reclaimed = 0;
  std::uint64_t forward_reroutes = 0;       ///< chain hops around dead sites
  std::uint64_t circulation_repairs = 0;    ///< watchdog re-ships
  std::uint64_t lost_versions = 0;          ///< accounted dirty-data losses
  std::uint64_t crash_wiped_pages = 0;
  std::uint64_t arrivals_while_down = 0;
  std::uint64_t candidates_filtered = 0;    ///< H1/H2 skipped dead sites
  std::uint64_t local_fallbacks = 0;        ///< ship/subtask ran locally

  // Server-outage side (windows accounted separately from client windows so
  // chaos replay digests distinguish them; recovery counters are bumped by
  // the epoch-leased rebuild protocol).
  std::uint64_t server_crashes = 0;          ///< server windows entered
  std::uint64_t server_recoveries = 0;       ///< grace-rebuild restarts
  std::uint64_t server_failovers = 0;        ///< warm-standby promotions
  std::uint64_t server_crash_drops = 0;      ///< deliveries to the down server
  std::uint64_t reasserts_sent = 0;          ///< re-registration batches sent
  std::uint64_t reasserts_accepted = 0;      ///< holder entries re-installed
  std::uint64_t duplicate_reasserts_ignored = 0;
  std::uint64_t stale_epoch_rejected = 0;    ///< pre-epoch grants/recalls
  std::uint64_t lease_expiries = 0;          ///< holders that missed the grace
  std::uint64_t outage_deferrals = 0;        ///< retries parked past restart
  std::uint64_t deadline_early_aborts = 0;   ///< slack < projected recovery
  std::uint64_t grace_parked = 0;            ///< batches parked during grace
  /// Lock-table mutator calls the armed standby applied (the server's
  /// GlobalLockTable::mutations(), copied in at the end of the run).
  std::uint64_t standby_mutations = 0;

  /// Total perturbations injected into the run.
  [[nodiscard]] std::uint64_t injected() const {
    return dropped + partition_drops + crash_drops + duplicates + delays +
           crashes + server_crashes + server_crash_drops;
  }

  /// FNV-1a over every counter (order-stable).
  [[nodiscard]] std::uint64_t digest() const;
};

/// Turns a FaultPlan into deterministic per-send verdicts; implements the
/// network's fault seam and carries the run's fault/recovery counters.
class FaultInjector final : public net::FaultHook {
 public:
  /// `jitter_seed` seeds the outage-retry jitter (RetryLoop): the run's
  /// workload seed, so the jitter follows the run rather than the plan.
  explicit FaultInjector(FaultPlan plan, std::uint64_t jitter_seed = 0);

  // net::FaultHook
  net::FaultVerdict judge(SiteId src, SiteId dst, net::MessageKind kind,
                          sim::SimTime now) override;
  bool judge_delivery(SiteId dst, sim::SimTime when) override;
  void on_duplicate_suppressed() override { ++stats_.duplicates_suppressed; }

  /// True while `site` is inside one of its crash windows (the server's
  /// windows count only when the plan allows server crashes).
  [[nodiscard]] bool down(SiteId site, sim::SimTime t) const;
  [[nodiscard]] bool down(ClientId client, sim::SimTime t) const {
    return down(site_of(client), t);
  }

  /// True while the server is inside one of its (effective) outage windows.
  [[nodiscard]] bool server_down(sim::SimTime t) const {
    return plan_.allow_server_crash && plan_.server_down(t);
  }

  /// True while messages between `a` and `b` are partitioned away.
  [[nodiscard]] bool partitioned(SiteId a, SiteId b, sim::SimTime t) const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] FaultStats& stats() { return stats_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t jitter_seed() const { return jitter_seed_; }

 private:
  [[nodiscard]] const KindFaults& faults_for(net::MessageKind kind) const;

  FaultPlan plan_;
  sim::Rng rng_;
  FaultStats stats_;
  std::uint64_t jitter_seed_;
};

/// Named chaos schedules used by rtdb_verify --chaos and the ctest gates.
/// `t0`/`t1` bound the measurement window so crash/partition windows land
/// inside it. Throws std::invalid_argument for an unknown name.
FaultPlan make_chaos_plan(std::string_view name, std::size_t num_clients,
                          sim::SimTime t0, sim::SimTime t1);

/// The library's schedule names, in a stable order.
std::vector<std::string_view> chaos_schedule_names();

/// Server-outage schedule names (rtdb_verify --chaos-server), in a stable
/// order. Kept separate from chaos_schedule_names() so the legacy chaos
/// digests never move.
std::vector<std::string_view> server_chaos_schedule_names();

/// Deterministic retry jitter for requests deferred across a server outage:
/// a pure splitmix64 hash of (seed, salt, attempt) scaled into [0, bound).
/// Stateless by design — it consumes no RNG stream, so arming it cannot
/// shift any other seeded draw.
sim::Duration outage_jitter(std::uint64_t seed, std::uint64_t salt,
                            std::uint64_t attempt, sim::Duration bound);

/// Which retry loop a jitter salt belongs to (the salt's low byte).
enum class RetryTag : std::uint8_t {
  kReturn = 1,    ///< client: dirty object return
  kRequest = 2,   ///< client: object-request batch
  kSubmit = 3,    ///< CE: terminal -> server transaction submit
  kFetch = 4,     ///< OCC: copy-fetch attempt
  kValidate = 5,  ///< OCC: commit-time validate request
};

/// Jitter salt of one loop instance: the site, the loop's key (a
/// transaction or object id) and its tag, packed so no two loops share a
/// jitter sequence. The client's re-assertion loop salts with its bare id.
[[nodiscard]] constexpr std::uint64_t retry_salt(std::uint64_t site,
                                                 std::uint64_t key,
                                                 RetryTag tag) {
  return (site << 40) ^ (key << 8) ^ static_cast<std::uint64_t>(tag);
}

/// The outage-aware retry policy shared by every loop that waits on the
/// server. While the server is down a firing is *deferred*: re-armed past
/// the projected restart plus a seeded jitter, so the fleet does not
/// stampede the new incarnation, without spending the retransmit budget.
/// While it is up a firing retries until `max_retransmits` tries are spent,
/// then gives up. The loop owns its two counters; the caller owns the timer
/// and supplies the salt, the fallback gap, and what deferring and giving
/// up mean.
class RetryLoop {
 public:
  /// One budget-free deferral at `now`: counts an outage deferral and
  /// returns the delay — the gap to the projected restart (`fallback` when
  /// no finite restart lies ahead) plus outage_jitter for this loop's next
  /// deferral number.
  sim::Duration defer(FaultInjector& inj, sim::SimTime now,
                      std::uint64_t salt, sim::Duration fallback);

  /// One firing of a bounded retransmission loop. Server down: calls
  /// on_defer(delay). Budget spent: calls give_up(), which may destroy this
  /// loop. Otherwise spends one try and returns true: retransmit now.
  template <class OnDefer, class GiveUp>
  bool fire(FaultInjector& inj, sim::SimTime now, std::uint64_t salt,
            sim::Duration fallback, OnDefer&& on_defer, GiveUp&& give_up) {
    if (inj.server_down(now)) {
      on_defer(defer(inj, now, salt, fallback));
      return false;
    }
    if (tries_ >= inj.plan().max_retransmits) {
      give_up();
      return false;
    }
    ++tries_;
    return true;
  }

  /// A fresh request restarts the budget; the deferral count (the jitter
  /// sequence) carries on.
  void restart_budget() { tries_ = 0; }

 private:
  std::uint32_t tries_ = 0;
  std::uint32_t deferrals_ = 0;
};

/// Deadline-aware early abort: true — counting one deadline_early_abort —
/// when a transaction due at `deadline` cannot outlive the server outage
/// under way at `now` plus `margin`. False while no finite restart is
/// projected (the server is up, or never comes back).
bool outage_dooms(FaultInjector& inj, sim::SimTime now, sim::SimTime deadline,
                  sim::Duration margin);

/// One-line human description of a plan (schedule dumps in CI artifacts).
std::string describe(const FaultPlan& plan);

}  // namespace rtdb::fault
