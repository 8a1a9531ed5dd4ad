#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "sim/time.hpp"

/// \file telemetry.hpp
/// First-class telemetry for the prototypes: per-transaction lifecycle
/// spans (admit -> queue-wait -> lock-wait per object -> execute -> hops ->
/// outcome), typed protocol events (messages, grants, recalls, forwards),
/// fixed-interval gauge series, and a deadline-miss attribution table.
///
/// Design rules:
///  * near-zero cost when disabled — every call site is guarded by a single
///    branch on spans_enabled()/events_enabled();
///  * purely passive — recording never schedules, cancels or mutates
///    simulation state, so enabling telemetry cannot change a run's
///    determinism digest;
///  * deterministic — containers are only ever iterated in insertion or
///    id-sorted order, so two replays of the same seed produce bit-identical
///    telemetry (rtdb_verify folds Telemetry::digest() into its proofs).

namespace rtdb::obs {

/// Final state of a span. kOpen means the transaction never reached a
/// terminal outcome before export.
enum class Outcome : std::uint8_t { kOpen = 0, kCommitted, kMissed, kAborted };

const char* to_string(Outcome o);

/// Wait buckets a transaction's non-executing time is attributed to.
enum class WaitBucket : std::uint8_t {
  kQueue = 0,  ///< EDF/admission queue wait (H1's territory)
  kLock,       ///< blocked behind conflicting lock holders (H2's territory)
  kNet,        ///< wire + protocol round trips
  kDisk,       ///< storage service time
  kNone,       ///< no dominant wait (execution filled the span)
};

inline constexpr std::size_t kWaitBucketCount = 4;  ///< attributable buckets

const char* to_string(WaitBucket b);

/// "Not yet recorded" sentinel for span timestamps (valid instants are
/// always >= 0, so any negative tick means unset).
inline constexpr sim::SimTime kUnsetTime{-1.0};

/// One transaction's lifecycle record.
struct TxnSpan {
  TxnId id = kInvalidTxn;
  SiteId origin = kInvalidSite;
  sim::SimTime arrival{};
  sim::SimTime deadline{};
  sim::SimTime admit = kUnsetTime;       ///< span creation
  sim::SimTime first_ready = kUnsetTime; ///< first push into a ready queue
  sim::SimTime first_exec = kUnsetTime;  ///< first executor slot occupancy
  sim::SimTime end = kUnsetTime;         ///< terminal outcome instant
  Outcome outcome = Outcome::kOpen;

  /// Accumulated waits, indexed by WaitBucket (kQueue..kDisk).
  std::array<double, kWaitBucketCount> wait{};

  /// The single object this transaction waited longest on, and the site
  /// that held the conflicting lock when the wait began (kInvalidSite when
  /// the wait was not a lock conflict).
  ObjectId worst_object{};
  SiteId worst_holder = kInvalidSite;
  double worst_object_wait = 0;

  std::uint32_t hops = 0;      ///< ship/decompose arrivals at other sites
  std::uint32_t restarts = 0;  ///< deadlock/validation restarts

  [[nodiscard]] double total_wait() const {
    return wait[0] + wait[1] + wait[2] + wait[3];
  }

  /// Bucket with the largest accumulated wait; kNone when nothing waited.
  [[nodiscard]] WaitBucket dominant_wait() const;

  // Internal bookkeeping for open queue-wait episodes (a transaction can
  // re-enter the ready queue after a restart).
  sim::SimTime last_ready = kUnsetTime;
};

/// Typed protocol events: the simulator's one event vocabulary. Field use
/// and category per kind are tabulated in docs/observability.md.
enum class EventKind : std::uint8_t {
  kMsgSend = 0,  ///< site -> a: b = net::MessageKind, v = frame bytes
  kLockQueued,   ///< txn queued on object at server; a = holder site
  kLockGrant,    ///< server granted object to site a (b = 1 exclusive)
  kLockRecall,   ///< server recalled object from site a
  kLockReturn,   ///< site returned object to server
  kForwardHop,   ///< client forwarded object to site a (forward list)
  kWindowOpen,   ///< collection window opened on object
  kCirculate,    ///< forward list dispatched; v = group size
  kExpiredSkip,  ///< queued request dropped (its txn already dead)
  kTxnAdmit,     ///< span created
  kTxnReady,     ///< pushed into a ready queue
  kTxnExec,      ///< claimed an executor slot
  kTxnCommit,
  kTxnMiss,
  kTxnAbort,
  kTxnShip,      ///< shipped to site a
  kTxnDecompose, ///< split into v sub-tasks
  kTxnRestart,   ///< deadlock/OCC restart
  kOccValidate,  ///< validation performed; b = 1 rejected
  kCacheEvict,   ///< client cache evicted object
  // Fault injection / recovery (only emitted while a FaultPlan is active).
  kSiteCrash,    ///< scheduled crash window entered (client or server)
  kSiteRecover,  ///< crashed site back (client cold; server restarted or
                 ///< its standby promoted)
  kSiteDead,     ///< server declared client site a dead
  kRetransmit,   ///< request/validation (txn) or recall/return (object)
                 ///< re-sent; a = recalled site for a recall
  kFaultReroute, ///< forward list re-routed around down site a
  kFaultRepair,  ///< circulation watchdog re-shipped the server copy
};

const char* to_string(EventKind k);

/// Coarse event categories, the RTDB_TRACE vocabulary. Every EventKind
/// belongs to exactly one; the values are bits of a category mask.
enum class EventCategory : std::uint32_t {
  kLock = 1u << 0,    ///< lock queueing, grants, recalls, returns
  kCache = 1u << 1,   ///< client cache evictions
  kNet = 1u << 2,     ///< wire messages
  kTxn = 1u << 3,     ///< lifecycle: admit, ready, exec, outcome, restart
  kWindow = 1u << 4,  ///< collection windows and forward lists
  kShip = 1u << 5,    ///< transaction shipping and decomposition
  kFault = 1u << 6,   ///< crashes, recoveries, retransmits, re-routes
};

/// Mask with every category set.
inline constexpr std::uint32_t kAllCategories = (1u << 7) - 1;

EventCategory category_of(EventKind k);

const char* to_string(EventCategory c);

/// Parses an RTDB_TRACE spec into a category mask: a comma-separated list
/// of category names, or `all`. Unknown names are ignored; a null or empty
/// spec yields 0.
std::uint32_t parse_categories(const char* spec);

/// One recorded event. `a`, `b` and `v` are kind-specific (see EventKind).
struct Event {
  sim::SimTime t{};
  EventKind kind{};
  SiteId site = kInvalidSite;
  TxnId txn = kInvalidTxn;
  ObjectId object{};
  std::int32_t a = 0;
  std::int32_t b = 0;
  double v = 0;
};

/// What to record. Everything defaults off; rtdbctl enables the pieces its
/// --trace-out/--metrics-out flags need.
struct TelemetryConfig {
  bool spans = false;   ///< lifecycle spans + miss attribution
  bool events = false;  ///< typed event stream (trace export)

  /// Bounded event ring: oldest events are dropped (and counted) past this.
  std::size_t event_capacity = 1u << 20;

  /// Fixed-interval gauge sampling period in sim seconds; 0 = off. The
  /// probe follows the same passive, between-events discipline as the
  /// PR-1 structure-audit hook.
  sim::Duration sample_interval{};
};

/// Per-run deadline-miss postmortem: for every measured missed/aborted
/// transaction, which wait bucket dominated its lifetime.
struct MissAttribution {
  /// Misses/aborts by dominant bucket, indexed by WaitBucket kQueue..kDisk;
  /// index kWaitBucketCount ( = kNone) collects spans that never waited.
  std::array<std::uint64_t, kWaitBucketCount + 1> misses{};
  std::array<std::uint64_t, kWaitBucketCount + 1> aborts{};

  /// Safety-net misses (run() drain accounting) with no span to attribute.
  std::uint64_t unattributed = 0;

  [[nodiscard]] std::uint64_t total() const;
};

/// One row of the "which object blocked missed transactions" table.
struct BlockerRow {
  ObjectId object{};
  SiteId holder = kInvalidSite;
  std::uint64_t txns = 0;     ///< missed/aborted txns this pair dominated
  double total_wait = 0;      ///< their summed worst-object waits
};

/// One named gauge series sampled at a fixed interval.
struct Series {
  std::string name;
  std::vector<double> values;  ///< aligned with Telemetry::sample_times()
};

class Telemetry {
 public:
  void configure(const TelemetryConfig& config);
  [[nodiscard]] const TelemetryConfig& config() const { return config_; }

  [[nodiscard]] bool spans_enabled() const { return config_.spans; }
  [[nodiscard]] bool events_enabled() const { return config_.events; }
  [[nodiscard]] bool sampling_enabled() const {
    return config_.sample_interval > sim::Duration::zero();
  }
  [[nodiscard]] bool active() const {
    return spans_enabled() || events_enabled() || sampling_enabled();
  }

  // --- span lifecycle -------------------------------------------------------
  // All span calls are cheap no-ops when spans are disabled; call sites
  // still guard with spans_enabled() to keep the disabled cost to one
  // branch.

  /// Creates the span (idempotent: a second admit for the same id — e.g. a
  /// shipped transaction re-admitted at the remote site — is ignored).
  void txn_admit(TxnId id, SiteId origin, sim::SimTime arrival,
                 sim::SimTime deadline, sim::SimTime now);

  /// Records arrival of the transaction at another site (ship/decompose).
  void txn_hop(TxnId id, SiteId site, sim::SimTime now);

  void txn_ready(TxnId id, sim::SimTime now);
  void txn_exec_start(TxnId id, sim::SimTime now);

  /// Closes an open queue episode without marking execution (the
  /// transaction left an admission queue for further acquisition phases,
  /// not an executor slot).
  void txn_dequeued(TxnId id, sim::SimTime now);

  void txn_restart(TxnId id, sim::SimTime now);

  /// Closes the span (idempotent: the first terminal outcome wins).
  void txn_end(TxnId id, Outcome outcome, sim::SimTime now);

  // --- wait attribution -----------------------------------------------------

  /// Server-side: the request for `object` by `txn` was queued behind a
  /// conflicting holder.
  void lock_queued(TxnId txn, ObjectId object, SiteId holder,
                   sim::SimTime now);

  /// Server-side: the queued request was finally served.
  void lock_served(TxnId txn, ObjectId object, sim::SimTime now);

  /// Client-side: the object request round trip completed after `total`
  /// seconds. The server-side queued portion (if any) counts as lock wait;
  /// the remainder as network wait.
  void object_wait(TxnId txn, ObjectId object, sim::Duration total);

  /// Direct attribution into a bucket (local lock manager, disk service).
  void add_wait(TxnId txn, WaitBucket bucket, sim::Duration d);

  /// Server-side: reading `object` off the paged file before granting it to
  /// `txn` took `d` seconds. Counts as disk wait AND joins the server-side
  /// portion the client's object_wait subtracts from its round trip, so the
  /// same seconds are not double-counted as network wait.
  void server_disk_wait(TxnId txn, ObjectId object, sim::Duration d);

  // --- outcome attribution --------------------------------------------------

  /// Called once per *measured* missed/aborted transaction (from the
  /// System::record chokepoint) — feeds the miss-attribution table, so
  /// its totals reconcile exactly with RunMetrics::missed + aborted.
  void attribute_outcome(TxnId id, Outcome outcome);

  /// Drain-safety-net misses that never had a recorded outcome.
  void add_unattributed(std::uint64_t n);

  // --- typed events ---------------------------------------------------------

  void event(EventKind kind, sim::SimTime t, SiteId site,
             TxnId txn = kInvalidTxn, ObjectId object = ObjectId{},
             std::int32_t a = 0, std::int32_t b = 0, double v = 0);

  // --- gauge sampling -------------------------------------------------------

  /// Starts a sample frame at time `t`; subsequent sample() calls fill it.
  void begin_frame(sim::SimTime t);

  /// Records one gauge value in the current frame. Series are created on
  /// first use and keyed by (stable) name.
  void sample(const char* series, double value);

  /// Closes the frame, padding series missing from it with 0.
  void end_frame();

  // --- export access --------------------------------------------------------

  [[nodiscard]] const std::deque<Event>& events() const { return events_; }
  [[nodiscard]] std::uint64_t events_dropped() const { return dropped_; }

  /// All spans, sorted by transaction id (deterministic export order).
  [[nodiscard]] std::vector<const TxnSpan*> spans_sorted() const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  [[nodiscard]] const MissAttribution& attribution() const {
    return attribution_;
  }

  /// Top-n (object, holder) pairs by total dominated wait of missed/aborted
  /// transactions.
  [[nodiscard]] std::vector<BlockerRow> top_blockers(std::size_t n) const;

  [[nodiscard]] const std::vector<sim::SimTime>& sample_times() const {
    return sample_times_;
  }
  [[nodiscard]] const std::vector<Series>& series() const { return series_; }

  /// FNV-1a digest of every exported span, event, blocker row and sample
  /// field (the same fields the JSONL/Perfetto writers emit) — folded into
  /// rtdb_verify's determinism proof so a nondeterministic probe or
  /// exporter ordering fails the existing ctest gates.
  [[nodiscard]] std::uint64_t digest() const;

  void clear();

 private:
  struct PendingLock {
    ObjectId object{};
    SiteId holder = kInvalidSite;
    sim::SimTime queued_at{};
    double lock_wait = -1;  ///< filled by lock_served; -1 = still queued
    bool consumed = false;  ///< matched to a client-side object_wait
  };

  TxnSpan* find_span(TxnId id);
  void note_blocker(TxnSpan& s, ObjectId object, SiteId holder, double wait);

  TelemetryConfig config_;

  std::unordered_map<TxnId, TxnSpan> spans_;
  std::unordered_map<TxnId, std::vector<PendingLock>> pending_locks_;

  std::deque<Event> events_;
  std::uint64_t dropped_ = 0;

  MissAttribution attribution_;
  /// Keyed by (object, holder); deterministic export via sorted copy.
  std::unordered_map<std::uint64_t, BlockerRow> blockers_;

  std::vector<sim::SimTime> sample_times_;
  std::vector<Series> series_;
  std::unordered_map<std::string, std::size_t> series_index_;
};

}  // namespace rtdb::obs
