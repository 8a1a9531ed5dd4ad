#include "obs/telemetry.hpp"

#include <algorithm>
#include <string_view>

#include "common/perf.hpp"

namespace rtdb::obs {

namespace {

/// FNV-1a, the same construction tools/rtdb_verify uses.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

std::uint64_t blocker_key(ObjectId object, SiteId holder) {
  return (static_cast<std::uint64_t>(object.value()) << 32) ^
         static_cast<std::uint32_t>(holder.value());
}

}  // namespace

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kOpen: return "open";
    case Outcome::kCommitted: return "committed";
    case Outcome::kMissed: return "missed";
    case Outcome::kAborted: return "aborted";
  }
  return "?";
}

const char* to_string(WaitBucket b) {
  switch (b) {
    case WaitBucket::kQueue: return "queue";
    case WaitBucket::kLock: return "lock";
    case WaitBucket::kNet: return "network";
    case WaitBucket::kDisk: return "disk";
    case WaitBucket::kNone: return "none";
  }
  return "?";
}

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kMsgSend: return "msg_send";
    case EventKind::kLockQueued: return "lock_queued";
    case EventKind::kLockGrant: return "lock_grant";
    case EventKind::kLockRecall: return "lock_recall";
    case EventKind::kLockReturn: return "lock_return";
    case EventKind::kForwardHop: return "forward_hop";
    case EventKind::kWindowOpen: return "window_open";
    case EventKind::kCirculate: return "circulate";
    case EventKind::kExpiredSkip: return "expired_skip";
    case EventKind::kTxnAdmit: return "txn_admit";
    case EventKind::kTxnReady: return "txn_ready";
    case EventKind::kTxnExec: return "txn_exec";
    case EventKind::kTxnCommit: return "txn_commit";
    case EventKind::kTxnMiss: return "txn_miss";
    case EventKind::kTxnAbort: return "txn_abort";
    case EventKind::kTxnShip: return "txn_ship";
    case EventKind::kTxnDecompose: return "txn_decompose";
    case EventKind::kTxnRestart: return "txn_restart";
    case EventKind::kOccValidate: return "occ_validate";
    case EventKind::kCacheEvict: return "cache_evict";
    case EventKind::kSiteCrash: return "site_crash";
    case EventKind::kSiteRecover: return "site_recover";
    case EventKind::kSiteDead: return "site_dead";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kFaultReroute: return "fault_reroute";
    case EventKind::kFaultRepair: return "fault_repair";
  }
  return "?";
}

EventCategory category_of(EventKind k) {
  switch (k) {
    case EventKind::kMsgSend: return EventCategory::kNet;
    case EventKind::kLockQueued:
    case EventKind::kLockGrant:
    case EventKind::kLockRecall:
    case EventKind::kLockReturn:
    case EventKind::kExpiredSkip: return EventCategory::kLock;
    case EventKind::kForwardHop:
    case EventKind::kWindowOpen:
    case EventKind::kCirculate: return EventCategory::kWindow;
    case EventKind::kTxnAdmit:
    case EventKind::kTxnReady:
    case EventKind::kTxnExec:
    case EventKind::kTxnCommit:
    case EventKind::kTxnMiss:
    case EventKind::kTxnAbort:
    case EventKind::kTxnRestart:
    case EventKind::kOccValidate: return EventCategory::kTxn;
    case EventKind::kTxnShip:
    case EventKind::kTxnDecompose: return EventCategory::kShip;
    case EventKind::kCacheEvict: return EventCategory::kCache;
    case EventKind::kSiteCrash:
    case EventKind::kSiteRecover:
    case EventKind::kSiteDead:
    case EventKind::kRetransmit:
    case EventKind::kFaultReroute:
    case EventKind::kFaultRepair: return EventCategory::kFault;
  }
  return EventCategory::kNet;  // unreachable: the switch is exhaustive
}

const char* to_string(EventCategory c) {
  switch (c) {
    case EventCategory::kLock: return "lock";
    case EventCategory::kCache: return "cache";
    case EventCategory::kNet: return "net";
    case EventCategory::kTxn: return "txn";
    case EventCategory::kWindow: return "window";
    case EventCategory::kShip: return "ship";
    case EventCategory::kFault: return "fault";
  }
  return "?";
}

std::uint32_t parse_categories(const char* spec) {
  std::uint32_t mask = 0;
  std::string_view rest = spec != nullptr ? spec : "";
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view token = rest.substr(0, comma);
    if (token == "all") mask = kAllCategories;
    for (std::uint32_t bit = 1; bit <= kAllCategories; bit <<= 1) {
      if (token == to_string(static_cast<EventCategory>(bit))) mask |= bit;
    }
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return mask;
}

WaitBucket TxnSpan::dominant_wait() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kWaitBucketCount; ++i) {
    if (wait[i] > wait[best]) best = i;
  }
  if (wait[best] <= 0) return WaitBucket::kNone;
  return static_cast<WaitBucket>(best);
}

std::uint64_t MissAttribution::total() const {
  std::uint64_t t = unattributed;
  for (const auto m : misses) t += m;
  for (const auto a : aborts) t += a;
  return t;
}

void Telemetry::configure(const TelemetryConfig& config) { config_ = config; }

TxnSpan* Telemetry::find_span(TxnId id) {
  const auto it = spans_.find(id);
  return it == spans_.end() ? nullptr : &it->second;
}

void Telemetry::txn_admit(TxnId id, SiteId origin, sim::SimTime arrival,
                          sim::SimTime deadline, sim::SimTime now) {
  if (!config_.spans) return;
  RTDB_PERF_TIMER(kTelemetry);
  RTDB_PERF_ALLOC_SCOPE(kObs);
  RTDB_PERF_COUNT(kTelSpanOps);
  auto [it, inserted] = spans_.try_emplace(id);
  if (!inserted) return;  // re-admission at a remote site; txn_hop covers it
  TxnSpan& s = it->second;
  s.id = id;
  s.origin = origin;
  s.arrival = arrival;
  s.deadline = deadline;
  s.admit = now;
}

void Telemetry::txn_hop(TxnId id, SiteId site, sim::SimTime now) {
  (void)site;
  (void)now;
  if (!config_.spans) return;
  if (TxnSpan* s = find_span(id)) ++s->hops;
}

void Telemetry::txn_ready(TxnId id, sim::SimTime now) {
  if (!config_.spans) return;
  TxnSpan* s = find_span(id);
  if (!s) return;
  if (s->first_ready < sim::SimTime::zero()) s->first_ready = now;
  s->last_ready = now;
}

void Telemetry::txn_exec_start(TxnId id, sim::SimTime now) {
  if (!config_.spans) return;
  TxnSpan* s = find_span(id);
  if (!s) return;
  if (s->first_exec < sim::SimTime::zero()) s->first_exec = now;
  if (s->last_ready >= sim::SimTime::zero()) {
    s->wait[static_cast<std::size_t>(WaitBucket::kQueue)] +=
        (now - s->last_ready).sec();
    s->last_ready = kUnsetTime;
  }
}

void Telemetry::txn_dequeued(TxnId id, sim::SimTime now) {
  if (!config_.spans) return;
  TxnSpan* s = find_span(id);
  if (!s || s->last_ready < sim::SimTime::zero()) return;
  s->wait[static_cast<std::size_t>(WaitBucket::kQueue)] +=
      (now - s->last_ready).sec();
  s->last_ready = kUnsetTime;
}

void Telemetry::txn_restart(TxnId id, sim::SimTime now) {
  (void)now;
  if (!config_.spans) return;
  if (TxnSpan* s = find_span(id)) ++s->restarts;
}

void Telemetry::txn_end(TxnId id, Outcome outcome, sim::SimTime now) {
  if (!config_.spans) return;
  RTDB_PERF_TIMER(kTelemetry);
  RTDB_PERF_ALLOC_SCOPE(kObs);
  RTDB_PERF_COUNT(kTelSpanOps);
  TxnSpan* s = find_span(id);
  if (!s || s->outcome != Outcome::kOpen) return;
  s->outcome = outcome;
  s->end = now;
  if (s->last_ready >= sim::SimTime::zero()) {  // died waiting in a queue
    s->wait[static_cast<std::size_t>(WaitBucket::kQueue)] +=
        (now - s->last_ready).sec();
    s->last_ready = kUnsetTime;
  }
  // Lock requests still queued at death blocked the transaction to the end.
  const auto it = pending_locks_.find(id);
  if (it != pending_locks_.end()) {
    for (auto& rec : it->second) {
      if (rec.lock_wait < 0) {
        const double waited = (now - rec.queued_at).sec();
        s->wait[static_cast<std::size_t>(WaitBucket::kLock)] += waited;
        note_blocker(*s, rec.object, rec.holder, waited);
      }
    }
    pending_locks_.erase(it);
  }
}

void Telemetry::note_blocker(TxnSpan& s, ObjectId object, SiteId holder,
                             double wait) {
  if (wait > s.worst_object_wait) {
    s.worst_object_wait = wait;
    s.worst_object = object;
    s.worst_holder = holder;
  }
}

void Telemetry::lock_queued(TxnId txn, ObjectId object, SiteId holder,
                            sim::SimTime now) {
  if (!config_.spans) return;
  if (!spans_.count(txn)) return;
  pending_locks_[txn].push_back(PendingLock{object, holder, now, -1, false});
}

void Telemetry::lock_served(TxnId txn, ObjectId object, sim::SimTime now) {
  if (!config_.spans) return;
  const auto it = pending_locks_.find(txn);
  if (it == pending_locks_.end()) return;
  for (auto& rec : it->second) {
    if (rec.object == object && rec.lock_wait < 0) {
      rec.lock_wait = (now - rec.queued_at).sec();
      if (TxnSpan* s = find_span(txn)) {
        s->wait[static_cast<std::size_t>(WaitBucket::kLock)] += rec.lock_wait;
        note_blocker(*s, object, rec.holder, rec.lock_wait);
      }
      return;
    }
  }
}

void Telemetry::object_wait(TxnId txn, ObjectId object, sim::Duration total) {
  if (!config_.spans) return;
  TxnSpan* s = find_span(txn);
  if (!s) return;
  // The server-side queued portion (recorded by lock_queued/lock_served)
  // already went to the lock bucket; the remainder is protocol + wire time.
  double lock_part = 0;
  const auto it = pending_locks_.find(txn);
  if (it != pending_locks_.end()) {
    for (auto& rec : it->second) {
      if (rec.object == object && rec.lock_wait >= 0 && !rec.consumed) {
        rec.consumed = true;
        lock_part = rec.lock_wait;
        break;
      }
    }
  }
  const double net_part = std::max(0.0, total.sec() - lock_part);
  s->wait[static_cast<std::size_t>(WaitBucket::kNet)] += net_part;
  if (lock_part <= 0) note_blocker(*s, object, kInvalidSite, total.sec());
}

void Telemetry::add_wait(TxnId txn, WaitBucket bucket, sim::Duration d) {
  if (!config_.spans || d <= sim::Duration::zero()) return;
  if (TxnSpan* s = find_span(txn)) {
    s->wait[static_cast<std::size_t>(bucket)] += d.sec();
  }
}

void Telemetry::server_disk_wait(TxnId txn, ObjectId object, sim::Duration d) {
  if (!config_.spans || d <= sim::Duration::zero()) return;
  TxnSpan* s = find_span(txn);
  if (!s) return;
  s->wait[static_cast<std::size_t>(WaitBucket::kDisk)] += d.sec();
  // Fold the disk seconds into the served lock record (or a synthetic one
  // for never-queued grants) so the client-side object_wait subtracts them
  // from the observed round trip instead of booking them as network.
  auto& recs = pending_locks_[txn];
  for (auto& rec : recs) {
    if (rec.object == object && rec.lock_wait >= 0 && !rec.consumed) {
      rec.lock_wait += d.sec();
      return;
    }
  }
  recs.push_back(PendingLock{object, kInvalidSite, sim::SimTime{}, d.sec(),
                             false});
}

void Telemetry::attribute_outcome(TxnId id, Outcome outcome) {
  if (!config_.spans) return;
  TxnSpan* s = find_span(id);
  auto& table =
      outcome == Outcome::kAborted ? attribution_.aborts : attribution_.misses;
  if (!s) {
    ++attribution_.unattributed;
    return;
  }
  const WaitBucket dom = s->dominant_wait();
  ++table[static_cast<std::size_t>(dom)];
  if (s->worst_object_wait > 0) {
    auto& row = blockers_[blocker_key(s->worst_object, s->worst_holder)];
    row.object = s->worst_object;
    row.holder = s->worst_holder;
    ++row.txns;
    row.total_wait += s->worst_object_wait;
  }
}

void Telemetry::add_unattributed(std::uint64_t n) {
  if (!config_.spans) return;
  attribution_.unattributed += n;
}

void Telemetry::event(EventKind kind, sim::SimTime t, SiteId site, TxnId txn,
                      ObjectId object, std::int32_t a, std::int32_t b,
                      double v) {
  if (!config_.events) return;
  RTDB_PERF_TIMER(kTelemetry);
  RTDB_PERF_ALLOC_SCOPE(kObs);
  RTDB_PERF_COUNT(kTelEventsRecorded);
  if (events_.size() >= config_.event_capacity) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(Event{t, kind, site, txn, object, a, b, v});
}

void Telemetry::begin_frame(sim::SimTime t) { sample_times_.push_back(t); }

void Telemetry::sample(const char* series, double value) {
  RTDB_PERF_TIMER(kTelemetry);
  RTDB_PERF_ALLOC_SCOPE(kObs);
  RTDB_PERF_COUNT(kTelSamples);
  const auto [it, inserted] = series_index_.try_emplace(series, series_.size());
  if (inserted) series_.push_back(Series{series, {}});
  auto& s = series_[it->second];
  // Back-fill frames recorded before this series first appeared.
  while (s.values.size() + 1 < sample_times_.size()) s.values.push_back(0);
  if (s.values.size() < sample_times_.size()) s.values.push_back(value);
}

void Telemetry::end_frame() {
  for (auto& s : series_) {
    while (s.values.size() < sample_times_.size()) s.values.push_back(0);
  }
}

std::vector<const TxnSpan*> Telemetry::spans_sorted() const {
  std::vector<const TxnSpan*> out;
  out.reserve(spans_.size());
  // rtdb-lint: allow(unordered-iter) order-insensitive: collected into a
  // vector and sorted by txn id below before anything downstream reads it
  for (const auto& [id, span] : spans_) out.push_back(&span);
  std::sort(out.begin(), out.end(),
            [](const TxnSpan* a, const TxnSpan* b) { return a->id < b->id; });
  return out;
}

std::vector<BlockerRow> Telemetry::top_blockers(std::size_t n) const {
  std::vector<BlockerRow> rows;
  rows.reserve(blockers_.size());
  // rtdb-lint: allow(unordered-iter) order-insensitive: rows are sorted by
  // (total_wait, object, holder) below — a total order, since (object,
  // holder) is the map key
  for (const auto& [key, row] : blockers_) rows.push_back(row);
  std::sort(rows.begin(), rows.end(),
            [](const BlockerRow& a, const BlockerRow& b) {
              if (a.total_wait != b.total_wait) {
                return a.total_wait > b.total_wait;
              }
              if (a.object != b.object) return a.object < b.object;
              return a.holder < b.holder;
            });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

std::uint64_t Telemetry::digest() const {
  Fnv d;
  d.u64(spans_.size());
  for (const TxnSpan* s : spans_sorted()) {
    d.u64(s->id.value());
    d.u64(static_cast<std::uint64_t>(s->outcome));
    d.f64(s->admit.sec());
    d.f64(s->first_ready.sec());
    d.f64(s->first_exec.sec());
    d.f64(s->end.sec());
    for (const double w : s->wait) d.f64(w);
    d.u64(s->worst_object.value());
    d.i64(s->worst_holder.value());
    d.f64(s->worst_object_wait);
    d.u64(s->hops);
    d.u64(s->restarts);
  }
  d.u64(events_.size());
  d.u64(dropped_);
  for (const Event& e : events_) {
    d.f64(e.t.sec());
    d.u64(static_cast<std::uint64_t>(e.kind));
    d.i64(e.site.value());
    d.u64(e.txn.value());
    d.u64(e.object.value());
    d.i64(e.a);
    d.i64(e.b);
    d.f64(e.v);
  }
  for (const auto m : attribution_.misses) d.u64(m);
  for (const auto a : attribution_.aborts) d.u64(a);
  d.u64(attribution_.unattributed);
  for (const auto& row : top_blockers(16)) {
    d.u64(row.object.value());
    d.i64(row.holder.value());
    d.u64(row.txns);
    d.f64(row.total_wait);
  }
  d.u64(sample_times_.size());
  for (const auto t : sample_times_) d.f64(t.sec());
  d.u64(series_.size());
  for (const auto& s : series_) {
    d.bytes(s.name.data(), s.name.size());
    d.u64(s.values.size());
    for (const double v : s.values) d.f64(v);
  }
  return d.value();
}

void Telemetry::clear() {
  spans_.clear();
  pending_locks_.clear();
  events_.clear();
  dropped_ = 0;
  attribution_ = MissAttribution{};
  blockers_.clear();
  sample_times_.clear();
  series_.clear();
  series_index_.clear();
}

}  // namespace rtdb::obs
