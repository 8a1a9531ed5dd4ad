#include "core/client_node.hpp"

#include <algorithm>
#include <cassert>

#include "common/check.hpp"
#include "core/client_server.hpp"
#include "obs/telemetry.hpp"
#include "txn/decompose.hpp"

namespace rtdb::core {

using lock::LockMode;

ClientNode::ClientNode(ClientServerSystem& sys, ClientId id, std::size_t index)
    : sys_(sys),
      id_(id),
      site_(site_of(id)),
      index_(index),
      cache_(sys.sim(), sys.cfg().client_cache),
      cpu_(sys.sim()),
      exec_(*this, sys.sim(), sys.telemetry(), site_,
            sys.cfg().client_executor_slots, &llm_,
            RestartRule{sys.cfg().deadlock_retries,
                        sys.cfg().deadlock_backoff}) {
  cache_.set_eviction_hook(
      [this](ObjectId obj, bool dirty, std::uint64_t version) {
        on_cache_eviction(obj, dirty, version);
      });
}

lock::LockMode ClientNode::cached_server_mode(ObjectId obj) const {
  return server_mode_.value_or_default(obj);
}

LoadInfo ClientNode::current_load() const {
  LoadInfo info;
  info.live_txns = live_count();
  info.atl =
      atl_.count() ? atl_.mean() : sys_.cfg().workload.mean_length.sec();
  return info;
}

void ClientNode::reset_stats() {
  cache_.reset_stats();
  cpu_.reset_stats();
}

void ClientNode::validate_invariants() const {
  llm_.validate_invariants();
  cache_.validate_invariants();
  exec_.validate_invariants();
  // Forward duties must be consistent: a duty bound to a transaction names
  // one that is still live here.
  for (const auto& [obj, duty] : duties_) {
    if (duty.bound != kInvalidTxn) {
      RTDB_CHECK(live_.count(duty.bound) != 0,
                 "obj %u forward duty bound to dead txn %llu", obj.value(),
                 static_cast<unsigned long long>(duty.bound.value()));
    }
  }
}

void ClientNode::update_atl(const txn::Transaction& t,
                            sim::SimTime commit_time) {
  atl_.add((commit_time - t.arrival).sec());
}

// ---------------------------------------------------------------------------
// Arrival and placement decisions
// ---------------------------------------------------------------------------

void ClientNode::on_new_transaction(txn::Transaction t) {
  if (crashed_) {
    // Manual-driver path only: System gates workload arrivals while the
    // site is down, but a bootstrap harness may inject directly.
    sys_.note(t, txn::TxnState::kMissed);
    return;
  }
  begin(std::move(t), site_);
}

// ---------------------------------------------------------------------------
// Fault injection: crash / recover / return acknowledgments
// ---------------------------------------------------------------------------

void ClientNode::crash() {
  if (crashed_) return;
  crashed_ = true;
  const sim::SimTime now = sys_.sim().now();

  // Live transactions die with the site. No protocol traffic leaves a
  // crashing node: origin-owned work records its miss directly; work run on
  // another site's behalf simply vanishes (the origin's own deadline timer
  // accounts it, so nothing is lost silently and nothing double-counts).
  for (auto& [id, live] : live_) {
    sys_.sim().cancel(live->deadline_timer);
    sys_.sim().cancel(live->retry_timer);
    llm_.release_all(id);
    if (sys_.telemetry().spans_enabled()) {
      sys_.telemetry().txn_end(id, obs::Outcome::kMissed, now);
    }
    if (owns_outcome(*live)) sys_.note(live->t, txn::TxnState::kMissed);
  }
  live_.clear();
  exec_.clear();

  // Origin-side records of work running elsewhere: the answers will never
  // be received here, so their outcomes resolve now, in id order.
  for (TxnId id : sorted_keys(away_)) {
    const Away& rec = away_.at(id);
    sys_.sim().cancel(rec.deadline_timer);
    sys_.note(rec.t, txn::TxnState::kMissed);
  }
  away_.clear();

  // Dirty returns still awaiting their ack: the retransmission state dies
  // with the site, so those versions are lost for good — account them.
  for (ObjectId obj : sorted_keys(pending_returns_)) {
    sys_.sim().cancel(pending_returns_.at(obj).timer);
    sys_.accounted_loss(obj);
  }
  pending_returns_.clear();

  // The volatile dataspace: both cache tiers, the cached server locks,
  // the copy versions, travelling forward duties, deferred callbacks.
  auto& stats = sys_.injector()->stats();
  stats.crash_wiped_pages += cache_.size();
  std::vector<ObjectId> dirty = cache_.clear();
  std::sort(dirty.begin(), dirty.end());
  for (ObjectId obj : dirty) sys_.accounted_loss(obj);
  server_mode_.clear();
  duties_.clear();
  deferred_recalls_.clear();
  atl_.reset();

  // An in-flight re-assertion dies with the site: those leases were the
  // volatile lock cache, which is gone anyway.
  sys_.sim().cancel(reassert_.timer);
  reassert_ = PendingReassert{};
}

void ClientNode::recover() { crashed_ = false; }

// ---------------------------------------------------------------------------
// Server crash / epoch-leased recovery (client side)
// ---------------------------------------------------------------------------

void ClientNode::on_server_crash() {
  server_down_ = true;
  if (crashed_) return;  // nothing here survives anyway
  const fault::FaultPlan& plan = sys_.injector()->plan();
  if (plan.warm_standby) return;  // promotion is moments away: leases hold
  const sim::SimTime now = sys_.sim().now();

  // Travelling forward duties are orphaned: the server's circulation state
  // died with it, so nothing will ever expect these copies home. A bound
  // duty (a local transaction is using the copy) converts to a retained
  // exclusive hold — re-asserted at restart like any cached lock. An
  // unbound duty is released; a dirty one carried the only copy of a
  // committed version, which is now an accounted loss.
  for (ObjectId obj : sorted_keys(duties_)) {
    auto it = duties_.find(obj);
    ForwardDuty& duty = it->second;
    if (duty.bound != kInvalidTxn) {
      cache_.insert(obj, duty.dirty, duty.version);
      server_mode_.slot(obj) = LockMode::kExclusive;
    } else if (duty.dirty) {
      sys_.accounted_loss(obj);
    }
    duties_.erase(it);
  }
  // Callbacks from the dead incarnation are moot: the rebuilt table tracks
  // no recalls, and answering one would return copies the new epoch still
  // leases to us.
  deferred_recalls_.clear();

  // Deadline-aware early abort: a transaction blocked on the dead server
  // whose deadline cannot outlive the outage plus one request round trip
  // has no path to commit — miss it now instead of wasting retransmissions.
  const std::vector<TxnId> doomed = sorted_keys(live_, [&](const auto& live) {
    return txn::is_live(live->t.state) && !live->awaiting.empty() &&
           fault::outage_dooms(*sys_.injector(), now, live->t.deadline,
                               plan.request_timeout);
  });
  for (TxnId id : doomed) finish(id, txn::TxnState::kMissed);
}

void ClientNode::on_server_restart(bool failover) {
  server_down_ = false;
  ++server_epoch_;
  if (crashed_) return;   // a crashed site holds nothing to re-assert
  if (failover) return;   // the promoted snapshot kept every lease
  if (!sys_.faults_active()) return;

  // Grace rebuild: re-register every retained server lock under the new
  // epoch. Iterating the dense lock-cache array walks objects in id order,
  // so the batch (and hence the wire stream) is deterministic.
  std::vector<ReassertEntry> entries;
  for (std::size_t i = 0; i < server_mode_.extent(); ++i) {
    const ObjectId obj{static_cast<ObjectId::Rep>(i)};
    if (cached_server_mode(obj) != LockMode::kNone) {
      entries.push_back(reassert_entry(obj));
    }
  }
  sys_.sim().cancel(reassert_.timer);
  reassert_ = PendingReassert{};
  if (entries.empty()) return;
  reassert_.entries = std::move(entries);
  send_reassert(reassert_.entries, /*retransmit=*/false);
  arm_reassert_retry(sys_.injector()->plan().request_timeout);
}

ReassertEntry ClientNode::reassert_entry(ObjectId obj) const {
  ReassertEntry e;
  e.object = obj;
  e.mode = cached_server_mode(obj);
  e.dirty = cache_.contains(obj) && cache_.is_dirty(obj);
  e.version = cache_.version_of(obj);
  return e;
}

void ClientNode::send_reassert(std::vector<ReassertEntry> entries,
                               bool retransmit) {
  ++sys_.injector()->stats().reasserts_sent;
  ReassertBatch batch;
  batch.client = id_;
  batch.epoch = server_epoch_;
  batch.entries = std::move(entries);
  batch.retransmit = retransmit;
  batch.load = current_load();
  sys_.net().send_batch<net::MessageKind::kLockReassert>(
      id_, net::kServer, batch.entries.size(),
      [this, batch = std::move(batch)] { sys_.server().on_reassert(batch); });
}

void ClientNode::arm_reassert_retry(sim::Duration delay) {
  sys_.sim().cancel(reassert_.timer);
  reassert_.timer =
      sys_.sim().after(delay, [this] { reassert_timer_fired(); });
}

void ClientNode::reassert_timer_fired() {
  if (crashed_ || reassert_.entries.empty()) return;
  // A second crash overtaking the rebuild defers the retry; a spent budget
  // means the ack never came: every outstanding lease is gone.
  const sim::Duration timeout = sys_.injector()->plan().request_timeout;
  if (!reassert_.retry.fire(
          *sys_.injector(), sys_.sim().now(), id_.value(), timeout,
          [this](sim::Duration delay) { arm_reassert_retry(delay); },
          [this] {
            std::vector<ReassertEntry> dead = std::move(reassert_.entries);
            reassert_.entries.clear();
            reassert_.timer = sim::kNoEvent;
            for (const auto& e : dead) expire_lease(e.object);
          })) {
    return;
  }
  send_reassert(reassert_.entries, /*retransmit=*/true);
  arm_reassert_retry(timeout);
}

void ClientNode::late_reassert(ObjectId obj) {
  // A forward hop converted to a retained hold after the restart batch
  // already went out: register the straggler under the running mechanism.
  const ReassertEntry e = reassert_entry(obj);
  bool found = false;
  for (auto& existing : reassert_.entries) {
    if (existing.object == obj) {
      existing = e;
      found = true;
    }
  }
  if (!found) reassert_.entries.push_back(e);
  send_reassert({e}, /*retransmit=*/false);
  if (reassert_.timer == sim::kNoEvent) {
    reassert_.retry.restart_budget();
    arm_reassert_retry(sys_.injector()->plan().request_timeout);
  }
}

void ClientNode::expire_lease(ObjectId obj) {
  auto& stats = sys_.injector()->stats();
  ++stats.lease_expiries;
  if (cached_server_mode(obj) == LockMode::kNone) return;  // already gone
  server_mode_.slot(obj) = LockMode::kNone;
  if (cache_.drop(obj).value_or(false)) sys_.accounted_loss(obj);
  // Local transactions using the object lost their data (and possibly read
  // a version another site may now overwrite): abort them rather than let
  // a stale access reach the consistency auditor.
  std::vector<TxnId> holders = llm_.holders(obj);
  std::sort(holders.begin(), holders.end());
  for (TxnId id : holders) {
    Live* l = find(id);
    if (l && txn::is_live(l->t.state)) finish(id, txn::TxnState::kAborted);
  }
}

void ClientNode::on_reassert_ack(const ReassertAck& ack) {
  cpu_.submit(sys_.cfg().client_msg_overhead, [this, ack] {
    if (crashed_) return;
    if (ack.epoch != server_epoch_) return;  // verdict of a dead incarnation
    if (reassert_.entries.empty()) return;   // already resolved
    const auto take = [this](ObjectId obj) {
      auto& es = reassert_.entries;
      for (auto it = es.begin(); it != es.end(); ++it) {
        if (it->object == obj) {
          es.erase(it);
          return true;
        }
      }
      return false;
    };
    for (ObjectId obj : ack.accepted) take(obj);
    for (ObjectId obj : ack.rejected) {
      if (take(obj)) expire_lease(obj);
    }
    if (reassert_.entries.empty()) {
      sys_.sim().cancel(reassert_.timer);
      reassert_.timer = sim::kNoEvent;
    }
  });
}

void ClientNode::on_return_acked(ObjectId obj, std::uint64_t version) {
  auto it = pending_returns_.find(obj);
  if (it == pending_returns_.end() || it->second.ret.version != version) {
    return;
  }
  sys_.sim().cancel(it->second.timer);
  pending_returns_.erase(it);
}

void ClientNode::send_return(ObjectReturn ret) {
  if (sys_.faults_active() && ret.dirty && !ret.from_circulation) {
    // This frame carries the only up-to-date copy of a committed version;
    // track it until the server acknowledges. (Circulation returns are
    // covered by the server's circulation watchdog instead.)
    auto old = pending_returns_.find(ret.object);
    if (old != pending_returns_.end()) sys_.sim().cancel(old->second.timer);
    PendingReturn rec;
    rec.ret = ret;
    pending_returns_[ret.object] = std::move(rec);
    arm_return_retry(ret.object, sys_.injector()->plan().return_timeout);
  }
  sys_.net().send<net::MessageKind::kObjectReturn>(
      id_, net::kServer, [this, ret] { sys_.server().on_object_return(ret); });
}

void ClientNode::arm_return_retry(ObjectId obj, sim::Duration delay) {
  auto it = pending_returns_.find(obj);
  if (it == pending_returns_.end()) return;
  it->second.timer =
      sys_.sim().after(delay, [this, obj] { return_retry_fired(obj); });
}

void ClientNode::return_retry_fired(ObjectId obj) {
  auto pit = pending_returns_.find(obj);
  if (pit == pending_returns_.end() || crashed_) return;
  // During a server outage every retransmission would be a guaranteed drop,
  // and losing the budget to one turns a survivable outage into a version
  // loss: those firings defer. A budget spent while the server is up (a
  // long partition) means the server never heard us and the version this
  // copy carried is gone — account it so the consistency ledger stays
  // truthful instead of silently diverging.
  const sim::Duration timeout = sys_.injector()->plan().return_timeout;
  if (!pit->second.retry.fire(
          *sys_.injector(), sys_.sim().now(),
          fault::retry_salt(id_.value(), obj.value(), fault::RetryTag::kReturn),
          timeout, [&](sim::Duration delay) { arm_return_retry(obj, delay); },
          [&] {
            pending_returns_.erase(pit);
            sys_.accounted_loss(obj);
          })) {
    return;
  }
  ++sys_.injector()->stats().return_retransmits;
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(obs::EventKind::kRetransmit, sys_.sim().now(),
                           site_, kInvalidTxn, obj);
  }
  const ObjectReturn ret = pit->second.ret;
  sys_.net().send<net::MessageKind::kObjectReturn>(
      id_, net::kServer,
      [this, ret] { sys_.server().on_object_return(ret); });
  arm_return_retry(obj, timeout);
}

void ClientNode::warm_insert(ObjectId obj) {
  cache_.insert(obj, /*dirty=*/false);
  server_mode_.slot(obj) = LockMode::kShared;
}

void ClientNode::begin(txn::Transaction t, SiteId origin, TxnId parent) {
  const TxnId id = t.id;
  auto live = std::make_unique<Live>();
  live->t = std::move(t);
  live->origin = origin;
  live->parent = parent;
  live->needs = live->t.lock_needs();
  Live& ref = *live;
  live_.emplace(id, std::move(live));

  if (sys_.telemetry().spans_enabled()) {
    // Shipped copies and sub-tasks get their span here — they never pass
    // through record_generated. For a re-admitted original (same id) the
    // admit is idempotent and only the hop is recorded.
    sys_.telemetry().txn_admit(id, origin, ref.t.arrival, ref.t.deadline,
                               sys_.sim().now());
    if (origin != site_) {
      sys_.telemetry().txn_hop(id, site_, sys_.sim().now());
    }
  }

  if (ref.t.missed(sys_.sim().now())) {
    finish(id, txn::TxnState::kMissed);
    return;
  }
  ref.deadline_timer =
      sys_.sim().at(ref.t.deadline, [this, id] { handle_deadline(id); });

  const LsOptions& ls = sys_.ls();

  // H1 admission at the originating client. When it fails, a decomposable
  // transaction first tries request disassembly (parallel sub-tasks at the
  // data sites can still meet a deadline the loaded origin cannot); other
  // transactions look for a better site (H2 over the location reply).
  // Note: the paper decomposes every decomposable transaction; we found
  // always-decomposing strictly hurts under the symmetric ~100% offered
  // load of Table 1 (sub-tasks multiply queue entries), so decomposition
  // here is the overload-rescue path — see DESIGN.md §6.
  const bool overloaded =
      owns_outcome(ref) && ls.enable_h1 && !h1_admits(ref.t);
  if (overloaded) {
    ++sys_.live_metrics().h1_rejections;
    const bool srv_down =
        sys_.faults_active() &&
        sys_.injector()->server_down(sys_.sim().now());
    if (srv_down) {
      // The location service lives on the crashed server: H2 placement and
      // decomposition both need it, so an overloaded origin falls back to
      // local execution rather than parking the transaction behind an
      // outage of unknown length.
      ++sys_.injector()->stats().local_fallbacks;
      exec_.acquire_locks(id);
      return;
    }
    if (ls.enable_decomposition && ref.t.decomposable &&
        ref.needs.size() >= 2) {
      query_locations(ref, QueryPurpose::kDecompose);
    } else {
      query_locations(ref, QueryPurpose::kPlacement);
    }
    return;
  }

  exec_.acquire_locks(id);
}

bool ClientNode::h1_admits(const txn::Transaction& t) const {
  // H1: with n transactions ahead of T in the priority queue, T stands a
  // reasonable chance iff now + n * ATL <= deadline. With a
  // multiprogramming level of m, the first m-1 of those do not queue T —
  // only the excess beyond the executor slots makes it wait.
  std::size_t n = 0;
  for (const auto& [id, live] : live_) {
    (void)id;
    if (live->t.id != t.id && txn::is_live(live->t.state) &&
        live->t.deadline <= t.deadline) {
      ++n;
    }
  }
  const std::size_t slots = std::max<std::size_t>(
      1, sys_.cfg().client_executor_slots);
  const std::size_t ahead = n >= slots ? n - slots + 1 : 0;
  const double atl =
      atl_.count() ? atl_.mean() : sys_.cfg().workload.mean_length.sec();
  return sys_.sim().now() + sim::seconds(static_cast<double>(ahead) * atl) <=
         t.deadline;
}

void ClientNode::query_locations(Live& live, QueryPurpose purpose) {
  live.pending_query = purpose;
  LocationQuery q;
  q.txn = live.t.id;
  q.client = id_;
  q.deadline = live.t.deadline;
  q.needs.reserve(live.needs.size());
  for (const auto& [obj, mode] : live.needs) {
    q.needs.push_back({obj, mode, cache_.contains(obj)});
  }
  q.load = current_load();
  sys_.net().send<net::MessageKind::kLocationQuery>(
      id_, net::kServer,
      [this, q = std::move(q)] { sys_.server().on_location_query(q); });
}

void ClientNode::on_location_reply(LocationReply reply) {
  cpu_.submit(sys_.cfg().client_msg_overhead, [this, reply = std::move(reply)] {
    Live* live = find(reply.txn);
    if (!live || !txn::is_live(live->t.state)) return;
    const QueryPurpose purpose = live->pending_query;
    live->pending_query = QueryPurpose::kNone;
    switch (purpose) {
      case QueryPurpose::kDecompose:
        start_decomposition(*live, reply);
        break;
      case QueryPurpose::kPlacement:
        decide_placement(*live, reply);
        break;
      case QueryPurpose::kNone:
        break;  // stale reply (e.g. the txn was shipped meanwhile)
    }
  });
}

void ClientNode::decide_placement(Live& live, const LocationReply& reply) {
  const bool h2 = sys_.ls().enable_h2;
  const bool conflict_phase = live.t.state == txn::TxnState::kAcquiring;

  // Self's standing, taken from the server's own assessment when present
  // (it knows the global lock table), freshened with the local live count.
  std::size_t self_conflicts = 0;
  std::size_t self_held = 0;
  for (const auto& c : reply.candidates) {
    if (c.client == id_) {
      self_conflicts = c.conflict_count;
      self_held = c.objects_held;
    }
  }
  const std::size_t self_load = live_count();

  // Pick the best *other* candidate. The paper's site-selection heuristics
  // "combine the availability of data and the current processing load":
  // fewest conflicting locks (H2) first, then the most of the
  // transaction's objects already cached there (shipping toward the data
  // keeps cluster-wide hit rates up), then the lightest load.
  const LocationReply::Candidate* best = nullptr;
  const auto rank = [&](const LocationReply::Candidate& c) {
    return std::make_tuple(h2 ? c.conflict_count : 0,
                           -static_cast<long>(c.objects_held),
                           c.live_txns, c.client);
  };
  const bool chaos = sys_.faults_active();
  for (const auto& c : reply.candidates) {
    if (c.client == id_) continue;
    // Never ship into a site that is down or unreachable right now — the
    // transaction would die waiting for a host that cannot answer. (The
    // server filters too, but its reply may predate the crash window.)
    if (chaos && (sys_.injector()->down(c.client, sys_.sim().now()) ||
                  sys_.injector()->partitioned(site_of(c.client), kServerSite,
                                               sys_.sim().now()))) {
      ++sys_.injector()->stats().candidates_filtered;
      continue;
    }
    if (!best || rank(c) < rank(*best)) best = &c;
  }

  bool ship = false;
  if (best) {
    if (conflict_phase) {
      // H2: ship only into a site where the transaction would wait on *no*
      // conflicting lock at all ("immediate access to the required data").
      // Waiting out a single callback locally is usually cheaper than
      // abandoning the origin's cached working set, so a merely-smaller
      // conflict count does not justify the move.
      ship = h2 && best->conflict_count == 0 && self_conflicts >= 1 &&
             best->objects_held >= self_held;
    } else {
      // H1 placement: this client is overloaded. Ship only where the
      // shipped transaction would itself pass H1 — "a shipped transaction
      // will have at least as much chance of successful completion at that
      // site as at its originating site" must actually hold, or the ship
      // just moves the miss (and pollutes the destination's cache).
      const sim::SimTime dest_eta =
          sys_.sim().now() +
          sim::seconds(static_cast<double>(best->live_txns) *
                       (best->atl > 0
                            ? best->atl
                            : sys_.cfg().workload.mean_length.sec()));
      // Data affinity: with overlapping regions, region-sharers hold much
      // of this transaction's working set — prefer not to strand the
      // transaction on a site that caches (almost) none of it.
      ship = best->live_txns + 2 <= self_load &&
             (!h2 || best->conflict_count <= self_conflicts) &&
             best->objects_held * 2 >= self_held &&
             dest_eta + live.t.length <= live.t.deadline;
    }
  }

  if (ship) {
    if (conflict_phase) {
      ++sys_.live_metrics().h2_ships;
    } else {
      ++sys_.live_metrics().h1_ships;
    }
    if (conflict_phase) {
      // Withdraw the parked batch before leaving.
      ProceedDecision d{live.t.id, id_, /*proceed=*/false, current_load()};
      sys_.net().send<net::MessageKind::kControl>(
          id_, net::kServer,
          [this, d] { sys_.server().on_proceed_decision(d); });
    }
    ship_txn(live.t.id, best->client);
    return;
  }

  // Staying here. A parked conflict batch resumes with one control message;
  // a fresh (H1-placement) transaction enters the normal local pipeline.
  if (conflict_phase) {
    ProceedDecision d{live.t.id, id_, /*proceed=*/true, current_load()};
    sys_.net().send<net::MessageKind::kControl>(
        id_, net::kServer,
        [this, d] { sys_.server().on_proceed_decision(d); });
  } else {
    exec_.acquire_locks(live.t.id);
  }
}

void ClientNode::ship_txn(TxnId id, ClientId to) {
  Live* live = find(id);
  assert(live && owns_outcome(*live));
  ++sys_.live_metrics().shipped_txns;
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(obs::EventKind::kTxnShip, sys_.sim().now(), site_,
                           id, ObjectId{}, site_of(to).value());
  }

  ShippedTxn msg;
  msg.t = live->t;
  msg.t.state = txn::TxnState::kPending;
  msg.origin = id_;
  send_away(id, /*remaining=*/1, /*decomposed=*/false);
  sys_.net().send<net::MessageKind::kTxnShip>(
      id_, to, [this, to, msg = std::move(msg)] {
        sys_.client(to).on_shipped_txn(msg);
      });
}

void ClientNode::on_shipped_txn(ShippedTxn shipped) {
  cpu_.submit(sys_.cfg().client_msg_overhead,
              [this, shipped = std::move(shipped)] {
                if (crashed_) return;
                begin(shipped.t, site_of(shipped.origin));
              });
}

// ---------------------------------------------------------------------------
// Decomposition
// ---------------------------------------------------------------------------

void ClientNode::start_decomposition(Live& live, const LocationReply& reply) {
  std::unordered_map<ObjectId, SiteId> where;
  for (const auto& c : reply.conflicts) where[c.object] = c.location;
  const auto locate = [&](ObjectId obj) {
    auto it = where.find(obj);
    const SiteId loc = it == where.end() ? kServerSite : it->second;
    // Server-resident objects materialize at the originating client.
    if (loc == kServerSite) return site_;
    // Graceful degradation: never decompose toward a crashed site — run
    // that piece locally instead.
    if (loc != site_ && sys_.faults_active() &&
        sys_.injector()->down(client_of(loc), sys_.sim().now())) {
      ++sys_.injector()->stats().local_fallbacks;
      return site_;
    }
    return loc;
  };

  auto subtasks = txn::decompose(live.t, locate);
  if (subtasks.size() < 2) {
    // Nothing to split: continue with the ordinary pipeline (H1 next).
    const LsOptions& ls = sys_.ls();
    if (ls.enable_h1 && !h1_admits(live.t)) {
      ++sys_.live_metrics().h1_rejections;
      query_locations(live, QueryPurpose::kPlacement);
    } else {
      exec_.acquire_locks(live.t.id);
    }
    return;
  }

  ++sys_.live_metrics().decomposed_txns;
  sys_.live_metrics().subtasks_spawned += subtasks.size();
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(obs::EventKind::kTxnDecompose, sys_.sim().now(),
                           site_, live.t.id, ObjectId{}, 0, 0,
                           static_cast<double>(subtasks.size()));
  }

  // The original's Live entry dissolves into sub-tasks; its outcome is
  // tracked through away_.
  const TxnId parent_id = live.t.id;
  send_away(parent_id, subtasks.size(), /*decomposed=*/true);

  for (const auto& st : subtasks) {
    txn::Transaction work;
    work.id = sys_.fresh_txn_id();
    work.origin = site_;
    work.arrival = sys_.sim().now();
    work.deadline = st.deadline;
    work.length = st.length;
    work.ops = st.ops;
    work.decomposable = false;

    if (st.site == site_) {
      begin(std::move(work), site_, parent_id);
    } else {
      ShippedSubtask msg;
      msg.parent = parent_id;
      msg.origin = id_;
      msg.work = std::move(work);
      sys_.net().send<net::MessageKind::kSubtaskShip>(
          id_, client_of(st.site),
          [this, to = client_of(st.site), msg = std::move(msg)] {
            sys_.client(to).on_shipped_subtask(msg);
          });
    }
  }
}

void ClientNode::on_shipped_subtask(ShippedSubtask shipped) {
  cpu_.submit(sys_.cfg().client_msg_overhead,
              [this, shipped = std::move(shipped)] {
                if (crashed_) return;
                begin(shipped.work, site_of(shipped.origin), shipped.parent);
              });
}

void ClientNode::send_away(TxnId id, std::size_t remaining,
                           bool decomposed) {
  // Undo any local acquisition state; the origin only tracks the outcome.
  Live* live = find(id);
  sys_.sim().cancel(live->deadline_timer);
  sys_.sim().cancel(live->retry_timer);
  llm_.release_all(id);
  Away rec;
  rec.t = std::move(live->t);
  rec.remaining = remaining;
  rec.decomposed = decomposed;
  live_.erase(id);
  rec.deadline_timer = sys_.sim().at(rec.t.deadline, [this, id] {
    auto it = away_.find(id);
    if (it == away_.end()) return;
    sys_.note(it->second.t, txn::TxnState::kMissed);
    away_.erase(it);
  });
  away_.emplace(id, std::move(rec));
}

void ClientNode::on_remote_result(RemoteResult result) {
  cpu_.submit(sys_.cfg().client_msg_overhead, [this, result] {
    if (crashed_) return;
    // A missing record was already resolved: by its deadline timer (which
    // fires before any later answer), a failed sub-task, or a crash.
    auto it = away_.find(result.id);
    if (it == away_.end()) return;
    Away& rec = it->second;
    if (result.success && --rec.remaining > 0) return;
    // Every answer is in (answer synthesis at the originating client), or
    // one failed: "the failure of any subtask to meet the transaction
    // deadline implies the failure of the entire transaction."
    sys_.sim().cancel(rec.deadline_timer);
    if (result.success) {
      sys_.note(rec.t, txn::TxnState::kCommitted);
      if (rec.decomposed) update_atl(rec.t, sys_.sim().now());
    } else {
      sys_.note(rec.t, txn::TxnState::kMissed);
    }
    away_.erase(it);
  });
}

// ---------------------------------------------------------------------------
// Local pipeline: locks -> objects -> executor -> commit
// ---------------------------------------------------------------------------

void ClientNode::count_refusal() {
  ++sys_.live_metrics().deadlock_refusals;
}

void ClientNode::reset_attempt(Live& live) {
  llm_.release_all(live.t.id);
  sys_.sim().cancel(live.retry_timer);
  live.t.state = txn::TxnState::kPending;
  live.awaiting.clear();
  live.cache_io_pending = false;
  live.locks_pending = 0;
  live.pending_query = QueryPurpose::kNone;
}

void ClientNode::evaluate_objects(TxnId id) {
  Live* live = find(id);
  assert(live);
  std::vector<ObjectNeed> missing;

  std::optional<sim::SimTime> io_done;
  for (const auto& [obj, mode] : live->needs) {
    const LockMode smode = cached_server_mode(obj);
    const bool lock_ok = lock::covers(smode, mode);
    // Data touch: counts the paper's cache hit/miss and pays the local
    // memory/disk time when the object is cached.
    const auto local = cache_.access(obj, /*write=*/false);
    if (local) io_done = std::max(io_done.value_or(*local), *local);
    if (!lock_ok || !local) {
      live->awaiting.insert(obj);
      missing.push_back({obj, mode, local.has_value()});
    }
  }
  if (io_done) {
    live->cache_io_pending = true;  // one join for the whole local phase
    sys_.sim().at(*io_done, [this, id, epoch = live->epoch] {
      Live* l = find(id);
      if (!l || l->epoch != epoch || !txn::is_live(l->t.state)) return;
      l->cache_io_pending = false;
      maybe_ready(id);
    });
  }

  if (!missing.empty()) {
    const LsOptions& ls = sys_.ls();
    const bool srv_down =
        sys_.faults_active() &&
        sys_.injector()->server_down(sys_.sim().now());
    // Grace-rebuild mode: the needs sent now park behind an outage plus
    // the grace window. When the transaction's slack cannot absorb that
    // whole detour, abort immediately — the miss is inevitable and the
    // early exit frees its local locks for transactions that can still
    // make it.
    if (srv_down && !sys_.injector()->plan().warm_standby &&
        fault::outage_dooms(*sys_.injector(), sys_.sim().now(),
                            live->t.deadline,
                            sys_.injector()->plan().request_timeout)) {
      finish(id, txn::TxnState::kMissed);
      return;
    }
    // Client-side prefilter for the H2 detour: when this client already
    // caches most of the transaction's data, no other site can come out
    // ahead on data availability, so the ship-or-stay answer is known to
    // be "stay" — skip the location round trip and let the server queue
    // conflicts directly. (A "missing" need with have_copy set is a lock
    // upgrade: the data is here.)
    std::size_t data_absent = 0;
    for (const auto& need : missing) {
      if (!need.have_copy) ++data_absent;
    }
    const bool mostly_local =
        2 * (live->needs.size() - data_absent) >= live->needs.size();
    bool want_locations =
        ls.enable_h2 && owns_outcome(*live) && !mostly_local;
    if (want_locations && srv_down) {
      // The H2 location service is down with the server: execute where we
      // stand instead of waiting on a ship-or-stay answer that cannot come.
      want_locations = false;
      ++sys_.injector()->stats().local_fallbacks;
    }
    send_batch(*live, missing, /*auto_proceed=*/!want_locations);
    // A conflict reply (if the server cannot grant everything) will be
    // dispatched to decide_placement via this marker.
    if (want_locations) live->pending_query = QueryPurpose::kPlacement;
  }
  maybe_ready(id);
}

void ClientNode::send_batch(Live& live, const std::vector<ObjectNeed>& missing,
                            bool auto_proceed, bool retransmit) {
  ObjectRequestBatch batch;
  batch.txn = live.t.id;
  batch.client = id_;
  batch.deadline = live.t.deadline;
  batch.needs = missing;
  batch.auto_proceed = auto_proceed;
  batch.retransmit = retransmit;
  batch.load = current_load();

  const sim::SimTime now = sys_.sim().now();
  for (const auto& need : missing) {
    // Table 3: measure from the first request for this object.
    live.request_marks.emplace(need.object,
                               Live::RequestMark{now, need.mode});
  }
  sys_.net().send_batch<net::MessageKind::kObjectRequest>(
      id_, net::kServer, missing.size(), [this, batch = std::move(batch)] {
        sys_.server().on_request_batch(batch);
      });
  if (sys_.faults_active()) {
    arm_request_retry(live.t.id, sys_.injector()->plan().request_timeout);
  }
}

void ClientNode::arm_request_retry(TxnId id, sim::Duration delay) {
  Live* live = find(id);
  if (!live) return;
  sys_.sim().cancel(live->retry_timer);
  const std::uint32_t epoch = live->epoch;
  live->retry_timer = sys_.sim().after(
      delay, [this, id, epoch] { request_retry_fired(id, epoch); });
}

void ClientNode::request_retry_fired(TxnId id, std::uint32_t epoch) {
  Live* l = find(id);
  if (!l || l->epoch != epoch || !txn::is_live(l->t.state)) return;
  if (l->awaiting.empty()) return;  // everything arrived meanwhile
  // Retransmitting into a crashed server burns the budget on guaranteed
  // drops, so firings during an outage defer. A spent budget needs no
  // action: the deadline timer accounts the miss.
  if (!l->retry.fire(
          *sys_.injector(), sys_.sim().now(),
          fault::retry_salt(id_.value(), id.value(), fault::RetryTag::kRequest),
          sys_.injector()->plan().request_timeout,
          [&](sim::Duration delay) { arm_request_retry(id, delay); }, [] {})) {
    return;
  }
  ++sys_.injector()->stats().retransmits;
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(obs::EventKind::kRetransmit, sys_.sim().now(),
                           site_, id);
  }
  // A conflict reply that never arrived no longer steers this txn:
  // the retransmission queues directly (the original batch was only
  // parked at the server, so nothing double-enqueues; a late reply
  // finds pending_query cleared and is dropped as stale).
  l->pending_query = QueryPurpose::kNone;
  // Rebuild the outstanding needs from `awaiting`, sorted — the
  // set's iteration order must not leak into the message stream.
  std::vector<ObjectId> objs(l->awaiting.begin(), l->awaiting.end());
  std::sort(objs.begin(), objs.end());
  std::vector<ObjectNeed> again;
  again.reserve(objs.size());
  for (ObjectId obj : objs) {
    LockMode mode = LockMode::kShared;
    for (const auto& [o, m] : l->needs) {
      if (o == obj) mode = m;
    }
    again.push_back({obj, mode, cache_.contains(obj)});
  }
  send_batch(*l, again, /*auto_proceed=*/true, /*retransmit=*/true);
}

void ClientNode::need_satisfied(TxnId id, ObjectId obj) {
  Live* live = find(id);
  if (!live) return;
  live->awaiting.erase(obj);
  maybe_ready(id);
}

void ClientNode::maybe_ready(TxnId id) {
  Live* live = find(id);
  if (!live || live->t.state != txn::TxnState::kAcquiring) return;
  // A pending conflict location reply never blocks readiness: the reply
  // only ever arrives when some need is still awaiting.
  if (live->locks_pending > 0 || !live->awaiting.empty() ||
      live->cache_io_pending) {
    return;
  }
  exec_.make_ready(live->t);
}

void ClientNode::on_executed(Live& live) {
  // Execution is over: commit. Updates dirty the cached copies (write-back
  // happens on recall, forward, or eviction — inter-transaction caching
  // keeps them here). Every access reports the version it used to the
  // consistency auditor.
  const TxnId id = live.t.id;
  const sim::SimTime now = sys_.sim().now();
  for (const auto& [obj, mode] : live.needs) {
    auto duty = duties_.find(obj);
    const bool via_duty = duty != duties_.end() && duty->second.bound == id;
    if (mode == LockMode::kExclusive) {
      if (via_duty) {
        duty->second.dirty = true;
        ++duty->second.version;
        sys_.auditor().on_write_commit(obj, site_, duty->second.version, now);
      } else {
        const std::uint64_t v = cache_.commit_write(obj);
        sys_.auditor().on_write_commit(obj, site_, v, now);
      }
    } else {
      const std::uint64_t v =
          via_duty ? duty->second.version : cache_.version_of(obj);
      sys_.auditor().on_read_commit(obj, site_, v, now);
    }
  }
  update_atl(live.t, sys_.sim().now());
  finish(id, txn::TxnState::kCommitted);
}

void ClientNode::handle_deadline(TxnId id) {
  Live* live = find(id);
  if (!live || !txn::is_live(live->t.state)) return;
  finish(id, txn::TxnState::kMissed);
}

void ClientNode::finish(TxnId id, txn::TxnState final_state) {
  Live* live = find(id);
  assert(live);
  const bool was_executing = live->t.state == txn::TxnState::kExecuting;
  live->t.state = final_state;
  sys_.sim().cancel(live->deadline_timer);
  sys_.sim().cancel(live->retry_timer);

  if (sys_.telemetry().spans_enabled()) {
    // Closes spans that never reach the System::record chokepoint
    // (sub-tasks); for the rest the later chokepoint call is an
    // idempotent no-op with the same instant and outcome.
    sys_.telemetry().txn_end(id, outcome_of(final_state), sys_.sim().now());
  }
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(event_of(final_state), sys_.sim().now(), site_, id);
  }

  // Outcome reporting: the origin owns the accounting. Work run for an
  // Away record answers it: locally (a sub-task of our own) or by message.
  if (owns_outcome(*live)) {
    sys_.note(live->t, final_state);
  } else {
    const bool subtask = live->parent != kInvalidTxn;
    const RemoteResult result{subtask ? live->parent : id,
                              final_state == txn::TxnState::kCommitted};
    const ClientId origin = client_of(live->origin);
    const auto deliver = [this, origin, result] {
      sys_.client(origin).on_remote_result(result);
    };
    if (origin == id_) {
      on_remote_result(result);
    } else if (subtask) {
      sys_.net().send<net::MessageKind::kSubtaskResult>(id_, origin, deliver);
    } else {
      sys_.net().send<net::MessageKind::kTxnResult>(id_, origin, deliver);
    }
  }

  // Release local locks; remember the lock set to re-check deferred recalls
  // once the lock manager has granted any local waiters.
  const auto held = llm_.objects_held(id);
  llm_.release_all(id);
  check_deferred_recalls(held);

  // Circulating objects bound to this transaction move along now.
  const auto circ = live->circulating_used;  // copy: fulfil mutates duties_
  for (ObjectId obj : circ) {
    auto duty = duties_.find(obj);
    if (duty != duties_.end() && duty->second.bound == id) {
      fulfil_forward_duty(obj);
    }
  }

  if (was_executing) exec_.release();
  live_.erase(id);
  exec_.pump();
}

// ---------------------------------------------------------------------------
// Grants, forwards, recalls, evictions
// ---------------------------------------------------------------------------

void ClientNode::on_grant(Grant g) {
  cpu_.submit(sys_.cfg().client_msg_overhead, [this, g = std::move(g)] {
    handle_incoming_object(g, /*via_forward=*/false);
  });
}

void ClientNode::on_forwarded_object(Grant g) {
  cpu_.submit(sys_.cfg().client_msg_overhead, [this, g = std::move(g)] {
    handle_incoming_object(g, /*via_forward=*/true);
  });
}

void ClientNode::handle_incoming_object(Grant g, bool via_forward) {
  if (crashed_) return;  // work queued before the crash: dropped on the floor
  if (via_forward) ++sys_.live_metrics().forward_list_satisfactions;
  Live* live = find(g.txn);
  const bool chaos = sys_.faults_active();

  if (chaos && g.circulating && !sys_.injector()->plan().warm_standby &&
      (server_down_ || g.epoch != server_epoch_)) {
    // The forward list was built by an incarnation that no longer exists
    // (or the server is down right now): the circulation bookkeeping that
    // would receive this list's homecoming is gone. Convert the hop into a
    // plain retained hold — the copy and lock stay here, the rest of the
    // list is abandoned (each skipped entry's client re-requests through
    // its own retry path), and once the server is back the hold is folded
    // into the rebuilt table by a late re-assertion.
    cache_.insert(g.object, g.dirty, g.version);
    server_mode_.slot(g.object) =
        lock::stronger(cached_server_mode(g.object), g.mode);
    if (live && txn::is_live(live->t.state) &&
        live->awaiting.count(g.object)) {
      need_satisfied(g.txn, g.object);
    }
    if (!server_down_) late_reassert(g.object);
    return;
  }

  if (chaos && !g.circulating && g.epoch != 0 && g.epoch != server_epoch_) {
    // A grant shipped by a dead incarnation: its lock-table registration
    // did not survive the crash, so acting on it would leave this client
    // holding a lock the rebuilt table never heard of. Dropping it is
    // lossless — the transaction's retry timer re-requests from the live
    // incarnation.
    ++sys_.injector()->stats().stale_epoch_rejected;
    return;
  }

  if (g.circulating && g.mode == LockMode::kShared) {
    // Shared fan-out hop: the copy is ours to keep (the server registered
    // our SL when the list shipped) and the remainder of the list is
    // served immediately — readers overlap instead of serializing.
    cache_.insert(g.object, /*dirty=*/false, g.version);
    server_mode_.slot(g.object) =
        lock::stronger(cached_server_mode(g.object), LockMode::kShared);
    if (live && txn::is_live(live->t.state) &&
        live->awaiting.count(g.object)) {
      note_object_response(*live, g.object);
      need_satisfied(g.txn, g.object);
    }
    // Pass the copy along right away (duty not bound to any transaction).
    ForwardDuty duty;
    duty.rest = std::move(g.forward_list);
    duty.dirty = g.dirty;
    duty.bound = kInvalidTxn;
    duty.version = g.version;
    duty.epoch = g.epoch;
    duties_[g.object] = std::move(duty);
    fulfil_forward_duty(g.object);
    return;
  }

  if (g.circulating) {
    // Exclusive hop: the object is on loan, bound to the requesting
    // transaction; when that transaction ends it travels to the next
    // entry (or home). A previously retained copy/SL (this hop serving our
    // upgrade) is superseded by the travelling one — the server dropped
    // our registration when it built the list, so keeping it would leave
    // a stale reader.
    cache_.drop(g.object);
    server_mode_.slot(g.object) = LockMode::kNone;
    ForwardDuty duty;
    duty.rest = std::move(g.forward_list);
    duty.dirty = g.dirty;
    duty.bound = g.txn;
    duty.version = g.version;
    duty.epoch = g.epoch;
    duties_[g.object] = std::move(duty);

    if (live && txn::is_live(live->t.state) &&
        live->awaiting.count(g.object)) {
      note_object_response(*live, g.object);
      live->circulating_used.push_back(g.object);
      need_satisfied(g.txn, g.object);
    } else {
      // The requester is already dead: pass the object straight along.
      fulfil_forward_duty(g.object);
    }
    return;
  }

  // Ordinary grant: the lock (and possibly data) now belongs to this client.
  if (!g.with_data && !cache_.contains(g.object)) {
    // Benign race: our copy was evicted while the lock-only grant was in
    // flight. Keep the lock and fetch the data explicitly.
    server_mode_.slot(g.object) =
        lock::stronger(cached_server_mode(g.object), g.mode);
    if (live && txn::is_live(live->t.state) &&
        live->awaiting.count(g.object)) {
      LockMode need_mode = g.mode;
      for (const auto& [obj, mode] : live->needs) {
        if (obj == g.object) need_mode = mode;
      }
      std::vector<ObjectNeed> refetch{{g.object, need_mode, false}};
      send_batch(*live, refetch, /*auto_proceed=*/true);
    }
    return;
  }

  if (g.with_data) {
    // Under faults a duplicate grant (our retransmission racing the
    // original, or a server re-grant after a lost one) can arrive carrying
    // a payload older than the copy we already hold — never let it clobber
    // a dirty page or roll the local version back.
    const bool stale = sys_.faults_active() && cache_.contains(g.object) &&
                       (cache_.is_dirty(g.object) ||
                        cache_.version_of(g.object) > g.version);
    if (stale) {
      ++sys_.injector()->stats().stale_grants_ignored;
    } else {
      cache_.insert(g.object, /*dirty=*/false, g.version);
    }
  }
  server_mode_.slot(g.object) =
      lock::stronger(cached_server_mode(g.object), g.mode);

  if (live && txn::is_live(live->t.state) && live->awaiting.count(g.object)) {
    note_object_response(*live, g.object);
    need_satisfied(g.txn, g.object);
  }
}

void ClientNode::note_object_response(const Live& live, ObjectId obj) {
  auto mark = live.request_marks.find(obj);
  if (mark == live.request_marks.end()) return;
  const sim::Duration rtt = sys_.sim().now() - mark->second.sent_at;
  if (sys_.measured(live.t)) {
    auto& series = mark->second.mode == LockMode::kExclusive
                       ? sys_.live_metrics().object_response_exclusive
                       : sys_.live_metrics().object_response_shared;
    series.add(rtt.sec());
  }
  if (sys_.telemetry().spans_enabled()) {
    sys_.telemetry().object_wait(live.t.id, obj, rtt);
  }
}

void ClientNode::fulfil_forward_duty(ObjectId obj) {
  auto it = duties_.find(obj);
  if (it == duties_.end()) return;
  ForwardDuty duty = std::move(it->second);
  duties_.erase(it);

  // Skip exclusive entries whose transactions already missed — there is
  // nothing to execute there. Shared entries are delivered regardless:
  // the server registered their SL holds when the list shipped, so the
  // copy must land (it simply becomes cached data). Under faults, entries
  // whose site is down are re-routed around: forwarding into a crashed
  // client would strand the whole remaining list (the server's stale SL
  // registration is repaired by the was_held=false path or reclamation).
  std::size_t next_idx = 0;
  const sim::SimTime now = sys_.sim().now();
  const bool chaos = sys_.faults_active();
  while (next_idx < duty.rest.size()) {
    const lock::ForwardEntry& e = duty.rest[next_idx];
    const bool expired =
        e.mode == lock::LockMode::kExclusive && e.expires < now;
    const bool unreachable = chaos && sys_.injector()->down(e.client, now);
    if (!expired && !unreachable) break;
    if (expired) {
      ++sys_.live_metrics().expired_requests_skipped;
      if (sys_.telemetry().events_enabled()) {
        sys_.telemetry().event(obs::EventKind::kExpiredSkip, now, site_,
                               e.txn, obj);
      }
    } else {
      ++sys_.injector()->stats().forward_reroutes;
      if (sys_.telemetry().events_enabled()) {
        sys_.telemetry().event(obs::EventKind::kFaultReroute, now, site_,
                               e.txn, obj, site_of(e.client).value());
      }
    }
    ++next_idx;
  }

  if (next_idx >= duty.rest.size()) {
    // End of the list: the object goes home.
    ObjectReturn ret;
    ret.client = id_;
    ret.object = obj;
    ret.dirty = duty.dirty;
    ret.version = duty.version;
    ret.from_circulation = true;
    ret.load = current_load();
    send_return(ret);
    return;
  }

  const lock::ForwardEntry next = duty.rest[next_idx];
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(
        obs::EventKind::kForwardHop, now, site_, next.txn, obj,
        site_of(next.client).value(),
        next.mode == lock::LockMode::kExclusive ? 1 : 0);
  }
  Grant g;
  g.txn = next.txn;
  g.object = obj;
  g.mode = next.mode;
  g.with_data = true;
  g.circulating = true;
  g.dirty = duty.dirty;
  g.version = duty.version;
  g.epoch = duty.epoch;
  g.forward_list.assign(duty.rest.begin() + next_idx + 1, duty.rest.end());
  sys_.net().send<net::MessageKind::kObjectForward>(
      id_, next.client, [this, to = next.client, g = std::move(g)] {
        sys_.client(to).on_forwarded_object(g);
      });
}

void ClientNode::on_recall(Recall r) {
  cpu_.submit(sys_.cfg().client_msg_overhead, [this, r] {
    if (sys_.faults_active() && r.epoch != 0 && r.epoch != server_epoch_) {
      // Callback from a dead incarnation: the queue entry it served no
      // longer exists, and answering it would return a lock the rebuilt
      // table believes we still hold.
      ++sys_.injector()->stats().stale_epoch_rejected;
      return;
    }
    process_recall(r.object, r.wanted);
  });
}

void ClientNode::process_recall(ObjectId obj, LockMode wanted) {
  if (crashed_) return;
  const LockMode held = cached_server_mode(obj);
  if (held == LockMode::kNone) {
    // The lock was already returned voluntarily (eviction) — tell the
    // server so it can clear the callback and move on.
    ObjectReturn ret;
    ret.client = id_;
    ret.object = obj;
    ret.was_held = false;
    ret.load = current_load();
    send_return(ret);
    return;
  }

  // Deferral: local transactions using the object keep it until they
  // release ("once these locks have been released, the server grants...").
  if (recall_blocked(obj, wanted)) {
    auto [it, inserted] = deferred_recalls_.emplace(obj, wanted);
    if (!inserted) it->second = lock::stronger(it->second, wanted);
    return;
  }

  ObjectReturn ret;
  ret.client = id_;
  ret.object = obj;
  ret.version = cache_.version_of(obj);
  ret.load = current_load();

  if (wanted == LockMode::kShared && held == LockMode::kShared) {
    // Raced with our own downgrade: nothing conflicts any more; just let
    // the server clear the callback.
    ret.downgraded = true;
  } else if (wanted == LockMode::kShared && held == LockMode::kExclusive) {
    // The paper's modified callback: return the (updated) object but only
    // downgrade to a SL — both clients then share read access.
    ret.dirty = cache_.is_dirty(obj);
    ret.downgraded = true;
    server_mode_.slot(obj) = LockMode::kShared;
    cache_.mark_clean(obj);
  } else {
    ret.dirty = cache_.is_dirty(obj);
    ret.downgraded = false;
    server_mode_.slot(obj) = LockMode::kNone;
    cache_.drop(obj);
  }
  send_return(ret);
}

bool ClientNode::recall_blocked(ObjectId obj, LockMode wanted) const {
  for (TxnId holder : llm_.holders(obj)) {
    if (wanted == LockMode::kExclusive ||
        llm_.held_mode(holder, obj) == LockMode::kExclusive) {
      return true;
    }
  }
  return false;
}

void ClientNode::check_deferred_recalls(const std::vector<ObjectId>& objs) {
  for (ObjectId obj : objs) {
    auto it = deferred_recalls_.find(obj);
    if (it == deferred_recalls_.end()) continue;
    const LockMode wanted = it->second;
    // Still blocked by another local transaction?
    if (recall_blocked(obj, wanted)) continue;
    deferred_recalls_.erase(it);
    process_recall(obj, wanted);
  }
}

void ClientNode::on_cache_eviction(ObjectId obj, bool dirty,
                                   std::uint64_t version) {
  // The object fell out of both cache tiers: the client cannot claim the
  // lock any longer — return it (with the update when dirty).
  if (cached_server_mode(obj) == LockMode::kNone) return;
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(obs::EventKind::kCacheEvict, sys_.sim().now(),
                           site_, kInvalidTxn, obj, 0, dirty ? 1 : 0);
  }
  server_mode_.slot(obj) = LockMode::kNone;
  ObjectReturn ret;
  ret.client = id_;
  ret.object = obj;
  ret.dirty = dirty;
  ret.version = version;
  ret.load = current_load();
  send_return(ret);
}

void ClientNode::on_denied(TxnId txn) {
  cpu_.submit(sys_.cfg().client_msg_overhead, [this, txn] {
    // Server-side wait-for-graph refusal: classic deadlock-victim restart.
    exec_.restart_victim(txn);
  });
}

}  // namespace rtdb::core
