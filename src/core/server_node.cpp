#include "core/server_node.hpp"

#include <algorithm>
#include <cassert>

#include "common/check.hpp"
#include "core/client_server.hpp"
#include "obs/telemetry.hpp"

namespace rtdb::core {

using lock::LockMode;

namespace {

/// Cap on the shared run of one forward list. Every fan-out member becomes
/// a registered SL holder, i.e. one more callback the next writer must wait
/// out; a cap keeps writer recall sets bounded.
constexpr std::size_t kMaxSharedFanout = 4;

}  // namespace

ServerNode::ServerNode(ClientServerSystem& sys)
    : sys_(sys),
      pf_(sys.sim(),
          storage::PagedFileConfig{sys.cfg().cs_server_buffer_capacity,
                                   sys.cfg().server_memory_access,
                                   sys.cfg().server_disk}),
      cpu_(sys.sim()) {}

void ServerNode::validate_invariants() const {
  glt_.validate_invariants();
  wfg_.validate_invariants();
  pf_.buffer().validate_invariants();
  // Every queue entry must be backed by a queued-txn record, and the
  // records must balance exactly: a mismatch means a pop path forgot its
  // note_entry_gone (a wait-for-graph leak).
  std::unordered_map<TxnId, std::size_t> in_queues;
  glt_.for_each_queue([&](ObjectId obj, const lock::ForwardList& q) {
    (void)obj;
    for (const auto& e : q.entries()) ++in_queues[e.txn];
  });
  for (const auto& [txn, count] : in_queues) {
    const auto it = queued_.find(txn);
    RTDB_CHECK(it != queued_.end() && it->second.entries == count,
               "txn %llu has %zu queued entries but %zu recorded",
               static_cast<unsigned long long>(txn.value()), count,
               it == queued_.end() ? std::size_t{0} : it->second.entries);
  }
  RTDB_CHECK(queued_.size() == in_queues.size(),
             "%zu queued-txn records for %zu txns with entries",
             queued_.size(), in_queues.size());
}

void ServerNode::reset_stats() {
  pf_.reset_stats();
  cpu_.reset_stats();
}

void ServerNode::update_load(ClientId client, const LoadInfo& load) {
  loads_[client] = load;
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

void ServerNode::on_request_batch(ObjectRequestBatch batch) {
  update_load(batch.client, batch.load);
  if (in_grace_) {
    // The lock table is still being rebuilt from re-assertions: granting
    // now could hand out a lock whose surviving holder has not re-asserted
    // yet. Park the batch; end_grace() serves it in arrival order.
    ++sys_.injector()->stats().grace_parked;
    grace_parked_.push_back(std::move(batch));
    return;
  }
  // One CPU slice per carried request message.
  const sim::Duration work =
      sys_.cfg().server_msg_overhead *
      static_cast<double>(std::max<std::size_t>(1, batch.needs.size()));
  const std::uint64_t inc = incarnation_;
  cpu_.submit(work, [this, inc, batch = std::move(batch)] {
    if (inc != incarnation_) return;
    process_batch(batch);
  });
}

void ServerNode::process_batch(const ObjectRequestBatch& batch) {
  const bool chaos = sys_.faults_active();
  // Duplicate-delivery suppression (faults only): a retransmitted need
  // whose entry already waits in the object's queue must not enqueue twice
  // — it would double its wait-for edges and unbalance the queue audit.
  std::vector<ObjectNeed> surviving;
  if (chaos) {
    for (const auto& need : batch.needs) {
      if (request_queued(batch.txn, batch.client, need.object)) {
        ++sys_.injector()->stats().duplicate_requests_ignored;
        continue;
      }
      surviving.push_back(need);
    }
    if (surviving.empty()) return;
  }
  const std::vector<ObjectNeed>& needs = chaos ? surviving : batch.needs;

  // Partition the needs: already covered (raced with an earlier grant —
  // answer immediately) versus pending. A pending need is "conflicted"
  // when it cannot be served this instant: incompatible holders, a
  // circulating copy, or earlier waiters already queued — new arrivals
  // never jump the queue (that would starve queued writers under a steady
  // reader stream; service order is the FCFS/ED queue's business).
  // While the object circulates, a shared forward-list member is already
  // registered as a holder but its copy may still be hops away: it is not
  // covered until that copy has arrived and the circulation has ended.
  std::vector<ObjectNeed> covered;
  std::vector<ObjectNeed> pending;
  std::vector<ObjectNeed> conflicted;
  for (const auto& need : needs) {
    const LockMode held = glt_.holder_mode(need.object, batch.client);
    if (lock::covers(held, need.mode) && !glt_.is_circulating(need.object)) {
      covered.push_back(need);
      continue;
    }
    pending.push_back(need);
    const bool instant =
        glt_.can_grant(need.object, batch.client, need.mode) &&
        glt_.queue(need.object).empty() &&
        windows_.count(need.object) == 0;
    if (!instant) conflicted.push_back(need);
  }

  // The LS protocol (paper §4): if the server cannot grant everything and
  // the client asked for the option, it ships nothing and reports where the
  // conflicting objects are, so the client can run H2. The batch is parked
  // here: a later "proceed" costs one control message, not a re-send.
  if (!conflicted.empty() && !batch.auto_proceed) {
    LocationReply reply;
    reply.txn = batch.txn;
    for (const auto& need : conflicted) {
      reply.conflicts.push_back(
          {need.object, glt_.location_of(need.object)});
    }
    std::vector<std::pair<ObjectId, LockMode>> all_needs;
    all_needs.reserve(batch.needs.size());
    for (const auto& n : batch.needs) all_needs.emplace_back(n.object, n.mode);
    reply.candidates = build_candidates(all_needs, batch.client);
    parked_[batch.txn] = batch;
    prune_parked();
    sys_.net().send<net::MessageKind::kLocationReply>(
        net::kServer, batch.client,
        [this, client = batch.client, reply = std::move(reply)] {
          sys_.client(client).on_location_reply(reply);
        });
    return;
  }

  // CS path (or LS after the client decided to stay): covered needs are
  // re-acknowledged immediately; everything else goes through the queue,
  // whose pump grants in policy order and calls back the blockers.
  for (const auto& need : covered) {
    // A retransmitted batch hitting a covered need means the original
    // grant was lost on the wire: re-ship it.
    if (chaos && batch.retransmit) {
      ++sys_.injector()->stats().duplicate_grants;
    }
    grant_now(batch.txn, batch.client, need);
  }
  if (!pending.empty()) {
    if (!enqueue_conflicted(batch, pending)) {
      return;  // deadlock admission refused the transaction
    }
  }
}

void ServerNode::grant_now(TxnId txn, ClientId client, const ObjectNeed& need) {
  const LockMode held = glt_.holder_mode(need.object, client);
  glt_.add_holder(need.object, client, need.mode);
  Grant g;
  g.txn = txn;
  g.object = need.object;
  g.mode = lock::stronger(held, need.mode);
  // Data only travels when the client has no copy (fresh fetch); upgrades
  // and re-grants are lock-only messages. The client's own have_copy word
  // decides — it knows better than the lock table whether it evicted.
  g.with_data = !need.have_copy;
  const auto kind = g.with_data ? net::MessageKind::kObjectShip
                                : net::MessageKind::kLockGrant;
  ship(client, std::move(g), kind);
}

bool ServerNode::enqueue_conflicted(const ObjectRequestBatch& batch,
                                    const std::vector<ObjectNeed>& conflicted) {
  // Wait-for admission: requester txn -> holder sites, plus requester's
  // own site -> txn, approximating the txn-level graph at the server's
  // client-lock granularity.
  std::vector<lock::TxnOrClientNode> blockers;
  for (const auto& need : conflicted) {
    glt_.for_each_conflicting_holder(
        need.object, need.mode, batch.client, [&](ClientId holder) {
          blockers.push_back(lock::TxnOrClientNode::of_client(holder));
        });
  }
  std::sort(blockers.begin(), blockers.end());
  blockers.erase(std::unique(blockers.begin(), blockers.end()),
                 blockers.end());

  // Admission adds txn->blocker edges plus site(client)->txn. A new cycle
  // can close either through the txn node (some blocker already reaches
  // this txn) or through the site edge (some blocker reaches this client's
  // site — e.g. two clients holding SLs and both requesting the upgrade).
  if (wfg_.would_deadlock(lock::TxnOrClientNode::of_txn(batch.txn),
                          blockers) ||
      wfg_.would_deadlock(lock::TxnOrClientNode::of_client(batch.client),
                          blockers)) {
    ++sys_.live_metrics().deadlock_refusals;
    deny_txn(batch.txn, batch.client);
    return false;
  }
  wfg_.add_edges(lock::TxnOrClientNode::of_txn(batch.txn), blockers);
  wfg_.add_edges(lock::TxnOrClientNode::of_client(batch.client),
                 {lock::TxnOrClientNode::of_txn(batch.txn)});

  const bool ed = sys_.ls().ed_request_scheduling;
  for (const auto& need : conflicted) {
    lock::ForwardEntry entry;
    entry.client = batch.client;
    entry.txn = batch.txn;
    entry.mode = need.mode;
    entry.expires = batch.deadline;
    entry.has_copy = need.have_copy;
    // ED service (paper §3.3) sorts by deadline; basic CS is FCFS, i.e.
    // sorted by arrival instant.
    entry.priority = ed ? batch.deadline : sys_.sim().now();
    glt_.queue(need.object).add(entry);
    note_queued(batch.txn, batch.client, need.object);
    if (sys_.telemetry().spans_enabled() || sys_.telemetry().events_enabled()) {
      SiteId holder = kInvalidSite;
      glt_.for_each_conflicting_holder(
          need.object, need.mode, batch.client, [&](ClientId c) {
            if (holder == kInvalidSite) holder = site_of(c);
          });
      if (sys_.telemetry().spans_enabled()) {
        sys_.telemetry().lock_queued(batch.txn, need.object, holder,
                                     sys_.sim().now());
      }
      if (sys_.telemetry().events_enabled()) {
        sys_.telemetry().event(obs::EventKind::kLockQueued, sys_.sim().now(),
                               kServerSite, batch.txn, need.object,
                               holder.value());
      }
    }

    if (!glt_.can_grant(need.object, batch.client, need.mode)) {
      // The object is busy elsewhere: open the collection window (lock
      // grouping) and call the blockers back.
      if (sys_.ls().enable_forward_lists) maybe_open_window(need.object);
      send_recalls(need.object);
    }
  }
  // One pump per distinct object serves whatever is instantly grantable.
  std::vector<ObjectId> objs;
  objs.reserve(conflicted.size());
  for (const auto& need : conflicted) objs.push_back(need.object);
  std::sort(objs.begin(), objs.end());
  objs.erase(std::unique(objs.begin(), objs.end()), objs.end());
  for (ObjectId obj : objs) pump_object(obj);
  return true;
}

void ServerNode::on_proceed_decision(ProceedDecision decision) {
  update_load(decision.client, decision.load);
  const std::uint64_t inc = incarnation_;
  cpu_.submit(sys_.cfg().server_msg_overhead, [this, inc, decision] {
    if (inc != incarnation_) return;
    auto it = parked_.find(decision.txn);
    if (it == parked_.end()) return;  // pruned or never parked
    ObjectRequestBatch batch = std::move(it->second);
    parked_.erase(it);
    if (!decision.proceed) return;  // withdrawn: the txn went elsewhere
    batch.auto_proceed = true;
    process_batch(batch);
  });
}

void ServerNode::prune_parked() {
  const sim::SimTime now = sys_.sim().now();
  for (auto it = parked_.begin(); it != parked_.end();) {
    it = it->second.deadline < now ? parked_.erase(it) : std::next(it);
  }
}

void ServerNode::deny_txn(TxnId txn, ClientId client) {
  sys_.net().send<net::MessageKind::kControl>(
      net::kServer, client,
      [this, client, txn] { sys_.client(client).on_denied(txn); });
}

// ---------------------------------------------------------------------------
// Recalls and windows
// ---------------------------------------------------------------------------

lock::LockMode ServerNode::strongest_queued_mode(ObjectId obj) {
  LockMode strongest = LockMode::kNone;
  for (const auto& e : glt_.queue(obj).entries()) {
    strongest = lock::stronger(strongest, e.mode);
  }
  return strongest;
}

void ServerNode::send_recalls(ObjectId obj) {
  // Per-holder callback decision: a holder is recalled only for requests
  // from *other* sites that conflict with its lock — a client upgrading
  // its own SL must never be asked to call back itself. The recall carries
  // the strongest mode those foreign requests desire, which is what lets
  // an EL holder answer a shared request with a downgrade (paper §2).
  const sim::SimTime now = sys_.sim().now();
  for (const auto& hold : glt_.holders(obj)) {
    LockMode wanted = LockMode::kNone;
    for (const auto& e : glt_.queue(obj).entries()) {
      if (e.client == hold.client || e.expires < now) continue;
      wanted = lock::stronger(wanted, e.mode);
    }
    if (wanted == LockMode::kNone) continue;
    if (lock::compatible(hold.mode, wanted)) continue;
    if (glt_.recall_pending(obj, hold.client)) continue;
    glt_.mark_recall_sent(obj, hold.client);
    if (sys_.telemetry().events_enabled()) {
      sys_.telemetry().event(obs::EventKind::kLockRecall, sys_.sim().now(),
                             kServerSite, kInvalidTxn, obj,
                             site_of(hold.client).value(),
                             wanted == LockMode::kExclusive ? 1 : 0);
    }
    Recall r{obj, wanted, epoch_};
    sys_.net().send<net::MessageKind::kObjectRecall>(
        net::kServer, hold.client,
        [this, client = hold.client, r] { sys_.client(client).on_recall(r); });
    if (sys_.faults_active()) {
      ++recall_tries_[obj][hold.client];
      arm_recall_watchdog(obj, hold.client);
    }
  }
}

void ServerNode::arm_recall_watchdog(ObjectId obj, ClientId client) {
  // A dropped recall (or a dropped return answering it) leaves the callback
  // pending forever and the waiters starved. Re-send until the recall
  // clears — normally (answer arrives), by reclamation (holder declared
  // dead), or because nobody waits any more.
  const std::uint64_t inc = incarnation_;
  sys_.sim().after(sys_.injector()->plan().recall_timeout,
                   [this, inc, obj, client] {
    if (inc != incarnation_) return;
    if (!glt_.recall_pending(obj, client)) return;
    const LockMode wanted = strongest_queued_mode(obj);
    if (wanted == LockMode::kNone) {
      // Every waiter expired meanwhile: the callback is moot.
      glt_.clear_recall(obj, client);
      return;
    }
    ++sys_.injector()->stats().recall_retransmits;
    if (sys_.telemetry().events_enabled()) {
      sys_.telemetry().event(obs::EventKind::kRetransmit, sys_.sim().now(),
                             kServerSite, kInvalidTxn, obj,
                             site_of(client).value());
    }
    Recall r{obj, wanted, epoch_};
    sys_.net().send<net::MessageKind::kObjectRecall>(
        net::kServer, client,
        [this, client, r] { sys_.client(client).on_recall(r); });
    ++recall_tries_[obj][client];
    arm_recall_watchdog(obj, client);
  });
}

std::size_t ServerNode::groupable_prefix(ObjectId obj) {
  // Length of the queue prefix a forward list could ship as one group:
  // an exclusive run (capped) optionally followed by a shared fan-out run
  // (capped); a head-of-queue shared run when the fan-out is enabled.
  auto& q = glt_.queue(obj);
  // peek_next physically drops expired entries; they must be accounted
  // (metrics + wait-for-graph teardown) or their txns leak queued records.
  std::vector<lock::ForwardEntry> skipped;
  const lock::ForwardEntry* head = q.peek_next(sys_.sim().now(), &skipped);
  note_skipped(skipped, obj);
  if (!head) return 0;
  std::size_t group = 0;
  std::size_t el_hops = 0;
  std::size_t sl_fans = 0;
  bool in_shared_tail = head->mode == LockMode::kShared;
  for (const auto& e : q.entries()) {
    if (e.expires < sys_.sim().now()) continue;
    if (e.mode == LockMode::kShared) {
      if (!sys_.ls().parallel_shared_grants) break;
      if (++sl_fans > kMaxSharedFanout) break;
      in_shared_tail = true;
    } else if (in_shared_tail) {
      break;  // second mode switch: next group
    } else if (++el_hops > sys_.ls().max_exclusive_hops) {
      break;  // bound the writer chain (see max_exclusive_hops)
    }
    ++group;
  }
  return group;
}

void ServerNode::maybe_close_window_early(ObjectId obj) {
  // The collection window exists to batch a *group* while the object is
  // away being recalled. Once every callback is answered and the queue's
  // groupable prefix cannot circulate anyway (e.g. a lone writer, or a
  // writer trailed by readers of the next round), holding the grant to the
  // wall-clock window end would only inflate response times.
  if (glt_.recalls_outstanding(obj) != 0) return;
  auto w = windows_.find(obj);
  if (w == windows_.end()) return;
  if (groupable_prefix(obj) >= 2) return;  // a real group: let it grow
  sys_.sim().cancel(w->second);
  windows_.erase(w);
}

void ServerNode::maybe_open_window(ObjectId obj) {
  if (windows_.count(obj) != 0 || glt_.is_circulating(obj)) return;
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(obs::EventKind::kWindowOpen, sys_.sim().now(),
                           kServerSite, kInvalidTxn, obj);
  }
  const auto id = sys_.sim().after(sys_.ls().collection_window,
                                   [this, obj] { on_window_end(obj); });
  windows_.emplace(obj, id);
}

void ServerNode::on_window_end(ObjectId obj) {
  windows_.erase(obj);
  pump_object(obj);
}

// ---------------------------------------------------------------------------
// Grant pump
// ---------------------------------------------------------------------------

void ServerNode::pump_object(ObjectId obj) {
  if (glt_.is_circulating(obj)) return;
  if (windows_.count(obj) != 0) return;  // still collecting

  auto& q = glt_.queue(obj);
  for (;;) {
    std::vector<lock::ForwardEntry> skipped;
    const lock::ForwardEntry* head = q.peek_next(sys_.sim().now(), &skipped);
    note_skipped(skipped, obj);
    if (!head) return;

    // Lock grouping (paper §3.4): a travelling forward list made of an
    // exclusive run followed by a shared run.
    //   * EL hops forward at commit time — writers must serialize anyway,
    //     so the hop saves the per-writer server round trip and recall.
    //   * SL entries fan out at *receipt* time as chained copies (the
    //     paper's "parallel read-only access" annotation) and become
    //     registered holders that keep the copy cached.
    // The 2n+1 message economy comes from both: each served entry costs
    // one forward instead of a request/ship or recall/return pair.
    if (sys_.ls().enable_forward_lists) {
      const std::size_t group = groupable_prefix(obj);
      if (group >= 2) {
        const LockMode strongest = head->mode == LockMode::kExclusive
                                       ? LockMode::kExclusive
                                       : LockMode::kShared;
        if (!glt_.can_grant(obj, head->client, strongest)) {
          send_recalls(obj);
          return;
        }
        std::vector<lock::ForwardEntry> list;
        while (list.size() < group) {
          std::vector<lock::ForwardEntry> more_skipped;
          auto e = q.pop_next(sys_.sim().now(), &more_skipped);
          note_skipped(more_skipped, obj);
          if (!e) break;
          list.push_back(*e);
          note_entry_gone(e->txn, obj);
          if (sys_.telemetry().spans_enabled()) {
            sys_.telemetry().lock_served(e->txn, obj, sys_.sim().now());
          }
        }
        assert(!list.empty());
        if (list.size() >= 2) {
          // An exclusive hop whose site already holds a SL (an upgrade
          // being served by the chain) hands that lock to the chain: the
          // retained registration must go, or the site would look like a
          // live reader while downstream hops write.
          for (const auto& e : list) {
            if (e.mode == LockMode::kExclusive &&
                glt_.holder_mode(obj, e.client) != LockMode::kNone) {
              glt_.remove_holder(obj, e.client);
            }
          }
          // Shared members are holders from the moment the list ships —
          // their copies will stay cached under a SL.
          for (const auto& e : list) {
            if (e.mode == LockMode::kShared) {
              glt_.add_holder(obj, e.client, LockMode::kShared);
            }
          }
          glt_.set_circulating(obj, list.back().client);
          if (sys_.faults_active()) arm_circulation_watchdog(obj, list);
          if (sys_.telemetry().events_enabled()) {
            sys_.telemetry().event(obs::EventKind::kCirculate,
                                   sys_.sim().now(), kServerSite, list[0].txn,
                                   obj, site_of(list[0].client).value(), 0,
                                   static_cast<double>(list.size()));
          }
          Grant g;
          g.txn = list[0].txn;
          g.object = obj;
          g.mode = list[0].mode;
          g.with_data = true;
          g.circulating = true;
          g.forward_list.assign(list.begin() + 1, list.end());
          ship(list[0].client, std::move(g), net::MessageKind::kObjectShip);
          return;
        }
        // The group collapsed to one entry (expiries): plain grant.
        glt_.add_holder(obj, list[0].client, list[0].mode);
        Grant g;
        g.txn = list[0].txn;
        g.object = obj;
        g.mode = list[0].mode;
        g.with_data = true;
        ship(list[0].client, std::move(g), net::MessageKind::kObjectShip);
        continue;
      }
    }

    if (!glt_.can_grant(obj, head->client, head->mode)) {
      send_recalls(obj);
      return;
    }
    std::vector<lock::ForwardEntry> more_skipped;
    auto e = q.pop_next(sys_.sim().now(), &more_skipped);
    note_skipped(more_skipped, obj);
    assert(e);
    note_entry_gone(e->txn, obj);
    if (sys_.telemetry().spans_enabled()) {
      sys_.telemetry().lock_served(e->txn, obj, sys_.sim().now());
    }
    const LockMode held = glt_.holder_mode(obj, e->client);
    glt_.add_holder(obj, e->client, e->mode);
    Grant g;
    g.txn = e->txn;
    g.object = obj;
    g.mode = lock::stronger(held, e->mode);
    g.with_data = !e->has_copy;  // upgrades keep their copy
    const auto kind = g.with_data ? net::MessageKind::kObjectShip
                                  : net::MessageKind::kLockGrant;
    ship(e->client, std::move(g), kind);
    // Loop: further compatible waiters (e.g. a run of readers) may follow.
  }
}

void ServerNode::ship(ClientId to, Grant grant, net::MessageKind kind) {
  grant.epoch = epoch_;
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(obs::EventKind::kLockGrant, sys_.sim().now(),
                           kServerSite, grant.txn, grant.object,
                           site_of(to).value(),
                           grant.mode == LockMode::kExclusive ? 1 : 0,
                           grant.with_data ? 1 : 0);
  }
  if (grant.with_data) {
    // The data leaves with the server's current version (auditing).
    grant.version = version_of(grant.object);
    // Read the page (buffer hit or disk) before it can leave the server.
    const ObjectId obj = grant.object;
    const sim::SimTime read_start = sys_.sim().now();
    const std::uint64_t inc = incarnation_;
    pf_.access(obj, /*write=*/false,
               [this, inc, to, kind, read_start, grant = std::move(grant)] {
                 if (inc != incarnation_) return;
                 if (sys_.telemetry().spans_enabled()) {
                   sys_.telemetry().server_disk_wait(
                       grant.txn, grant.object,
                       sys_.sim().now() - read_start);
                 }
                 ship_send(to, kind, grant);
               });
  } else {
    ship_send(to, kind, std::move(grant));
  }
}

void ServerNode::ship_send(ClientId to, net::MessageKind kind, Grant grant) {
  // The grant kind is decided at runtime (data versus lock-only), so the
  // typestate dispatch happens here: both branches are server->client.
  auto deliver = [this, to, grant = std::move(grant)] {
    sys_.client(to).on_grant(grant);
  };
  if (kind == net::MessageKind::kObjectShip) {
    sys_.net().send<net::MessageKind::kObjectShip>(net::kServer, to,
                                                   std::move(deliver));
  } else {
    sys_.net().send<net::MessageKind::kLockGrant>(net::kServer, to,
                                                  std::move(deliver));
  }
}

// ---------------------------------------------------------------------------
// Returns
// ---------------------------------------------------------------------------

void ServerNode::on_object_return(ObjectReturn ret) {
  update_load(ret.client, ret.load);
  const std::uint64_t inc = incarnation_;
  cpu_.submit(sys_.cfg().server_msg_overhead, [this, inc, ret] {
    if (inc != incarnation_) return;
    if (sys_.telemetry().events_enabled()) {
      sys_.telemetry().event(obs::EventKind::kLockReturn, sys_.sim().now(),
                             kServerSite, kInvalidTxn, ret.object,
                             site_of(ret.client).value(),
                             ret.dirty ? 1 : 0);
    }
    const bool chaos = sys_.faults_active();
    if (chaos && ret.dirty && ret.version <= version_of(ret.object)) {
      // Duplicate of an already-applied dirty return (a retransmission, or
      // a late copy racing a watchdog repair): acknowledge so the sender
      // stops, but change nothing — re-installing would regress the
      // server's committed version.
      ++sys_.injector()->stats().duplicate_returns_ignored;
      ack_return(ret);
      if (ret.from_circulation) glt_.clear_circulating(ret.object);
      glt_.clear_recall(ret.object, ret.client);
      maybe_close_window_early(ret.object);
      pump_object(ret.object);
      return;
    }
    if (ret.from_circulation) {
      pf_.install(ret.object, ret.dirty);
      if (ret.dirty) {
        versions_.slot(ret.object) = ret.version;
      } else if (!chaos || ret.version == version_of(ret.object)) {
        sys_.auditor().on_clean_return(ret.object, site_of(ret.client),
                                       ret.version, version_of(ret.object),
                                       sys_.sim().now());
      } else {
        // Stale clean copy from a repaired circulation: already accounted.
        ++sys_.injector()->stats().duplicate_returns_ignored;
      }
      glt_.clear_circulating(ret.object);
      // A window may have opened for requests that arrived mid-circulation.
      maybe_close_window_early(ret.object);
      pump_object(ret.object);
      return;
    }
    if (ret.was_held) {
      if (ret.downgraded) {
        glt_.downgrade_holder(ret.object, ret.client);
      } else {
        glt_.remove_holder(ret.object, ret.client);
      }
      if (chaos) clear_recall_tries(ret.object, ret.client);
      if (ret.dirty) {
        pf_.install(ret.object, /*dirty=*/true);
        versions_.slot(ret.object) = ret.version;
        ack_return(ret);
      } else if (!chaos || ret.version == version_of(ret.object)) {
        sys_.auditor().on_clean_return(ret.object, site_of(ret.client),
                                       ret.version, version_of(ret.object),
                                       sys_.sim().now());
      } else {
        ++sys_.injector()->stats().duplicate_returns_ignored;
      }
    } else if (chaos && recall_tries(ret.object, ret.client) >= 2) {
      // Repeated recalls keep coming back "not held": the grant really was
      // lost and the registration is a phantom that would wedge every
      // future writer — drop it. (A single "not held" is usually just the
      // small recall frame overtaking its own large data grant; keeping
      // the registration lets the next pump re-recall and resolve it.)
      glt_.remove_holder(ret.object, ret.client);
      clear_recall_tries(ret.object, ret.client);
      ++sys_.injector()->stats().orphan_locks_reclaimed;
    }
    glt_.clear_recall(ret.object, ret.client);
    maybe_close_window_early(ret.object);
    pump_object(ret.object);
  });
}

void ServerNode::ack_return(const ObjectReturn& ret) {
  if (!sys_.faults_active() || !ret.dirty || ret.from_circulation) return;
  sys_.net().send<net::MessageKind::kControl>(
      net::kServer, ret.client,
      [this, client = ret.client, obj = ret.object, v = ret.version] {
        sys_.client(client).on_return_acked(obj, v);
      });
}

std::uint32_t ServerNode::recall_tries(ObjectId obj, ClientId client) const {
  const auto it = recall_tries_.find(obj);
  if (it == recall_tries_.end()) return 0;
  const auto c = it->second.find(client);
  return c == it->second.end() ? 0 : c->second;
}

void ServerNode::clear_recall_tries(ObjectId obj, ClientId client) {
  const auto it = recall_tries_.find(obj);
  if (it == recall_tries_.end()) return;
  it->second.erase(client);
  if (it->second.empty()) recall_tries_.erase(it);
}

bool ServerNode::request_queued(TxnId txn, ClientId client,
                                ObjectId obj) const {
  // Keyed on (txn, client): a transaction shipped elsewhere after a
  // retransmission re-requests under a different client and must not be
  // mistaken for its own ghost.
  const lock::ForwardList* q = glt_.queue_if_any(obj);
  if (!q) return false;
  for (const auto& e : q->entries()) {
    if (e.txn == txn && e.client == client) return true;
  }
  return false;
}

void ServerNode::arm_circulation_watchdog(
    ObjectId obj, const std::vector<lock::ForwardEntry>& list) {
  sim::SimTime last = sys_.sim().now();
  for (const auto& e : list) {
    if (e.expires.finite() && e.expires > last) last = e.expires;
  }
  const std::uint64_t seq = ++circ_seq_.slot(obj);
  const std::uint64_t inc = incarnation_;
  sys_.sim().at(last + sys_.injector()->plan().circulation_grace,
                [this, inc, obj, seq] {
    if (inc != incarnation_) return;
    if (circ_seq_.value_or_default(obj) != seq) return;
    if (!glt_.is_circulating(obj)) return;
    // The travelling copy never came home: a dropped forward hop or a
    // crashed holder. The server's own copy becomes authoritative again;
    // whatever update the lost copy carried is an accounted loss.
    ++sys_.injector()->stats().circulation_repairs;
    if (sys_.telemetry().events_enabled()) {
      sys_.telemetry().event(obs::EventKind::kFaultRepair, sys_.sim().now(),
                             kServerSite, kInvalidTxn, obj);
    }
    glt_.clear_circulating(obj);
    sys_.accounted_loss(obj);
    maybe_close_window_early(obj);
    pump_object(obj);
  });
}

void ServerNode::reclaim_client(ClientId client) {
  auto& stats = sys_.injector()->stats();
  if (sys_.telemetry().events_enabled()) {
    sys_.telemetry().event(obs::EventKind::kSiteDead, sys_.sim().now(),
                           kServerSite, kInvalidTxn, ObjectId{},
                           site_of(client).value());
  }
  // Orphaned holds: the dead site can neither answer recalls nor return
  // copies. Its cached data (and any update it carried) died with it —
  // the crash wipe already accounted the versions.
  std::vector<ObjectId> touched = glt_.objects_held_by(client);
  std::sort(touched.begin(), touched.end());
  for (ObjectId obj : touched) {
    glt_.remove_holder(obj, client);
    glt_.clear_recall(obj, client);
    ++stats.orphan_locks_reclaimed;
  }
  for (auto it = recall_tries_.begin(); it != recall_tries_.end();) {
    it->second.erase(client);
    it = it->second.empty() ? recall_tries_.erase(it) : std::next(it);
  }
  // Queued requests from the dead site would be granted into the void, and
  // their wait-for edges would pin the graph: sweep them out, keeping the
  // queue/record balance the invariant audit checks.
  for (const auto& [obj, txn] : glt_.entries_of_client(client)) {
    const std::size_t removed = glt_.queue(obj).remove_txn(txn);
    for (std::size_t i = 0; i < removed; ++i) note_entry_gone(txn, obj);
    stats.queue_entries_reclaimed += removed;
    touched.push_back(obj);
  }
  wfg_.remove_node(lock::TxnOrClientNode::of_client(client));
  loads_.erase(client);
  for (auto it = parked_.begin(); it != parked_.end();) {
    it = it->second.client == client ? parked_.erase(it) : std::next(it);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (ObjectId obj : touched) {
    maybe_close_window_early(obj);
    pump_object(obj);
  }
  glt_.compact();
}

// ---------------------------------------------------------------------------
// Server crash / epoch-leased recovery
// ---------------------------------------------------------------------------

void ServerNode::crash() {
  // The incarnation bump neutralizes every async continuation (CPU slices,
  // disk-read completions, recall/circulation watchdogs, window timers)
  // armed by the dead incarnation.
  ++incarnation_;
  for (auto& [obj, id] : windows_) sys_.sim().cancel(id);
  windows_.clear();
  // The standby applied every mutation up to the crash instant, and nothing
  // mutates the table while the server is down: its state at promotion is
  // exactly the table's state now.
  if (standby_armed()) standby_ = glt_.snapshot();
  glt_.clear();
  wfg_.clear();
  queued_.clear();
  parked_.clear();
  recall_tries_.clear();
  loads_.clear();
  grace_parked_.clear();
  in_grace_ = false;
}

bool ServerNode::standby_armed() const {
  return sys_.faults_active() && sys_.injector()->plan().warm_standby;
}

std::uint64_t ServerNode::standby_mutations() const {
  return standby_armed() ? glt_.mutations() : 0;
}

void ServerNode::restart(bool failover) {
  ++epoch_;
  const fault::FaultPlan& plan = sys_.injector()->plan();
  if (plan.recovery_disabled) return;  // serve from an empty table (broken)
  if (failover && standby_armed()) {
    // Promotion: the standby's copy IS the lock table.
    glt_.restore(standby_);
    for (const auto& c : standby_.circulating) {
      // The chain kept moving while the primary was down; give it a fresh
      // conservative watchdog in case a hop was lost meanwhile.
      arm_circulation_watchdog(c.object, {});
    }
    standby_ = {};
    return;
  }
  // Grace rebuild: surviving holders re-assert; new request batches park
  // until the window closes.
  in_grace_ = true;
  const std::uint64_t inc = incarnation_;
  sys_.sim().after(plan.server_recovery_grace, [this, inc] {
    if (inc != incarnation_) return;
    end_grace();
  });
}

void ServerNode::end_grace() {
  in_grace_ = false;
  // Unclaimed locks need no sweep: the rebuilt table only ever contained
  // accepted re-assertions. Serve the parked batches in arrival order.
  std::vector<ObjectRequestBatch> parked = std::move(grace_parked_);
  grace_parked_.clear();
  for (auto& batch : parked) on_request_batch(std::move(batch));
}

void ServerNode::on_reassert(ReassertBatch batch) {
  update_load(batch.client, batch.load);
  const sim::Duration work =
      sys_.cfg().server_msg_overhead *
      static_cast<double>(std::max<std::size_t>(1, batch.entries.size()));
  const std::uint64_t inc = incarnation_;
  cpu_.submit(work, [this, inc, batch = std::move(batch)] {
    if (inc != incarnation_) return;
    auto& stats = sys_.injector()->stats();
    ReassertAck ack;
    ack.epoch = batch.epoch;
    if (batch.epoch != epoch_) {
      // The batch joined a dead incarnation (a second crash overtook it).
      // Reject wholesale; the client's current-epoch retry stands alone.
      ++stats.stale_epoch_rejected;
      for (const auto& e : batch.entries) ack.rejected.push_back(e.object);
    } else {
      for (const auto& e : batch.entries) {
        const LockMode held = glt_.holder_mode(e.object, batch.client);
        if (lock::covers(held, e.mode)) {
          // Re-delivered (retransmit or wire duplicate): already installed.
          ++stats.duplicate_reasserts_ignored;
          ack.accepted.push_back(e.object);
          continue;
        }
        const bool compatible =
            glt_.can_grant(e.object, batch.client, e.mode);
        if (in_grace_ && compatible) {
          glt_.add_holder(e.object, batch.client, e.mode);
          ++stats.reasserts_accepted;
          ack.accepted.push_back(e.object);
        } else {
          // Grace expired, or a conflicting holder re-asserted first
          // (first arrival wins deterministically): the lease is gone. The
          // client releases the copy; a dirty one is an accounted loss.
          ack.rejected.push_back(e.object);
        }
      }
    }
    sys_.net().send<net::MessageKind::kReassertAck>(
        net::kServer, batch.client,
        [this, client = batch.client, ack = std::move(ack)] {
          sys_.client(client).on_reassert_ack(ack);
        });
  });
}

// ---------------------------------------------------------------------------
// Location service (H2 / decomposition)
// ---------------------------------------------------------------------------

void ServerNode::on_location_query(LocationQuery query) {
  update_load(query.client, query.load);
  const std::uint64_t inc = incarnation_;
  cpu_.submit(sys_.cfg().server_msg_overhead,
              [this, inc, query = std::move(query)] {
    if (inc != incarnation_) return;
    LocationReply reply;
    reply.txn = query.txn;
    std::vector<std::pair<ObjectId, LockMode>> needs;
    needs.reserve(query.needs.size());
    for (const auto& n : query.needs) {
      needs.emplace_back(n.object, n.mode);
      reply.conflicts.push_back({n.object, glt_.location_of(n.object)});
    }
    reply.candidates = build_candidates(needs, query.client);
    sys_.net().send<net::MessageKind::kLocationReply>(
        net::kServer, query.client,
        [this, client = query.client, reply = std::move(reply)] {
          sys_.client(client).on_location_reply(reply);
        });
  });
}

std::vector<LocationReply::Candidate> ServerNode::build_candidates(
    const std::vector<std::pair<ObjectId, LockMode>>& needs,
    ClientId origin) const {
  // Candidates: the origin, every client holding one of the needed objects,
  // and the least-loaded client known to the load table.
  std::vector<ClientId> clients{origin};
  for (const auto& [obj, mode] : needs) {
    (void)mode;
    const SiteId loc = glt_.location_of(obj);
    if (loc != kServerSite) clients.push_back(client_of(loc));
  }
  ClientId least_loaded = kInvalidClient;
  std::size_t best = SIZE_MAX;
  for (const auto& [client, load] : loads_) {
    if (load.live_txns < best) {
      best = load.live_txns;
      least_loaded = client;
    }
  }
  if (least_loaded != kInvalidClient) clients.push_back(least_loaded);
  std::sort(clients.begin(), clients.end());
  clients.erase(std::unique(clients.begin(), clients.end()), clients.end());

  std::vector<LocationReply::Candidate> result;
  result.reserve(clients.size());
  for (ClientId client : clients) {
    // LS degradation under faults: H1/H2 must stop proposing sites that are
    // down or cut off — shipping there just converts the miss into a
    // guaranteed one plus wasted wire time.
    if (sys_.faults_active() &&
        (sys_.injector()->down(client, sys_.sim().now()) ||
         sys_.injector()->partitioned(site_of(client), kServerSite,
                                      sys_.sim().now()))) {
      ++sys_.injector()->stats().candidates_filtered;
      continue;
    }
    LocationReply::Candidate c;
    c.client = client;
    c.conflict_count = glt_.conflict_count_at(needs, client);
    for (const auto& [obj, mode] : needs) {
      (void)mode;
      if (glt_.holder_mode(obj, client) != LockMode::kNone) ++c.objects_held;
    }
    auto it = loads_.find(client);
    if (it != loads_.end()) {
      c.live_txns = it->second.live_txns;
      c.atl = it->second.atl;
    }
    result.push_back(c);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Wait-for-graph bookkeeping
// ---------------------------------------------------------------------------

void ServerNode::note_queued(TxnId txn, ClientId client, ObjectId obj) {
  (void)obj;
  auto& q = queued_[txn];
  q.client = client;
  ++q.entries;
}

void ServerNode::note_entry_gone(TxnId txn, ObjectId obj) {
  (void)obj;
  auto it = queued_.find(txn);
  if (it == queued_.end()) return;
  if (--it->second.entries == 0) {
    wfg_.remove_node(lock::TxnOrClientNode::of_txn(txn));
    queued_.erase(it);
  }
}

void ServerNode::note_skipped(const std::vector<lock::ForwardEntry>& skipped,
                              ObjectId obj) {
  for (const auto& e : skipped) {
    ++sys_.live_metrics().expired_requests_skipped;
    if (sys_.telemetry().events_enabled()) {
      sys_.telemetry().event(obs::EventKind::kExpiredSkip, sys_.sim().now(),
                             kServerSite, e.txn, obj);
    }
    note_entry_gone(e.txn, obj);
  }
}

}  // namespace rtdb::core
