#include "core/system.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "workload/access_pattern.hpp"

namespace rtdb::core {

System::System(SystemConfig config)
    : config_(config),
      net_(sim_, config.network),
      suite_(config.workload, config.num_clients, config.seed) {
  tel_.configure(config_.telemetry);
  if (tel_.events_enabled()) {
    // Record every counted wire message as a typed event. The hook is only
    // installed when event recording is on, so the disabled cost stays at
    // one branch inside Network::send.
    net_.set_send_hook([this](SiteId src, SiteId dst, net::MessageKind kind,
                              std::uint64_t frame_bytes) {
      tel_.event(obs::EventKind::kMsgSend, sim_.now(), src, kInvalidTxn,
                 ObjectId{}, dst.value(), static_cast<std::int32_t>(kind),
                 static_cast<double>(frame_bytes));
    });
  }
  if (!config_.fault.empty()) {
    // Chaos run: install the deterministic injector as the network's fault
    // seam. Empty plans install nothing — faults_active() stays false and
    // the run is byte-identical to a fault-free build.
    injector_ =
        std::make_unique<fault::FaultInjector>(config_.fault, config_.seed);
    net_.set_fault_hook(injector_.get());
  }
}

void System::arm_fault_schedule() {
  if (!faults_active()) return;
  const fault::FaultPlan& plan = injector_->plan();
  for (const auto& w : plan.crashes) {
    const auto index = static_cast<std::size_t>(w.client.value() - 1);
    if (index >= config_.num_clients) continue;
    sim_.at(w.start, [this, index] {
      ++injector_->stats().crashes;
      if (tel_.events_enabled()) {
        tel_.event(obs::EventKind::kSiteCrash, sim_.now(),
                   site_of(ClientId{static_cast<ClientId::Rep>(index + 1)}),
                   kInvalidTxn);
      }
      on_site_crash(index);
    });
    if (w.start + plan.detection_delay < w.end) {
      // The site stays down past the detection lag: the server declares it
      // dead and reclaims its orphaned locks / queue entries.
      sim_.at(w.start + plan.detection_delay,
              [this, index] { on_site_declared_dead(index); });
    }
    if (w.end.finite()) {
      sim_.at(w.end, [this, index] {
        ++injector_->stats().recoveries;
        if (tel_.events_enabled()) {
          tel_.event(obs::EventKind::kSiteRecover, sim_.now(),
                     site_of(ClientId{static_cast<ClientId::Rep>(index + 1)}),
                     kInvalidTxn);
        }
        on_site_recover(index);
      });
    }
  }
  if (!plan.allow_server_crash) return;
  for (const auto& w : plan.server_crashes) {
    sim_.at(w.start, [this] {
      ++injector_->stats().server_crashes;
      if (tel_.events_enabled()) {
        tel_.event(obs::EventKind::kSiteCrash, sim_.now(), kServerSite,
                   kInvalidTxn);
      }
      on_server_crash();
    });
    // A warm standby is promoted standby_failover after the crash even when
    // the scheduled outage runs longer — the injector's server_down() uses
    // the same effective end, so the promoted server is reachable.
    const sim::SimTime back = plan.effective_end(w);
    if (back.finite()) {
      const bool failover = plan.warm_standby;
      sim_.at(back, [this, failover] {
        auto& stats = injector_->stats();
        if (failover) {
          ++stats.server_failovers;
        } else {
          ++stats.server_recoveries;
        }
        if (tel_.events_enabled()) {
          tel_.event(obs::EventKind::kSiteRecover, sim_.now(), kServerSite,
                     kInvalidTxn);
        }
        on_server_restart(failover);
      });
    }
  }
}

void System::schedule_next_arrival(std::size_t client_index) {
  auto& source = suite_.client(client_index);
  const sim::Duration gap = source.next_interarrival();
  const sim::SimTime when = sim_.now() + gap;
  // Arrivals stop at the end of the measurement window; the drain phase
  // only resolves transactions already in flight.
  if (when >= config_.measure_end()) return;
  sim_.at(when, [this, client_index] {
    auto& src = suite_.client(client_index);
    txn::Transaction t = src.make_transaction(next_txn_id(), sim_.now());
    record_generated(t);
    schedule_next_arrival(client_index);
    if (faults_active() &&
        injector_->down(
            ClientId{static_cast<ClientId::Rep>(client_index + 1)},
            sim_.now())) {
      // The originating site is crashed: the transaction is lost with it.
      // Account it immediately so nothing disappears silently.
      ++injector_->stats().arrivals_while_down;
      resolve(t, txn::TxnState::kMissed, t.origin);
      return;
    }
    on_arrival(client_index, std::move(t));
  });
}

void System::warm_start(
    const std::function<void(std::size_t, ObjectId)>& cache_copy,
    const std::function<void(ObjectId)>& preload) const {
  if (!config_.warm_start) return;
  // Regions exist only under the localized pattern; any other pattern
  // starts with empty client caches.
  if (const auto* pattern = dynamic_cast<const workload::LocalizedRwPattern*>(
          &suite_.pattern())) {
    const std::size_t cap = config_.client_cache.memory_capacity +
                            config_.client_cache.disk_capacity;
    const std::size_t span = std::min(pattern->region_size(), cap);
    for (std::size_t i = 0; i < config_.num_clients; ++i) {
      const ObjectId first = pattern->region_first(i);
      const ObjectId last{static_cast<ObjectId::Rep>(first.value() + span)};
      for (ObjectId obj = first; obj < last; ++obj) cache_copy(i, obj);
    }
  }
  // The server buffer holds the hottest (lowest-numbered) objects.
  const auto bound = static_cast<ObjectId::Rep>(std::min<std::size_t>(
      config_.cs_server_buffer_capacity, config_.workload.db_size));
  for (ObjectId obj{0}; obj < ObjectId{bound}; ++obj) preload(obj);
}

void System::on_measurement_start() {
  metrics_ = RunMetrics{};
  net_.reset_stats();
}

void System::arm_structure_audit() {
  std::uint64_t interval = config_.audit_interval;
  if (interval == 0 && common::dchecks_enabled()) interval = 1024;
  if (const char* e = std::getenv("RTDB_AUDIT_INTERVAL")) {
    interval = std::strtoull(e, nullptr, 10);
  }
  if (interval == 0) return;
  sim_.set_audit_hook(interval, [this] { audit_structures(); });
}

void System::arm_sampler() {
  if (!tel_.sampling_enabled()) return;
  schedule_sample(sim_.now() + config_.telemetry.sample_interval);
}

void System::schedule_sample(sim::SimTime when) {
  // The probe mirrors the structure-audit discipline: it fires between
  // ordinary events, reads gauges, and never mutates scheduling state, so
  // the run's outcome (and its determinism digest) is identical with the
  // sampler on or off.
  if (when > config_.horizon()) return;
  sim_.at(when, [this, when] {
    tel_.begin_frame(when);
    sample_gauges();
    tel_.end_frame();
    schedule_sample(when + config_.telemetry.sample_interval);
  });
}

RunMetrics System::run() {
  arm_structure_audit();
  arm_sampler();
  start();
  arm_fault_schedule();
  for (std::size_t i = 0; i < suite_.num_clients(); ++i) {
    schedule_next_arrival(i);
  }
  sim_.run_until(config_.measure_start());
  on_measurement_start();
  sim_.run_until(config_.horizon());

  metrics_.messages = net_.stats();
  metrics_.network_utilization = net_.utilization();
  metrics_.consistency_violations = auditor_.violations().size();
  finalize(metrics_);

  // Safety net: transactions whose (exponentially distributed) deadline or
  // service stretched past the drain horizon count as missed — they cannot
  // have met any useful deadline by then.
  if (metrics_.generated > metrics_.committed + metrics_.missed +
                               metrics_.aborted) {
    const std::uint64_t stragglers = metrics_.generated -
                                     metrics_.committed - metrics_.missed -
                                     metrics_.aborted;
    metrics_.missed += stragglers;
    // Keep the miss-attribution table reconciled with missed + aborted:
    // these never had a recorded outcome to attribute.
    if (tel_.spans_enabled()) tel_.add_unattributed(stragglers);
  }
  return metrics_;
}

void System::record_generated(const txn::Transaction& t) {
  // Spans cover every generated transaction (warm-up included) so traces
  // show the whole run; the attribution table below only counts measured
  // outcomes.
  if (tel_.spans_enabled()) {
    tel_.txn_admit(t.id, t.origin, t.arrival, t.deadline, sim_.now());
  }
  if (tel_.events_enabled()) {
    tel_.event(obs::EventKind::kTxnAdmit, sim_.now(), t.origin, t.id);
  }
  if (is_measured(t)) ++metrics_.generated;
}

bool System::first_outcome(const txn::Transaction& t) {
  if (resolved_.insert(t.id).second) return true;
  ++double_records_;
  std::fprintf(stderr, "rtdb: duplicate outcome for txn %llu at t=%.3f\n",
               static_cast<unsigned long long>(t.id.value()), sim_.now().sec());
  return false;
}

void System::record(const txn::Transaction& t, txn::TxnState outcome) {
  const obs::Outcome o = outcome_of(outcome);
  const sim::SimTime now = sim_.now();
  if (tel_.spans_enabled()) tel_.txn_end(t.id, o, now);
  if (!is_measured(t) || !first_outcome(t)) return;
  if (o == obs::Outcome::kCommitted) {
    ++metrics_.committed;
    metrics_.response_time.add((now - t.arrival).sec());
    metrics_.commit_slack.add((t.deadline - now).sec());
    return;
  }
  if (o == obs::Outcome::kMissed) {
    ++metrics_.missed;
  } else {
    ++metrics_.aborted;
  }
  // The attribution chokepoint: exactly one table entry per measured miss
  // or abort, so the postmortem totals reconcile with RunMetrics.
  if (tel_.spans_enabled()) tel_.attribute_outcome(t.id, o);
}

void System::resolve(txn::Transaction& t, txn::TxnState outcome,
                     SiteId site) {
  t.state = outcome;
  if (tel_.events_enabled()) {
    tel_.event(event_of(outcome), sim_.now(), site, t.id);
  }
  record(t, outcome);
}

}  // namespace rtdb::core
