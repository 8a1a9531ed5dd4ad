#include "core/client_server.hpp"

#include <cassert>

namespace rtdb::core {

ClientServerSystem::ClientServerSystem(SystemConfig config)
    : System(std::move(config)) {}

ClientServerSystem::~ClientServerSystem() = default;

ClientNode& ClientServerSystem::client(ClientId client) {
  const auto index = static_cast<std::size_t>(client.value() - 1);
  assert(index < clients_.size());
  return *clients_[index];
}

void ClientServerSystem::start() {
  server_ = std::make_unique<ServerNode>(*this);
  clients_.reserve(config_.num_clients);
  for (std::size_t i = 0; i < config_.num_clients; ++i) {
    clients_.push_back(std::make_unique<ClientNode>(
        *this, ClientId{static_cast<ClientId::Rep>(i + 1)}, i));
  }
  // Steady-state start: each client caches its region under SLs, mirrored
  // in the server's global lock table.
  warm_start(
      [this](std::size_t i, ObjectId obj) {
        clients_[i]->warm_insert(obj);
        server_->warm_register(obj,
                               ClientId{static_cast<ClientId::Rep>(i + 1)});
      },
      [this](ObjectId obj) { server_->warm_preload(obj); });
}

void ClientServerSystem::on_arrival(std::size_t client_index,
                                    txn::Transaction txn) {
  clients_[client_index]->on_new_transaction(std::move(txn));
}

void ClientServerSystem::on_site_crash(std::size_t client_index) {
  if (client_index < clients_.size()) clients_[client_index]->crash();
}

void ClientServerSystem::on_site_recover(std::size_t client_index) {
  if (client_index < clients_.size()) clients_[client_index]->recover();
}

void ClientServerSystem::on_server_crash() {
  if (!server_) return;
  server_->crash();
  // Deterministic fan-out in client-id order: each surviving client
  // converts its forward duties to retained holds, clears deferred recalls
  // and early-aborts transactions the outage already doomed.
  for (auto& c : clients_) c->on_server_crash();
}

void ClientServerSystem::on_server_restart(bool failover) {
  if (!server_) return;
  server_->restart(failover);
  // Same order on the way back: clients bump their epoch mirror and (grace
  // rebuild only) send their re-assertion batches.
  for (auto& c : clients_) c->on_server_restart(failover);
}

void ClientServerSystem::on_site_declared_dead(std::size_t client_index) {
  if (!server_ || client_index >= clients_.size()) return;
  server_->reclaim_client(
      ClientId{static_cast<ClientId::Rep>(client_index + 1)});
}

void ClientServerSystem::accounted_loss(ObjectId obj) {
  if (!faults_active()) return;
  const std::uint64_t surviving = server_ ? server_->stored_version(obj) : 0;
  if (auditor().rollback_committed(obj, surviving, sim_.now())) {
    ++injector()->stats().lost_versions;
  }
}

void ClientServerSystem::on_measurement_start() {
  System::on_measurement_start();
  server_->reset_stats();
  for (auto& c : clients_) c->reset_stats();
}

void ClientServerSystem::sample_gauges() {
  if (!server_) return;  // sampler tick before start()
  std::size_t ready = 0, busy = 0, liv = 0, cached = 0, duties = 0;
  for (const auto& c : clients_) {
    ready += c->ready_depth();
    busy += c->executing();
    liv += c->live_count();
    cached += c->cache().size();
    duties += c->forward_duties();
  }
  tel_.sample("cs.ready_depth", static_cast<double>(ready));
  tel_.sample("cs.busy_slots", static_cast<double>(busy));
  tel_.sample("cs.live_txns", static_cast<double>(liv));
  tel_.sample("cache.occupancy", static_cast<double>(cached));
  tel_.sample("cs.forward_duties", static_cast<double>(duties));
  const lock::GlobalLockTable& glt = server_->lock_table();
  tel_.sample("glt.queued_entries",
              static_cast<double>(glt.total_queued_entries()));
  tel_.sample("glt.circulating",
              static_cast<double>(glt.circulating_objects()));
  tel_.sample("glt.expired_dropped",
              static_cast<double>(glt.total_expired_dropped()));
  tel_.sample("server.open_windows",
              static_cast<double>(server_->open_windows()));
  tel_.sample("server.parked_batches",
              static_cast<double>(server_->parked_batches()));
  tel_.sample("server.queued_txns",
              static_cast<double>(server_->queued_txns()));
  tel_.sample("server.cpu_util", server_->cpu_utilization());
  tel_.sample("server.disk_util", server_->disk_utilization());
  tel_.sample("net.util", net_.utilization());
  if (faults_active()) {
    // Recovery gauges exist only on chaos runs so fault-free telemetry
    // snapshots stay byte-identical.
    tel_.sample("server.epoch", static_cast<double>(server_->epoch()));
    tel_.sample("server.standby_mutations",
                static_cast<double>(server_->standby_mutations()));
  }
}

void ClientServerSystem::audit_structures() const {
  sim_.validate_invariants();
  if (server_) server_->validate_invariants();
  for (const auto& c : clients_) c->validate_invariants();
}

void ClientServerSystem::finalize(RunMetrics& m) {
  for (const auto& c : clients_) {
    m.cache_hits += c->cache().hits();
    m.cache_misses += c->cache().misses();
  }
  m.server_cpu_utilization = server_->cpu_utilization();
  m.server_disk_utilization = server_->disk_utilization();
  if (faults_active()) {
    injector()->stats().standby_mutations = server_->standby_mutations();
  }
}

}  // namespace rtdb::core
