#pragma once

#include <memory>
#include <vector>

#include "core/client_node.hpp"
#include "core/server_node.hpp"
#include "core/system.hpp"

/// \file client_server.hpp
/// The object-shipping client-server prototypes. One class covers both the
/// basic CS-RTDBS (all LsOptions off) and the LS-CS-RTDBS (all on) so the
/// baseline and the paper's system share every line of protocol code except
/// the techniques under test — the fair-comparison property the ablation
/// benches rely on.

namespace rtdb::core {

/// CS-RTDBS / LS-CS-RTDBS (selected by config.ls).
class ClientServerSystem final : public System {
 public:
  explicit ClientServerSystem(SystemConfig config);
  ~ClientServerSystem() override;

  // --- wiring used by the nodes -------------------------------------------
  [[nodiscard]] ServerNode& server() { return *server_; }
  [[nodiscard]] ClientNode& client(ClientId client);
  [[nodiscard]] const LsOptions& ls() const { return config_.ls; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] net::Network& net() { return net_; }
  [[nodiscard]] const SystemConfig& cfg() const { return config_; }

  /// Mutable metrics for the nodes' incremental counters (reset at the
  /// measurement boundary, so warm-up increments wash out).
  [[nodiscard]] RunMetrics& live_metrics() { return metrics_; }

  /// Outcome accounting, exposed to the nodes (origin side only).
  void note(const txn::Transaction& t, txn::TxnState outcome) {
    record(t, outcome);
  }
  [[nodiscard]] bool measured(const txn::Transaction& t) const {
    return is_measured(t);
  }

  /// Fresh id for sub-tasks (they run the pipeline as first-class txns).
  TxnId fresh_txn_id() { return next_txn_id(); }

  [[nodiscard]] std::size_t num_clients() const { return clients_.size(); }

  /// Fault accounting: a committed version of `obj` was irrecoverably lost
  /// (crash wiped the only dirty copy, a return never got through, or a
  /// circulating copy vanished). Rolls the consistency ledger back to the
  /// server's surviving version so later audits compare against what the
  /// system can actually still produce. No-op on fault-free runs.
  void accounted_loss(ObjectId obj);

  /// Manual-driving mode (scenario tests, custom harnesses): wires up the
  /// nodes without starting workload arrivals. Inject transactions with
  /// client(id).on_new_transaction(...) and advance simulator() yourself.
  /// Mutually exclusive with run().
  void bootstrap() {
    if (!server_) start();
  }

 protected:
  void start() override;
  void on_arrival(std::size_t client_index, txn::Transaction txn) override;
  void on_measurement_start() override;
  void finalize(RunMetrics& m) override;
  void audit_structures() const override;
  void sample_gauges() override;

  // Fault-plan hooks (never invoked on fault-free runs).
  void on_site_crash(std::size_t client_index) override;
  void on_site_recover(std::size_t client_index) override;
  void on_site_declared_dead(std::size_t client_index) override;

  /// Server outage boundaries: the server loses its volatile state (or
  /// hands over to the warm standby), then every client is told in index
  /// order — the perfect failure detector the epoch scheme assumes.
  void on_server_crash() override;
  void on_server_restart(bool failover) override;

 private:
  std::unique_ptr<ServerNode> server_;
  std::vector<std::unique_ptr<ClientNode>> clients_;
};

}  // namespace rtdb::core
