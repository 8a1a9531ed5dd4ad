#include "core/runner.hpp"

#include "core/centralized.hpp"
#include "core/client_server.hpp"
#include "core/optimistic.hpp"

namespace rtdb::core {

namespace {

bool ls_all_off(const LsOptions& o) {
  return !o.enable_h1 && !o.enable_h2 && !o.enable_decomposition &&
         !o.enable_forward_lists && !o.ed_request_scheduling;
}

/// Sets or clears the five LS techniques, leaving the caller's tuning
/// (collection window, exclusive-hop cap, shared grants) as it was.
void set_techniques(LsOptions& o, bool on) {
  o.enable_h1 = o.enable_h2 = o.enable_decomposition =
      o.enable_forward_lists = o.ed_request_scheduling = on;
}

}  // namespace

std::unique_ptr<System> make_system(SystemKind kind, SystemConfig config) {
  switch (kind) {
    case SystemKind::kCentralized:
      return std::make_unique<CentralizedSystem>(std::move(config));
    case SystemKind::kClientServer:
      set_techniques(config.ls, false);
      return std::make_unique<ClientServerSystem>(std::move(config));
    case SystemKind::kLoadSharing:
      if (ls_all_off(config.ls)) set_techniques(config.ls, true);
      return std::make_unique<ClientServerSystem>(std::move(config));
    case SystemKind::kOptimistic:
      return std::make_unique<OptimisticSystem>(std::move(config));
  }
  return nullptr;
}

RunMetrics run_once(SystemKind kind, const SystemConfig& config) {
  auto system = make_system(kind, config);
  return system->run();
}

MetricsAggregator run_replicated(SystemKind kind, SystemConfig config,
                                 std::size_t replications) {
  MetricsAggregator agg;
  const std::uint64_t base = config.seed;
  for (std::size_t r = 0; r < replications; ++r) {
    config.seed = base + r;
    agg.add(run_once(kind, config));
  }
  return agg;
}

}  // namespace rtdb::core
