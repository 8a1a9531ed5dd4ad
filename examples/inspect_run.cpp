/// \file inspect_run.cpp
/// Deep-dive diagnostics for one run: full message breakdown, LS technique
/// counters, resource utilizations. Useful when calibrating or debugging.
///
///   $ ./inspect_run [system: ce|cs|ls] [num_clients] [update_percent]
///                   [disables: comma list of h1,h2,dec,fwd,ed]
///
/// The optional fourth argument switches individual LS techniques off
/// (ablation), e.g. `./inspect_run ls 100 20 dec,fwd`. Set RTDB_TRACE to a
/// comma list of event categories (lock, window, ship, txn, cache, net,
/// fault, or all; e.g. RTDB_TRACE=lock,window): the run then keeps its last
/// 60 typed events and prints, as JSONL, those in the chosen categories.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/runner.hpp"
#include "obs/export.hpp"

int main(int argc, char** argv) {
  using namespace rtdb;

  core::SystemKind kind = core::SystemKind::kLoadSharing;
  if (argc > 1) {
    if (std::strcmp(argv[1], "ce") == 0) kind = core::SystemKind::kCentralized;
    if (std::strcmp(argv[1], "cs") == 0) kind = core::SystemKind::kClientServer;
  }
  const std::size_t clients =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 40;
  const double update_pct = argc > 3 ? std::atof(argv[3]) : 5.0;

  core::SystemConfig cfg = core::SystemConfig::paper_defaults(update_pct);
  cfg.num_clients = clients;
  cfg.duration = sim::seconds(1500);
  const std::uint32_t categories =
      obs::parse_categories(std::getenv("RTDB_TRACE"));
  if (categories != 0) {
    cfg.telemetry.events = true;
    cfg.telemetry.event_capacity = 60;  // the ring keeps the run's tail
  }

  if (kind == core::SystemKind::kLoadSharing && argc > 4) {
    cfg.ls = core::LsOptions::all();
    const std::string disables = argv[4];
    auto off = [&](const char* tag) {
      return disables.find(tag) != std::string::npos;
    };
    if (off("h1")) cfg.ls.enable_h1 = false;
    if (off("h2")) cfg.ls.enable_h2 = false;
    if (off("dec")) cfg.ls.enable_decomposition = false;
    if (off("fwd")) cfg.ls.enable_forward_lists = false;
    if (off("ed")) cfg.ls.ed_request_scheduling = false;
    if (off("nofan")) cfg.ls.parallel_shared_grants = false;
    if (off("noelchain")) cfg.ls.max_exclusive_hops = 1;
  }

  auto system = core::make_system(kind, cfg);
  core::RunMetrics m = system->run();

  std::printf("=== %s | %zu clients | %.0f%% updates ===\n",
              core::to_string(kind).c_str(), clients, update_pct);
  std::printf("generated  %llu\n", (unsigned long long)m.generated);
  std::printf("committed  %llu (%.2f%%)\n", (unsigned long long)m.committed,
              m.success_percent());
  std::printf("missed     %llu\n", (unsigned long long)m.missed);
  std::printf("aborted    %llu\n", (unsigned long long)m.aborted);
  std::printf("response   mean=%.3fs p50=%.3fs p95=%.3fs\n",
              m.response_time.mean(), m.response_time.quantile(0.5),
              m.response_time.quantile(0.95));
  std::printf("cache hit  %.2f%% (%llu / %llu)\n", m.cache_hit_percent(),
              (unsigned long long)m.cache_hits,
              (unsigned long long)(m.cache_hits + m.cache_misses));
  std::printf("obj resp   SL=%.4fs (n=%zu)  EL=%.4fs (n=%zu)\n",
              m.object_response_shared.mean(),
              m.object_response_shared.count(),
              m.object_response_exclusive.mean(),
              m.object_response_exclusive.count());
  std::printf("EL dist    p50=%.4f p90=%.4f p99=%.4f max=%.3f\n",
              m.object_response_exclusive.quantile(0.50),
              m.object_response_exclusive.quantile(0.90),
              m.object_response_exclusive.quantile(0.99),
              m.object_response_exclusive.max());
  std::printf("SL dist    p50=%.4f p90=%.4f p99=%.4f max=%.3f\n",
              m.object_response_shared.quantile(0.50),
              m.object_response_shared.quantile(0.90),
              m.object_response_shared.quantile(0.99),
              m.object_response_shared.max());
  std::printf("LS: shipped=%llu (h1=%llu h2=%llu) h1_rej=%llu "
              "decomposed=%llu subtasks=%llu "
              "fwd_satisfied=%llu expired_skips=%llu deadlock_refusals=%llu\n",
              (unsigned long long)m.shipped_txns,
              (unsigned long long)m.h1_ships,
              (unsigned long long)m.h2_ships,
              (unsigned long long)m.h1_rejections,
              (unsigned long long)m.decomposed_txns,
              (unsigned long long)m.subtasks_spawned,
              (unsigned long long)m.forward_list_satisfactions,
              (unsigned long long)m.expired_requests_skipped,
              (unsigned long long)m.deadlock_refusals);
  std::printf("consistency violations: %llu\n",
              (unsigned long long)m.consistency_violations);
  std::printf("util: server_cpu=%.3f server_disk=%.3f network=%.3f\n",
              m.server_cpu_utilization, m.server_disk_utilization,
              m.network_utilization);
  std::printf("\nmessages (total %llu):\n",
              (unsigned long long)m.messages.total_messages());
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    const auto kindk = static_cast<net::MessageKind>(k);
    if (m.messages.messages(kindk) == 0) continue;
    std::printf("  %-16s %10llu  (%llu KB)\n",
                std::string(net::to_string(kindk)).c_str(),
                (unsigned long long)m.messages.messages(kindk),
                (unsigned long long)(m.messages.bytes(kindk) / 1024));
  }
  if (categories != 0) {
    const obs::Telemetry& tel = system->telemetry();
    std::printf("\n--- event tail (%zu events kept, %llu dropped) ---\n",
                tel.events().size(),
                (unsigned long long)tel.events_dropped());
    obs::write_jsonl(std::cout, tel, categories);
  }
  return 0;
}
