// Per-client heap tracks what a client caches, not the database size.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/runner.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RTDB_FOOTPRINT_HEAP_STATS 0  // the sanitizer runtime owns the heap
#elif defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#define RTDB_FOOTPRINT_HEAP_STATS 1
#include <malloc.h>
#else
#define RTDB_FOOTPRINT_HEAP_STATS 0  // no mallinfo2()
#endif

namespace rtdb::core {
namespace {

constexpr std::size_t kDbSize = 1'000'000;
constexpr double kMiB = 1024.0 * 1024.0;

#if RTDB_FOOTPRINT_HEAP_STATS
/// Bytes the allocator has handed out and not taken back: small chunks in
/// the arenas plus blocks served by mmap.
double live_heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/// Heap a system still holds after a short run over a 1,000,000-object
/// database (measured while the system is alive).
double retained_heap(SystemKind kind, std::size_t clients) {
  SystemConfig cfg = SystemConfig::paper_defaults(20.0);
  cfg.num_clients = clients;
  cfg.workload.db_size = kDbSize;
  cfg.warmup = sim::seconds(20);
  cfg.duration = sim::seconds(100);
  cfg.drain = sim::seconds(50);
  const double before = live_heap_bytes();
  auto sys = make_system(kind, cfg);
  sys->run();
  return live_heap_bytes() - before;
}
#endif

class ClientFootprint : public ::testing::TestWithParam<SystemKind> {};

TEST_P(ClientFootprint, TracksTheCacheNotTheDatabase) {
#if RTDB_FOOTPRINT_HEAP_STATS
  // The per-client cost is the slope between a 4- and an 8-client cluster,
  // which cancels what a system holds once (the server's and the
  // auditor's per-object tables, the Zipf table).
  const double per_client =
      (retained_heap(GetParam(), 8) - retained_heap(GetParam(), 4)) / 4.0;
  // Budget: 1 MiB for what a client holds (the 1,000-copy cache, its lock
  // manager, its transactions), plus, for CS and LS, the dense mirror of
  // the server's lock modes: 1 B per object, twice that after vector
  // growth. A version slot per object (8 B) would add ~8 MiB here.
  double budget = 1.0 * kMiB;
  if (GetParam() != SystemKind::kOptimistic) {
    budget += 2.0 * static_cast<double>(kDbSize);
  }
  EXPECT_LT(per_client, budget)
      << "per-client heap " << per_client / kMiB << " MiB over a "
      << kDbSize << "-object database";
#else
  GTEST_SKIP() << "needs glibc heap statistics (absent or sanitized heap)";
#endif
}

INSTANTIATE_TEST_SUITE_P(Systems, ClientFootprint,
                         ::testing::Values(SystemKind::kClientServer,
                                           SystemKind::kLoadSharing,
                                           SystemKind::kOptimistic),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::erase(name, '-');
                           return name;
                         });

}  // namespace
}  // namespace rtdb::core
