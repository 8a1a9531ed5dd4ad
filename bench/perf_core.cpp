/// \file perf_core.cpp
/// The performance-observability throughput harness (ROADMAP: "how fast is
/// the simulator itself?"). Drives all four prototypes (CE / CS / LS / OCC)
/// at fixed seeds over a client-count sweep and measures, per point:
///
///  * simulated-events/sec — kSimEventsFired over wall-clock seconds, the
///    headline throughput figure the CI gate tracks;
///  * wall-clock seconds (obs::WallClock, the one audited real-time seam);
///  * the point's own peak RSS — the kernel's high-water mark (VmHWM) after
///    a reset taken just before the point (malloc_trim, then `5` written to
///    /proc/self/clear_refs), so an earlier, larger point cannot leak into
///    a later one's figure; 0 where the kernel offers no reset;
///  * allocation pressure (a counting global operator new in this TU —
///    bench/ may do that, src/ may not);
///  * the full perf counter catalog and per-subsystem section-time
///    attribution (sim / net / lock / txn / obs).
///
/// Output: a human table on stdout and `--out FILE` JSON (default
/// BENCH_perf_core.json — the committed copy at the repo root is the pinned
/// trajectory baseline scripts/perf_compare.py gates against):
///
///     { "bench": "perf_core", "schema_version": 1, "quick": <bool>,
///       "env": { "compiler": str, "assertions": bool,
///                "perf_compiled_in": bool, "pointer_bits": n },
///       "points": [ { "system": "ce|cs|ls|occ", "clients": n,
///                     "sim_seconds": s, "wall_s": s, "events": n,
///                     "events_per_sec": r, "generated": n, "committed": n,
///                     "messages": n, "peak_rss_kb": n, "alloc_count": n,
///                     "alloc_bytes": n,
///                     "alloc_by_subsystem": { "sim": {"count": n,
///                                                     "bytes": n}, ...,
///                                             "untagged": {...} },
///                     "counters": { <counter>: n, ... },
///                     "subsystem_ns": { "sim": n, ... },
///                     "sections": { <section>: {"ns": n, "hits": n},
///                                   ... } }, ... ] }
///
/// Counter values ("events", "generated", "committed", "messages",
/// "counters") are simulation facts — bit-identical on every machine and
/// across --quick/full for matching (system, clients) points, because each
/// point is an independent seeded run. Wall-clock, RSS and allocation
/// figures are machine-local. scripts/perf_compare.py knows the split:
/// --events-only (the ctest gate) compares only the deterministic facts;
/// full mode (CI perf-smoke) also gates events/sec regressions.

#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/perf.hpp"
#include "core/runner.hpp"
#include "obs/perf.hpp"
#include "obs/wall_clock.hpp"

namespace {

// Allocation pressure counters, fed by the replaced global operator new
// below. Plain namespace-scope cells: the process is single-threaded.
// Buckets: one per tagged subsystem scope (see perf::AllocScopeId) plus a
// trailing "untagged" bucket for allocations outside every tagged scope.
constexpr std::size_t kAllocBuckets = rtdb::perf::kAllocScopeCount + 1;
// rtdb-lint: allow(mutable-static) operator-new census cells must be
// namespace-scope: the replaced global allocator has no object to live in
std::uint64_t g_alloc_count = 0;
// rtdb-lint: allow(mutable-static) same operator-new census seam as above
std::uint64_t g_alloc_bytes = 0;
// rtdb-lint: allow(mutable-static) same operator-new census seam as above
std::uint64_t g_alloc_count_by[kAllocBuckets] = {};
// rtdb-lint: allow(mutable-static) same operator-new census seam as above
std::uint64_t g_alloc_bytes_by[kAllocBuckets] = {};

}  // namespace

// Counting allocator seams. Replacing global operator new is legitimate in
// a bench TU (the raw-new-delete lint rule covers src/ and tools/ only):
// every container the simulation touches funnels through here, giving an
// exact, deterministic-per-machine allocation census per run, attributed
// to the innermost RTDB_PERF_ALLOC_SCOPE on the stack at allocation time.
void* operator new(std::size_t n) {
  ++g_alloc_count;
  g_alloc_bytes += n;
  const auto scope = static_cast<std::size_t>(rtdb::perf::alloc_scope());
  ++g_alloc_count_by[scope];
  g_alloc_bytes_by[scope] += n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rtdb;

struct SystemUnderTest {
  const char* name;  // stable JSON key
  core::SystemKind kind;
};

constexpr SystemUnderTest kSystems[] = {
    {"ce", core::SystemKind::kCentralized},
    {"cs", core::SystemKind::kClientServer},
    {"ls", core::SystemKind::kLoadSharing},
    {"occ", core::SystemKind::kOptimistic},
};

/// Fixed per-point config. Deliberately NOT bench::experiment_config: the
/// throughput harness wants short runs (the CI smoke job runs the sweep on
/// every PR) and — crucially — identical configs in --quick and full mode,
/// so a quick point is byte-comparable against the committed full baseline.
core::SystemConfig perf_point_config(std::size_t clients) {
  core::SystemConfig cfg = core::SystemConfig::paper_defaults(5.0);
  cfg.num_clients = clients;
  cfg.warmup = sim::seconds(100);
  // Long enough that each point takes O(100ms..1s) of wall time — a 30%
  // regression gate needs points well clear of scheduler noise.
  cfg.duration = sim::seconds(2000);
  cfg.drain = sim::seconds(300);
  cfg.seed = 42;
  return cfg;
}

constexpr double kSimSeconds = 2000.0;

std::vector<std::size_t> perf_client_counts(bool quick) {
  if (quick) return {10, 40};
  return {10, 40, 100};
}

/// One measured point.
struct Point {
  const char* system;
  std::size_t clients;
  double wall_s = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_count_by[kAllocBuckets] = {};
  std::uint64_t alloc_bytes_by[kAllocBuckets] = {};
  core::RunMetrics metrics;
  perf::Snapshot perf;

  [[nodiscard]] std::uint64_t events() const {
    return perf.counter(perf::Counter::kSimEventsFired);
  }
  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events()) / wall_s : 0.0;
  }
};

/// Opens a fresh peak-RSS window: returns freed heap to the kernel, then
/// resets the process's high-water mark to its current RSS. False when the
/// kernel refuses the reset (then no per-point peak exists).
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// Peak RSS in KiB since the last reset_peak_rss() (VmHWM); 0 if unknown.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

Point measure(const SystemUnderTest& sut, std::size_t clients) {
  Point p;
  p.system = sut.name;
  p.clients = clients;
  const auto cfg = perf_point_config(clients);

  const bool rss_window = reset_peak_rss();
  perf::reset();
  obs::perf_enable_timing();
  const std::uint64_t allocs_before = g_alloc_count;
  const std::uint64_t bytes_before = g_alloc_bytes;
  std::uint64_t count_by_before[kAllocBuckets];
  std::uint64_t bytes_by_before[kAllocBuckets];
  std::memcpy(count_by_before, g_alloc_count_by, sizeof(count_by_before));
  std::memcpy(bytes_by_before, g_alloc_bytes_by, sizeof(bytes_by_before));
  const double t0 = obs::WallClock::now_sec();
  p.metrics = core::run_once(sut.kind, cfg);
  p.wall_s = obs::WallClock::now_sec() - t0;
  p.alloc_count = g_alloc_count - allocs_before;
  p.alloc_bytes = g_alloc_bytes - bytes_before;
  for (std::size_t i = 0; i < kAllocBuckets; ++i) {
    p.alloc_count_by[i] = g_alloc_count_by[i] - count_by_before[i];
    p.alloc_bytes_by[i] = g_alloc_bytes_by[i] - bytes_by_before[i];
  }
  p.perf = perf::snapshot();
  obs::perf_disable_timing();
  p.peak_rss_kb = rss_window ? peak_rss_kb() : 0;
  return p;
}

/// Wall-ns attribution per subsystem, summed over that subsystem's timed
/// sections (nested sections double-count into their parents by design —
/// within one subsystem the sections do not nest).
std::uint64_t subsystem_ns(const perf::Snapshot& s, const char* subsystem) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < perf::kSectionCount; ++i) {
    const auto sec = static_cast<perf::Section>(i);
    if (std::strcmp(perf::subsystem_of(sec), subsystem) == 0) {
      total += s.ns(sec);
    }
  }
  return total;
}

constexpr const char* kSubsystems[] = {"sim", "net", "lock", "txn", "obs"};

void write_json(std::ostream& os, const std::vector<Point>& points,
                bool quick) {
  bench::JsonWriter w(os);
  w.begin_object();
  w.key("bench").value("perf_core");
  w.key("schema_version").value(std::uint64_t{1});
  w.key("quick").value(quick);
  w.key("env").begin_object();
#if defined(__VERSION__)
  w.key("compiler").value(__VERSION__);
#else
  w.key("compiler").value("unknown");
#endif
#if defined(NDEBUG)
  w.key("assertions").value(false);
#else
  w.key("assertions").value(true);
#endif
  w.key("perf_compiled_in").value(RTDB_PERF != 0);
  w.key("pointer_bits").value(std::uint64_t{8 * sizeof(void*)});
  w.end_object();
  w.key("points").begin_array();
  for (const Point& p : points) {
    w.begin_object();
    w.key("system").value(p.system);
    w.key("clients").value(p.clients);
    w.key("sim_seconds").value(kSimSeconds);
    w.key("wall_s").value(p.wall_s);
    w.key("events").value(p.events());
    w.key("events_per_sec").value(p.events_per_sec());
    w.key("generated").value(p.metrics.generated);
    w.key("committed").value(p.metrics.committed);
    w.key("messages").value(p.metrics.messages.total_messages());
    w.key("peak_rss_kb").value(p.peak_rss_kb);
    w.key("alloc_count").value(p.alloc_count);
    w.key("alloc_bytes").value(p.alloc_bytes);
    w.key("alloc_by_subsystem").begin_object();
    for (std::size_t i = 0; i < kAllocBuckets; ++i) {
      const auto scope = static_cast<perf::AllocScopeId>(i);
      w.key(perf::to_string(scope)).begin_object();
      w.key("count").value(p.alloc_count_by[i]);
      w.key("bytes").value(p.alloc_bytes_by[i]);
      w.end_object();
    }
    w.end_object();
    w.key("counters").begin_object();
    for (std::size_t i = 0; i < perf::kCounterCount; ++i) {
      const auto c = static_cast<perf::Counter>(i);
      w.key(perf::to_string(c)).value(p.perf.counter(c));
    }
    w.end_object();
    w.key("subsystem_ns").begin_object();
    for (const char* sub : kSubsystems) {
      w.key(sub).value(subsystem_ns(p.perf, sub));
    }
    w.end_object();
    w.key("sections").begin_object();
    for (std::size_t i = 0; i < perf::kSectionCount; ++i) {
      const auto s = static_cast<perf::Section>(i);
      w.key(perf::to_string(s)).begin_object();
      w.key("ns").value(p.perf.ns(s));
      w.key("hits").value(p.perf.hits(s));
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

void print_point(const Point& p) {
  // Per-subsystem share of the total attributed wall time.
  std::uint64_t attributed = 0;
  std::uint64_t per_sub[5] = {};
  for (std::size_t i = 0; i < 5; ++i) {
    per_sub[i] = subsystem_ns(p.perf, kSubsystems[i]);
    attributed += per_sub[i];
  }
  const double denom = attributed ? static_cast<double>(attributed) : 1.0;
  std::printf("%4s %8zu %9.3f %10llu %11.0f %8.1f |", p.system, p.clients,
              p.wall_s, static_cast<unsigned long long>(p.events()),
              p.events_per_sec(),
              static_cast<double>(p.peak_rss_kb) / 1024.0);
  for (std::size_t i = 0; i < 5; ++i) {
    std::printf(" %4.1f%%", 100.0 * static_cast<double>(per_sub[i]) / denom);
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  std::string out = "BENCH_perf_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  std::printf("=== perf_core: simulator throughput (%s sweep) ===\n\n",
              quick ? "quick" : "full");
#if !RTDB_PERF
  std::printf("warning: built with RTDB_PERF=0 — event counters read 0;\n"
              "         events/sec and the counter catalog are meaningless\n"
              "         in this build (wall/RSS figures remain valid).\n\n");
#endif
  std::printf("%4s %8s %9s %10s %11s %8s | share of attributed time\n", "sys",
              "clients", "wall (s)", "events", "events/s", "RSS MiB");
  std::printf("%4s %8s %9s %10s %11s %8s |  sim   net  lock   txn   obs\n",
              "", "", "", "", "", "");

  std::vector<Point> points;
  for (const auto& sut : kSystems) {
    for (const std::size_t n : perf_client_counts(quick)) {
      points.push_back(measure(sut, n));
      print_point(points.back());
    }
  }

  std::ofstream os(out);
  if (!os) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  write_json(os, points, quick);
  std::fprintf(stderr, "json: %s\n", out.c_str());
  return 0;
}
