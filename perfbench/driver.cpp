/// \file driver.cpp
/// End-to-end benchmark driver for the simulator. It drives the public API
/// only (core::make_system, System::run) and times the calls it makes; it
/// adds no instrumentation to the simulator itself. One source, two
/// binaries (see CMakeLists.txt):
///
///   perfbench_timed  --workload W --seed N --seconds S [--size full|tiny]
///       Repeats the workload's runs for S seconds with the section timers
///       disarmed and the default allocator. Prints per-op samples of
///       setup time (make_system) and run time (System::run), the
///       deterministic facts of every op, the correctness gates and the
///       process's peak RSS.
///
///   perfbench_traced --workload W --seed N [--size ...] [--spans-out F]
///       One traced pass (section timers armed, counting operator new),
///       one attribution pass (telemetry spans on, for the simulated wait
///       buckets), then replays of the generated transaction stream through
///       the workload generator, the client cache + server buffer, and the
///       local lock manager. Prints the per-layer figures; writes the
///       host-time spans it recorded to F at exit.
///
/// Both print exactly one JSON object on the last line of stdout. run.py
/// turns the two into the metrics named in BENCHMARK.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/perf.hpp"
#include "core/runner.hpp"
#include "fault/fault.hpp"
#include "lock/local_lock_manager.hpp"
#include "obs/perf.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "storage/buffer_manager.hpp"
#include "storage/client_cache.hpp"
#include "workload/generator.hpp"

#ifndef PERFBENCH_COUNT_ALLOCS
#define PERFBENCH_COUNT_ALLOCS 0
#endif

#if PERFBENCH_COUNT_ALLOCS
namespace {
// Allocation census cells, bucketed by the innermost perf::AllocScope on
// the stack (index kAllocScopeCount = untagged). The process is
// single-threaded, so plain cells suffice.
constexpr std::size_t kAllocBuckets = rtdb::perf::kAllocScopeCount + 1;
std::uint64_t g_alloc_count_by[kAllocBuckets] = {};
}  // namespace

void* operator new(std::size_t n) {
  ++g_alloc_count_by[static_cast<std::size_t>(rtdb::perf::alloc_scope())];
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace {

using namespace rtdb;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------ host reference

/// A fixed piece of host work that shares no code with the simulator: the
/// small-block malloc/free churn and binary-heap + hash-map traffic an
/// event loop does. On a shared machine the host's speed drifts by tens of
/// percent within minutes, and the simulator and this work slow down
/// together. The driver times it between ops; run.py scales the run's
/// times by kReferenceSeconds / (its median time in the run), so they read
/// as times on the reference host (README.md, "Host-speed normalisation").
class HostReference {
 public:
  /// The work's nominal time: the reference host is one on which it takes
  /// this long.
  static constexpr double kReferenceSeconds = 0.06;

  /// Runs the work once; returns its wall time in seconds.
  double seconds() {
    const std::uint64_t t0 = now_ns();
    std::uint64_t x = 88172645463325252u;
    std::vector<void*> live(4096, nullptr);
    for (int i = 0; i < 1'000'000; ++i) {
      x = xorshift(x);
      void*& slot = live[x & 4095];
      std::free(slot);
      slot = std::malloc(16 + (x >> 60) * 24);
      static_cast<unsigned char*>(slot)[0] = static_cast<unsigned char>(x);
    }
    for (void* p : live) std::free(p);
    std::priority_queue<std::uint64_t> heap;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (int i = 0; i < 200'000; ++i) {
      x = xorshift(x);
      heap.push(x);
      map[x & 0xfffff] += static_cast<std::uint64_t>(i);
      if (i & 1) heap.pop();
    }
    checksum_ += heap.top() + map.size();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// Runs the work at least once and until its runs add up to `budget_s`,
  /// appending each run's time to `out`.
  void sample(std::vector<double>& out, double budget_s) {
    double spent = 0;
    do {
      out.push_back(seconds());
      spent += out.back();
    } while (spent < budget_s);
  }

  /// Folds every result of the work, so the compiler cannot drop it.
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  static std::uint64_t xorshift(std::uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  std::uint64_t checksum_ = 0;
};

// ------------------------------------------------------------- workloads

enum class Size { kFull, kTiny };

struct Workload {
  const char* name;
  std::vector<core::SystemKind> kinds;
  bool faults;  ///< runs under a fault plan (fault.* may be nonzero)
  core::SystemConfig (*config)(std::uint64_t seed, Size size);
};

core::SystemConfig ls_paper(std::uint64_t seed, Size size) {
  core::SystemConfig cfg = core::SystemConfig::paper_defaults(5.0);
  const bool tiny = size == Size::kTiny;
  cfg.num_clients = tiny ? 10 : 100;
  cfg.warmup = sim::seconds(tiny ? 20 : 200);
  cfg.duration = sim::seconds(tiny ? 100 : 8000);
  cfg.drain = sim::seconds(tiny ? 60 : 300);
  cfg.seed = seed;
  return cfg;
}

core::SystemConfig cs_scale(std::uint64_t seed, Size size) {
  core::SystemConfig cfg = core::SystemConfig::paper_defaults(20.0);
  const bool tiny = size == Size::kTiny;
  cfg.num_clients = tiny ? 50 : 1000;
  cfg.warmup = sim::seconds(tiny ? 20 : 100);
  cfg.duration = sim::seconds(tiny ? 60 : 500);
  cfg.drain = sim::seconds(tiny ? 60 : 300);
  cfg.seed = seed;
  return cfg;
}

core::SystemConfig chaos_mix(std::uint64_t seed, Size size) {
  core::SystemConfig cfg = core::SystemConfig::paper_defaults(5.0);
  const bool tiny = size == Size::kTiny;
  cfg.num_clients = tiny ? 8 : 40;
  cfg.warmup = sim::seconds(tiny ? 20 : 200);
  cfg.duration = sim::seconds(tiny ? 100 : 6000);
  cfg.drain = sim::seconds(tiny ? 60 : 300);
  cfg.seed = seed;
  cfg.fault = fault::make_chaos_plan("server-mixed", cfg.num_clients,
                                     cfg.measure_start(), cfg.horizon());
  // The injector draws from its own stream; seed it from the workload seed
  // so one seed fixes every input of the run.
  cfg.fault.seed = seed;
  cfg.telemetry.spans = true;
  cfg.telemetry.events = true;
  return cfg;
}

// chaos_mix runs CE and OCC only: under any active fault plan CS and LS
// report stale reads in the consistency ledger (README.md, "Known
// failures"), which the gates must count as failed runs.
const Workload kWorkloads[] = {
    {"ls_paper", {core::SystemKind::kLoadSharing}, false, ls_paper},
    {"cs_scale", {core::SystemKind::kClientServer}, false, cs_scale},
    {"chaos_mix",
     {core::SystemKind::kCentralized, core::SystemKind::kOptimistic},
     true,
     chaos_mix},
};

// ------------------------------------------------------------ one op

/// Simulation facts of one op (all of a workload's runs), bit-identical for
/// a fixed seed and size: the passivity and repeat checks compare these.
struct Facts {
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t committed = 0;
  std::uint64_t missed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t messages = 0;

  friend bool operator==(const Facts&, const Facts&) = default;
};

/// Correctness gates of one op.
struct Gates {
  std::uint64_t runs = 0;
  std::uint64_t failed_runs = 0;
  std::uint64_t unaccounted = 0;
  std::uint64_t violations = 0;
  std::uint64_t double_records = 0;
  std::uint64_t event_limit_trips = 0;
  std::uint64_t unexpected_faults = 0;  ///< fault activity where none belongs
};

/// Per-layer figures read from RunMetrics / FaultStats / Telemetry.
struct RunTotals {
  core::RunMetrics sum;  ///< counters summed over the op's runs
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_duplicates = 0;
  std::uint64_t fault_retransmits = 0;
  std::uint64_t fault_outage_deferrals = 0;
  std::uint64_t fault_reasserts_sent = 0;
  std::uint64_t fault_lease_expiries = 0;
  // Telemetry wait buckets over measured spans (attribution pass only).
  std::uint64_t spans = 0;
  double wait_sim_s[obs::kWaitBucketCount] = {};
  std::uint64_t dominated[obs::kWaitBucketCount] = {};
};

struct Op {
  double setup_s = 0;
  double run_s = 0;
  Facts facts;
  Gates gates;
  RunTotals totals;
};

void add_metrics(core::RunMetrics& into, const core::RunMetrics& m) {
  into.generated += m.generated;
  into.committed += m.committed;
  into.missed += m.missed;
  into.aborted += m.aborted;
  into.shipped_txns += m.shipped_txns;
  into.h1_ships += m.h1_ships;
  into.h2_ships += m.h2_ships;
  into.decomposed_txns += m.decomposed_txns;
  into.subtasks_spawned += m.subtasks_spawned;
  into.cache_hits += m.cache_hits;
  into.cache_misses += m.cache_misses;
  into.deadlock_refusals += m.deadlock_refusals;
  into.occ_validations += m.occ_validations;
  into.occ_rejections += m.occ_rejections;
}

/// A host-time span recorded by the driver around the calls it makes.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
};

class SpanLog {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now_ns(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  /// One JSON object per line: name, start/end relative to the first span,
  /// parent index, and self time (duration minus the children's).
  void write(const std::string& path) const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::ofstream os(path);
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::uint64_t dur = s.end_ns - s.start_ns;
      os << "{\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"start_ns\": " << s.start_ns - t0
         << ", \"end_ns\": " << s.end_ns - t0 << ", \"parent\": " << s.parent
         << ", \"self_ns\": " << dur - child_ns[i] << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Runs every prototype of the workload once. `telemetry_spans` forces span
/// recording on (attribution pass). Spans go to `log` when given.
Op run_op(const Workload& w, std::uint64_t seed, Size size,
          bool telemetry_spans, SpanLog* log, int parent) {
  Op op;
  for (const core::SystemKind kind : w.kinds) {
    core::SystemConfig cfg = w.config(seed, size);
    if (telemetry_spans) cfg.telemetry.spans = true;
    const std::string label = core::to_string(kind);

    int span = log ? log->open("make_system:" + label, parent) : -1;
    const std::uint64_t s0 = now_ns();
    std::unique_ptr<core::System> sys = core::make_system(kind, cfg);
    const std::uint64_t s1 = now_ns();
    if (log) log->close(span);

    // Runaway backstop: ~1000x the events a transaction normally takes.
    const double txns = static_cast<double>(cfg.num_clients) *
                        (cfg.horizon() - sim::SimTime{}).sec() /
                        cfg.workload.mean_interarrival.sec();
    sys->simulator().set_event_limit(
        static_cast<std::uint64_t>(txns * 1000.0) + 1'000'000);

    ++op.gates.runs;
    core::RunMetrics m;
    bool tripped = false;
    span = log ? log->open("System::run:" + label, parent) : -1;
    const std::uint64_t r0 = now_ns();
    try {
      m = sys->run();
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "perfbench: %s run failed: %s\n", label.c_str(),
                   e.what());
      tripped = true;
    }
    const std::uint64_t r1 = now_ns();
    if (log) log->close(span);

    op.setup_s += static_cast<double>(s1 - s0) * 1e-9;
    op.run_s += static_cast<double>(r1 - r0) * 1e-9;

    op.facts.events += sys->simulator().events_executed();
    op.facts.generated += m.generated;
    op.facts.committed += m.committed;
    op.facts.missed += m.missed;
    op.facts.aborted += m.aborted;
    op.facts.messages += m.messages.total_messages();
    add_metrics(op.totals.sum, m);

    bool bad = tripped;
    if (tripped) ++op.gates.event_limit_trips;
    if (!m.accounted()) {
      ++op.gates.unaccounted;
      bad = true;
    }
    if (m.consistency_violations != 0) {
      op.gates.violations += m.consistency_violations;
      bad = true;
    }
    if (sys->double_records() != 0) {
      op.gates.double_records += sys->double_records();
      bad = true;
    }
    if (const fault::FaultInjector* inj = sys->injector()) {
      const fault::FaultStats& st = inj->stats();
      op.totals.fault_dropped += st.dropped;
      op.totals.fault_duplicates += st.duplicates;
      op.totals.fault_retransmits +=
          st.retransmits + st.recall_retransmits + st.return_retransmits;
      op.totals.fault_outage_deferrals += st.outage_deferrals;
      op.totals.fault_reasserts_sent += st.reasserts_sent;
      op.totals.fault_lease_expiries += st.lease_expiries;
      if (!w.faults) {
        ++op.gates.unexpected_faults;
        bad = true;
      }
    }
    if (w.faults && !sys->faults_active()) {
      ++op.gates.unexpected_faults;  // the plan failed to install
      bad = true;
    }

    const obs::Telemetry& tel = sys->telemetry();
    if (tel.spans_enabled()) {
      for (const obs::TxnSpan* s : tel.spans_sorted()) {
        if (s->arrival < cfg.measure_start() || s->arrival >= cfg.measure_end())
          continue;
        ++op.totals.spans;
        for (std::size_t b = 0; b < obs::kWaitBucketCount; ++b) {
          op.totals.wait_sim_s[b] += s->wait[b];
        }
      }
      const obs::MissAttribution& a = tel.attribution();
      for (std::size_t b = 0; b < obs::kWaitBucketCount; ++b) {
        op.totals.dominated[b] += a.misses[b] + a.aborts[b];
      }
    }
    if (bad) ++op.gates.failed_runs;
  }
  return op;
}

// ------------------------------------------------------------ JSON out

class Json {
 public:
  Json& key(const char* k) {
    sep();
    std::printf("\"%s\": ", k);
    first_ = true;  // the value follows without a separator
    return *this;
  }
  Json& num(double v) {
    sep();
    std::printf("%.17g", v);
    return *this;
  }
  Json& u64(std::uint64_t v) {
    sep();
    std::printf("%llu", static_cast<unsigned long long>(v));
    return *this;
  }
  Json& str(const char* v) {
    sep();
    std::printf("\"%s\"", v);
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    std::printf("%s", v ? "true" : "false");
    return *this;
  }
  Json& begin(char c) {
    sep();
    std::printf("%c", c);
    first_ = true;
    return *this;
  }
  Json& end(char c) {
    std::printf("%c", c);
    first_ = false;
    return *this;
  }

 private:
  void sep() {
    if (!first_) std::printf(", ");
    first_ = false;
  }
  bool first_ = true;
};

void write_facts(Json& j, const Facts& f) {
  j.key("facts").begin('{');
  j.key("events").u64(f.events);
  j.key("generated").u64(f.generated);
  j.key("committed").u64(f.committed);
  j.key("missed").u64(f.missed);
  j.key("aborted").u64(f.aborted);
  j.key("messages").u64(f.messages);
  j.end('}');
}

void write_gates(Json& j, const Gates& g) {
  j.key("gates").begin('{');
  j.key("runs").u64(g.runs);
  j.key("failed_runs").u64(g.failed_runs);
  j.key("unaccounted").u64(g.unaccounted);
  j.key("consistency_violations").u64(g.violations);
  j.key("double_records").u64(g.double_records);
  j.key("event_limit_trips").u64(g.event_limit_trips);
  j.key("unexpected_faults").u64(g.unexpected_faults);
  j.end('}');
}

void write_array(Json& j, const char* key, const std::vector<double>& v) {
  j.key(key).begin('[');
  for (double x : v) j.num(x);
  j.end(']');
}

void add_gates(Gates& into, const Gates& g) {
  into.runs += g.runs;
  into.failed_runs += g.failed_runs;
  into.unaccounted += g.unaccounted;
  into.violations += g.violations;
  into.double_records += g.double_records;
  into.event_limit_trips += g.event_limit_trips;
  into.unexpected_faults += g.unexpected_faults;
}

std::uint64_t peak_rss_kb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// ------------------------------------------------------------ timed mode

/// Setup-only repetitions before each op: make_system takes well under a
/// millisecond, so a run takes many samples of it, spread over the whole
/// measuring window, to give setup_s a steady median.
constexpr int kSetupRepsPerOp = 15;

int timed_main(const Workload& w, std::uint64_t seed, Size size,
               double seconds) {
  // The host reference runs after every op, for about a tenth of the op's
  // time, so its samples span the same stretch of time as the op samples
  // and every workload gathers a similar number of them. Its allocations
  // reshape the heap, so peak RSS is read after op 0, before the reference
  // first runs: the peak of a process that has done nothing but this
  // workload.
  HostReference reference;
  std::vector<double> ref_s;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::uint64_t peak_kb = 0;
  // Op 0 warms the allocator and the page cache; its run time is dropped
  // but its facts and gates count like every other op's.
  const std::uint64_t start = now_ns();
  std::vector<Op> ops;
  while (ops.size() < 3 ||
         static_cast<double>(now_ns() - start) * 1e-9 < seconds) {
    for (int i = 0; i < kSetupRepsPerOp; ++i) {
      double total = 0;
      for (const core::SystemKind kind : w.kinds) {
        const core::SystemConfig cfg = w.config(seed, size);
        const std::uint64_t t0 = now_ns();
        auto sys = core::make_system(kind, cfg);
        total += static_cast<double>(now_ns() - t0) * 1e-9;
      }
      setup_s.push_back(total);
    }
    ops.push_back(run_op(w, seed, size, false, nullptr, -1));
    setup_s.push_back(ops.back().setup_s);
    if (ops.size() == 1) {
      peak_kb = peak_rss_kb();
    } else {
      run_s.push_back(ops.back().run_s);
    }
    reference.sample(ref_s, 0.1 * ops.back().run_s);
  }

  Gates gates;
  std::uint64_t repeat_mismatches = 0;
  for (const Op& op : ops) {
    add_gates(gates, op.gates);
    if (!(op.facts == ops.front().facts)) ++repeat_mismatches;
  }

  Json j;
  j.begin('{');
  j.key("mode").str("timed");
  j.key("workload").str(w.name);
  j.key("seed").u64(seed);
  j.key("reference_s").num(HostReference::kReferenceSeconds);
  j.key("reference_checksum").u64(reference.checksum());
  write_array(j, "ref_s", ref_s);
  write_array(j, "setup_s", setup_s);
  write_array(j, "run_s", run_s);
  write_facts(j, ops.front().facts);
  write_gates(j, gates);
  j.key("repeat_mismatches").u64(repeat_mismatches);
  j.key("peak_rss_kb").u64(peak_kb);
  j.end('}');
  std::printf("\n");
  return 0;
}

// ------------------------------------------------------------ traced mode

/// Cost of one empty armed perf::ScopedTimer (two clock reads + the
/// registry update), measured by timing a tight loop of them.
double calibrate_timer_scope_ns() {
  constexpr int kReps = 200'000;
  obs::perf_enable_timing();
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kReps; ++i) {
    perf::ScopedTimer t(perf::Section::kTelemetry);
  }
  const std::uint64_t t1 = now_ns();
  obs::perf_disable_timing();
  perf::reset();
  return static_cast<double>(t1 - t0) / kReps;
}

struct Arrival {
  std::size_t client;
  txn::Transaction txn;
};

struct Replays {
  std::uint64_t txns = 0;
  double gen_ns = 0;
  std::uint64_t accesses = 0;
  double cache_ns = 0;
  std::uint64_t buffer_refs = 0;
  double buffer_ns = 0;
  std::uint64_t llm_ops = 0;
  double llm_ns = 0;
  bool llm_idle = true;
};

/// Generates the workload's transaction stream exactly as System does
/// (per-client Poisson sources up to the end of the measurement window) and
/// returns it in arrival order.
std::vector<Arrival> replay_generator(const core::SystemConfig& cfg,
                                      Replays& r) {
  std::vector<Arrival> stream;
  const std::uint64_t t0 = now_ns();
  workload::WorkloadSuite suite(cfg.workload, cfg.num_clients, cfg.seed);
  std::uint64_t next_id = 1;
  for (std::size_t c = 0; c < suite.num_clients(); ++c) {
    auto& source = suite.client(c);
    sim::SimTime t{};
    for (;;) {
      t = t + source.next_interarrival();
      if (t >= cfg.measure_end()) break;
      stream.push_back({c, source.make_transaction(TxnId{next_id++}, t)});
    }
  }
  r.gen_ns = static_cast<double>(now_ns() - t0);
  r.txns = stream.size();
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.txn.arrival < b.txn.arrival;
                   });
  return stream;
}

/// Every access of the stream through the owning client's two-tier cache;
/// misses reference the server's page buffer and are installed locally.
void replay_storage(const core::SystemConfig& cfg,
                    const std::vector<Arrival>& stream, Replays& r) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<storage::ClientCache>> caches;
  for (std::size_t c = 0; c < cfg.num_clients; ++c) {
    caches.push_back(
        std::make_unique<storage::ClientCache>(sim, cfg.client_cache));
  }
  storage::BufferManager buffer(cfg.cs_server_buffer_capacity);
  std::vector<txn::Operation> missed;
  for (const Arrival& a : stream) {
    storage::ClientCache& cache = *caches[a.client];
    missed.clear();
    missed.reserve(a.txn.ops.size());
    std::uint64_t t0 = now_ns();
    for (const txn::Operation& op : a.txn.ops) {
      if (!cache.access(op.object, op.is_update, [] {})) missed.push_back(op);
    }
    for (const txn::Operation& op : missed) cache.insert(op.object, op.is_update);
    r.cache_ns += static_cast<double>(now_ns() - t0);
    r.accesses += a.txn.ops.size();

    t0 = now_ns();
    for (const txn::Operation& op : missed) {
      const PageId page = page_of(op.object);
      if (!buffer.reference(page)) buffer.insert(page, op.is_update);
      if (op.is_update) buffer.mark_dirty(page);
    }
    r.buffer_ns += static_cast<double>(now_ns() - t0);
    r.buffer_refs += missed.size();
    sim.run();  // completes the cache's simulated I/O callbacks (untimed)
  }
}

/// Strict-2PL acquisition of every transaction at its origin's lock
/// manager, holding the locks of the last `client_executor_slots`
/// transactions per site (the executor's concurrency); the oldest releases
/// everything when a newer one arrives.
void replay_locks(const core::SystemConfig& cfg,
                  const std::vector<Arrival>& stream, Replays& r) {
  std::vector<lock::LocalLockManager> llms(cfg.num_clients);
  std::vector<std::vector<TxnId>> active(cfg.num_clients);
  for (const Arrival& a : stream) {
    lock::LocalLockManager& llm = llms[a.client];
    std::vector<TxnId>& live = active[a.client];
    const auto needs = a.txn.lock_needs();
    const std::uint64_t t0 = now_ns();
    bool refused = false;
    for (const auto& [object, mode] : needs) {
      ++r.llm_ops;
      if (llm.acquire(a.txn.id, object, mode, a.txn.deadline,
                      [](bool) {}) ==
          lock::LocalLockManager::Outcome::kDeadlock) {
        refused = true;
        break;
      }
    }
    if (refused) {
      ++r.llm_ops;
      llm.release_all(a.txn.id);
    } else {
      live.push_back(a.txn.id);
    }
    if (live.size() > cfg.client_executor_slots) {
      ++r.llm_ops;
      llm.release_all(live.front());
      live.erase(live.begin());
    }
    r.llm_ns += static_cast<double>(now_ns() - t0);
  }
  for (std::size_t c = 0; c < llms.size(); ++c) {
    for (const TxnId id : active[c]) llms[c].release_all(id);
    r.llm_idle = r.llm_idle && llms[c].idle();
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int traced_main(const Workload& w, std::uint64_t seed, Size size,
                const std::string& spans_out) {
  const double timer_scope_ns = calibrate_timer_scope_ns();
  // Host reference samples on both sides of the traced pass scale its wall
  // time like the timed run's (obs.trace_overhead_share).
  constexpr double kReferenceBudgetS = 0.3;
  HostReference reference;
  std::vector<double> ref_s;
  reference.sample(ref_s, kReferenceBudgetS);
  SpanLog log;
  const int root = log.open(std::string("traced:") + w.name, -1);

  // Traced pass: the workload's own configuration, timers armed, every
  // allocation counted.
  perf::reset();
#if PERFBENCH_COUNT_ALLOCS
  std::uint64_t allocs_before[kAllocBuckets];
  std::memcpy(allocs_before, g_alloc_count_by, sizeof allocs_before);
#endif
  obs::perf_enable_timing();
  const int traced_span = log.open("traced_pass", root);
  const Op traced = run_op(w, seed, size, false, &log, traced_span);
  log.close(traced_span);
  obs::perf_disable_timing();
  const perf::Snapshot snap = perf::snapshot();
  std::uint64_t allocs_by[perf::kAllocScopeCount + 1] = {};
#if PERFBENCH_COUNT_ALLOCS
  for (std::size_t i = 0; i < kAllocBuckets; ++i) {
    allocs_by[i] = g_alloc_count_by[i] - allocs_before[i];
  }
#endif
  reference.sample(ref_s, kReferenceBudgetS);

  // Attribution pass: telemetry spans on, timers disarmed. Its facts must
  // equal the traced pass's (recording is passive).
  const int attr_span = log.open("attribution_pass", root);
  const Op attributed = run_op(w, seed, size, true, &log, attr_span);
  log.close(attr_span);

  // Replays of the generated stream through the untimed layers.
  Replays rep;
  const core::SystemConfig cfg = w.config(seed, size);
  int span = log.open("replay:workload", root);
  const std::vector<Arrival> stream = replay_generator(cfg, rep);
  log.close(span);
  span = log.open("replay:storage", root);
  replay_storage(cfg, stream, rep);
  log.close(span);
  span = log.open("replay:lock", root);
  replay_locks(cfg, stream, rep);
  log.close(span);
  log.close(root);
  if (!spans_out.empty()) log.write(spans_out);

  Gates gates = traced.gates;
  add_gates(gates, attributed.gates);
  const std::uint64_t passivity_mismatches =
      traced.facts == attributed.facts ? 0 : 1;

  const auto c = [&snap](perf::Counter k) {
    return static_cast<double>(snap.counter(k));
  };
  const auto ns = [&snap](perf::Section s) {
    return static_cast<double>(snap.ns(s));
  };
  double sections_ns = 0;
  for (std::size_t i = 0; i < perf::kSectionCount; ++i) {
    sections_ns += static_cast<double>(snap.section_ns[i]);
  }
  const core::RunMetrics& m = traced.totals.sum;
  const RunTotals& at = attributed.totals;
  const double events = static_cast<double>(traced.facts.events);
  const double generated = static_cast<double>(traced.facts.generated);
  const double spans = static_cast<double>(at.spans);
  double allocs = 0;
  for (std::uint64_t a : allocs_by) allocs += static_cast<double>(a);
  const auto bucket = [](perf::AllocScopeId s) {
    return static_cast<std::size_t>(s);
  };
  const auto wait = [&at, spans](obs::WaitBucket b) {
    return ratio(at.wait_sim_s[static_cast<std::size_t>(b)], spans);
  };
  const auto dominated = [&at](obs::WaitBucket b) {
    return static_cast<double>(at.dominated[static_cast<std::size_t>(b)]);
  };

  Json j;
  j.begin('{');
  j.key("mode").str("traced");
  j.key("workload").str(w.name);
  j.key("seed").u64(seed);
  j.key("traced_run_s").num(traced.run_s);
  j.key("reference_checksum").u64(reference.checksum());
  write_array(j, "ref_s", ref_s);
  write_facts(j, traced.facts);
  write_gates(j, gates);
  j.key("passivity_mismatches").u64(passivity_mismatches);
  j.key("replay_llm_idle").boolean(rep.llm_idle);
  j.key("layers").begin('{');
  j.key("sim.events").num(events);
  j.key("sim.schedule_ns").num(ns(perf::Section::kSimSchedule));
  j.key("sim.pop_ns").num(ns(perf::Section::kSimPop));
  j.key("sim.cancel_ratio")
      .num(ratio(c(perf::Counter::kSimEventsCancelled),
                 c(perf::Counter::kSimEventsScheduled)));
  j.key("net.messages").num(static_cast<double>(traced.facts.messages));
  j.key("net.msgs_per_txn")
      .num(ratio(static_cast<double>(traced.facts.messages), generated));
  j.key("net.send_ns").num(ns(perf::Section::kNetSend));
  j.key("net.wait_sim_s").num(wait(obs::WaitBucket::kNet));
  j.key("lock.wfg_checks").num(c(perf::Counter::kWfgCycleChecks));
  j.key("lock.wfg_ns").num(ns(perf::Section::kWfgCycleCheck));
  j.key("lock.glt_conflict_scans").num(c(perf::Counter::kGltConflictScans));
  j.key("lock.glt_query_ns").num(ns(perf::Section::kGltQuery));
  j.key("lock.fwd_list_ns").num(ns(perf::Section::kFwdList));
  j.key("lock.fwd_list_useful_ratio")
      .num(ratio(c(perf::Counter::kFwdListPops),
                 c(perf::Counter::kFwdListInserts)));
  j.key("lock.llm_replay_ns_per_op")
      .num(ratio(rep.llm_ns, static_cast<double>(rep.llm_ops)));
  j.key("lock.deadlock_refusals").num(static_cast<double>(m.deadlock_refusals));
  j.key("lock.wait_sim_s").num(wait(obs::WaitBucket::kLock));
  j.key("lock.misses_dominated").num(dominated(obs::WaitBucket::kLock));
  j.key("storage.cache_hit_pct")
      .num(100.0 * ratio(static_cast<double>(m.cache_hits),
                         static_cast<double>(m.cache_hits + m.cache_misses)));
  j.key("storage.disk_wait_sim_s").num(wait(obs::WaitBucket::kDisk));
  j.key("storage.cache_replay_ns_per_access")
      .num(ratio(rep.cache_ns, static_cast<double>(rep.accesses)));
  j.key("storage.buffer_replay_ns_per_ref")
      .num(ratio(rep.buffer_ns, static_cast<double>(rep.buffer_refs)));
  j.key("txn.edf_ops")
      .num(c(perf::Counter::kEdfPushes) + c(perf::Counter::kEdfPops));
  j.key("txn.edf_ns").num(ns(perf::Section::kEdfQueue));
  j.key("txn.decomposed").num(static_cast<double>(m.decomposed_txns));
  j.key("txn.subtasks").num(static_cast<double>(m.subtasks_spawned));
  j.key("txn.queue_wait_sim_s").num(wait(obs::WaitBucket::kQueue));
  j.key("txn.misses_dominated").num(dominated(obs::WaitBucket::kQueue));
  j.key("workload.txns").num(generated);
  j.key("workload.gen_replay_ns_per_txn")
      .num(ratio(rep.gen_ns, static_cast<double>(rep.txns)));
  j.key("core.shipped").num(static_cast<double>(m.shipped_txns));
  j.key("core.h1_ships").num(static_cast<double>(m.h1_ships));
  j.key("core.h2_ships").num(static_cast<double>(m.h2_ships));
  j.key("core.unattributed_share")
      .num(1.0 - ratio(sections_ns, traced.run_s * 1e9));
  j.key("core.allocs_per_event").num(ratio(allocs, events));
  j.key("core.allocs_untagged")
      .num(static_cast<double>(allocs_by[perf::kAllocScopeCount]));
  j.key("core.allocs_lock")
      .num(static_cast<double>(allocs_by[bucket(perf::AllocScopeId::kLock)]));
  j.key("core.occ_validation_pass_ratio")
      .num(ratio(static_cast<double>(m.occ_validations - m.occ_rejections),
                 static_cast<double>(m.occ_validations)));
  j.key("fault.dropped").num(static_cast<double>(traced.totals.fault_dropped));
  j.key("fault.duplicates")
      .num(static_cast<double>(traced.totals.fault_duplicates));
  j.key("fault.retransmits")
      .num(static_cast<double>(traced.totals.fault_retransmits));
  j.key("fault.outage_deferrals")
      .num(static_cast<double>(traced.totals.fault_outage_deferrals));
  j.key("fault.reasserts_sent")
      .num(static_cast<double>(traced.totals.fault_reasserts_sent));
  j.key("fault.lease_expiries")
      .num(static_cast<double>(traced.totals.fault_lease_expiries));
  j.key("obs.telemetry_ns").num(ns(perf::Section::kTelemetry));
  j.key("obs.span_ops").num(c(perf::Counter::kTelSpanOps));
  j.key("obs.events_recorded").num(c(perf::Counter::kTelEventsRecorded));
  j.key("obs.timer_scope_ns").num(timer_scope_ns);
  j.end('}');
  j.end('}');
  std::printf("\n");
  return 0;
}

// ------------------------------------------------------------ main

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: %s --workload ls_paper|cs_scale|chaos_mix --seed N\n"
               "       [--seconds S] [--size full|tiny] [--spans-out FILE]\n",
               msg, PERFBENCH_COUNT_ALLOCS ? "perfbench_traced"
                                           : "perfbench_timed");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10;
  Size size = Size::kFull;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage_error(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) workload = &w;
      }
      if (!workload) usage_error(("unknown workload " + v).c_str());
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") usage_error("--size wants full|tiny");
      size = v == "tiny" ? Size::kTiny : Size::kFull;
    } else if (a == "--spans-out") {
      spans_out = v;
    } else {
      usage_error(("unknown flag " + a).c_str());
    }
  }
  if (!workload) usage_error("--workload is required");
  if (PERFBENCH_COUNT_ALLOCS) {
    return traced_main(*workload, seed, size, spans_out);
  }
  return timed_main(*workload, seed, size, seconds);
}
