/// \file rtdb_verify.cpp
/// Verification harness: machine-checkable proofs that a build behaves.
///
/// Two properties, over any subset of the prototypes:
///
///  * determinism — the simulator must replay bit-identically from a config
///    seed. We run the identical configuration twice and compare a digest
///    of everything a run produces (outcome counters, sample statistics,
///    per-kind message/byte counts, resource utilizations, and the
///    auditor's final per-object version vector). Any hidden wall-clock
///    read, unseeded RNG, or container-order dependence shows up here.
///
///  * consistency — the run's ConsistencyAuditor ledger must be empty (no
///    lost updates, stale reads or divergent copies), every measured
///    transaction must have exactly one recorded outcome, and the outcome
///    counters must balance (generated == committed + missed + aborted).
///
///  * telemetry — recording is passive: a run with spans, events and gauge
///    sampling fully enabled must reproduce the exact outcome digest of the
///    plain run (a telemetry hook that schedules events or perturbs any
///    container would show up here), and two telemetry-enabled runs must
///    agree on the full digest including Telemetry::digest() (every span,
///    event, attribution row and sample replayed bit-identically).
///
///  * perf — the performance-observability layer (common/perf.hpp) is
///    passive: arming the wall-clock section timers must leave the outcome
///    digest byte-identical to the plain run, two armed runs must agree on
///    the full digest, and the counter stream itself must replay exactly
///    (same seed, same counts — perf counters are simulation facts, not
///    wall-clock facts). With RTDB_PERF compiled out the digest comparison
///    still holds trivially; with it compiled in the proof also demands the
///    instrumentation is live (events were actually counted).
///
/// Exits 0 only when every requested proof holds; violations are printed
/// with enough detail to start debugging. The periodic structure audit
/// (validate_invariants() sweeps) is armed for every run, so a verify run
/// also exercises the runtime invariant layer regardless of build type.
///
/// Examples:
///   rtdb_verify                           # all systems, both proofs
///   rtdb_verify --system ls --mode determinism
///   rtdb_verify --system occ --clients 40 --updates 20 --seed 7
///
/// Run with --help for the full flag list.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/perf.hpp"
#include "core/runner.hpp"
#include "fault/fault.hpp"
#include "obs/export.hpp"
#include "obs/perf.hpp"

namespace {

using namespace rtdb;

// ---------------------------------------------------------------- digesting

/// FNV-1a (64-bit) over raw bytes: stable, dependency-free, and order
/// sensitive — exactly what a replay proof needs.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    // Bit pattern, not value: -0.0 vs 0.0 or NaN payload differences are
    // divergence too.
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

void digest_samples(Digest& d, const sim::SampleStats& s) {
  d.u64(s.count());
  d.f64(s.mean());
  d.f64(s.min());
  d.f64(s.max());
}

/// Everything observable about a finished run, folded to one number.
std::uint64_t run_digest(const core::System& sys, const core::RunMetrics& m) {
  Digest d;
  d.u64(m.generated);
  d.u64(m.committed);
  d.u64(m.missed);
  d.u64(m.aborted);
  d.u64(m.shipped_txns);
  d.u64(m.h1_ships);
  d.u64(m.h2_ships);
  d.u64(m.decomposed_txns);
  d.u64(m.subtasks_spawned);
  d.u64(m.h1_rejections);
  d.u64(m.cache_hits);
  d.u64(m.cache_misses);
  d.u64(m.forward_list_satisfactions);
  d.u64(m.expired_requests_skipped);
  d.u64(m.deadlock_refusals);
  d.u64(m.consistency_violations);
  d.u64(m.occ_validations);
  d.u64(m.occ_rejections);
  // Slots of the retired speculation counters: zero keeps digests pinned.
  d.u64(0);
  d.u64(0);
  d.u64(0);
  digest_samples(d, m.response_time);
  digest_samples(d, m.commit_slack);
  digest_samples(d, m.object_response_shared);
  digest_samples(d, m.object_response_exclusive);
  d.f64(m.server_cpu_utilization);
  d.f64(m.server_disk_utilization);
  d.f64(m.network_utilization);
  for (std::size_t k = 0; k < net::kLegacyKindCount; ++k) {
    const auto kind = static_cast<net::MessageKind>(k);
    d.u64(m.messages.messages(kind));
    d.u64(m.messages.bytes(kind));
  }
  // Kinds appended after the digest corpus was pinned (the recovery
  // protocol's re-assertion traffic) fold in only when they carried
  // traffic: fault-free runs never send them, so their digests stay
  // byte-identical to the pinned goldens. The kind index prefixes the
  // counts so "kind 16 sent N" can never alias "kind 17 sent N".
  for (std::size_t k = net::kLegacyKindCount; k < net::kMessageKindCount;
       ++k) {
    const auto kind = static_cast<net::MessageKind>(k);
    const std::uint64_t msgs = m.messages.messages(kind);
    const std::uint64_t bytes = m.messages.bytes(kind);
    if (msgs == 0 && bytes == 0) continue;
    d.u64(k);
    d.u64(msgs);
    d.u64(bytes);
  }
  // Final database state: the committed version of every object. Catches
  // divergence that happens to cancel out in the aggregates.
  const auto& auditor = sys.auditor();
  d.u64(auditor.audited_reads());
  d.u64(auditor.audited_writes());
  for (std::size_t obj = 0; obj < sys.config().workload.db_size; ++obj) {
    d.u64(auditor.committed_version(static_cast<ObjectId>(obj)));
  }
  // Chaos runs fold every injection/recovery counter in: a replay must
  // inject the same faults and recover the same way, not merely land on
  // the same outcomes. Fault-free runs skip this, keeping their digests
  // byte-identical to pre-fault-subsystem builds.
  if (sys.injector() != nullptr) d.u64(sys.injector()->stats().digest());
  return d.value();
}

// ------------------------------------------------------------------ proofs

struct Options {
  std::vector<core::SystemKind> systems{
      core::SystemKind::kCentralized, core::SystemKind::kClientServer,
      core::SystemKind::kLoadSharing, core::SystemKind::kOptimistic};
  std::size_t clients = 16;
  double updates = 20.0;
  std::uint64_t seed = 42;
  double duration = 150;
  double warmup = 30;
  std::uint64_t audit_interval = 2048;
  bool check_determinism = true;
  bool check_consistency = true;
  bool check_telemetry = true;
  bool check_perf = true;
  bool check_chaos = false;
  bool check_chaos_server = false;
  /// WILL_FAIL gate: run the server chaos schedules with recovery disabled
  /// (the restarted server serves from an empty lock table).
  bool no_recovery = false;
  /// LS only: serve the server's request queues FCFS instead of in
  /// earliest-deadline order (rtdbctl's --no-ed).
  bool no_ed = false;
  std::string dump_schedules;  ///< write schedule descriptions here ("" = off)
};

core::SystemConfig make_config(const Options& opt) {
  core::SystemConfig cfg;
  cfg.ls = core::LsOptions::all();
  cfg.ls.ed_request_scheduling = !opt.no_ed;
  cfg.num_clients = opt.clients;
  cfg.workload.update_fraction = opt.updates / 100.0;
  cfg.seed = opt.seed;
  cfg.duration = sim::seconds(opt.duration);
  cfg.warmup = sim::seconds(opt.warmup);
  cfg.audit_interval = opt.audit_interval;
  return cfg;
}

/// One run, structure audit armed, system kept alive for inspection.
struct Run {
  std::unique_ptr<core::System> sys;
  core::RunMetrics metrics;
  /// Outcome digest only — identical whether telemetry records or not.
  std::uint64_t base_digest = 0;
  /// Outcome digest + Telemetry::digest() (spans/events/samples folded in).
  std::uint64_t digest = 0;
};

Run run_one(core::SystemKind kind, core::SystemConfig cfg) {
  // Debug affordance: RTDB_TRACE=lock,fault,... records typed events so a
  // failing proof can be diagnosed; RTDB_TRACE_DUMP=FILE appends the chosen
  // categories as JSONL. Decided here, so every run a proof compares is
  // configured the same way.
  const std::uint32_t categories =
      obs::parse_categories(std::getenv("RTDB_TRACE"));
  if (categories != 0) cfg.telemetry.events = true;
  Run r;
  r.sys = core::make_system(kind, cfg);
  r.metrics = r.sys->run();
  if (const char* dump = std::getenv("RTDB_TRACE_DUMP");
      dump != nullptr && categories != 0) {
    std::ofstream os(dump, std::ios::app);
    obs::write_jsonl(os, r.sys->telemetry(), categories);
  }
  r.base_digest = run_digest(*r.sys, r.metrics);
  Digest d;
  d.u64(r.base_digest);
  d.u64(r.sys->telemetry().digest());
  r.digest = d.value();
  return r;
}

bool prove_determinism(core::SystemKind kind, const Run& first,
                       const core::SystemConfig& cfg) {
  const Run second = run_one(kind, cfg);
  if (first.digest == second.digest) {
    std::printf("PASS  %-13s determinism  digest=%016llx\n",
                core::to_string(kind).c_str(),
                static_cast<unsigned long long>(first.digest));
    return true;
  }
  std::printf(
      "FAIL  %-13s determinism  run1=%016llx run2=%016llx\n"
      "      run1: generated=%llu committed=%llu messages=%llu\n"
      "      run2: generated=%llu committed=%llu messages=%llu\n",
      core::to_string(kind).c_str(),
      static_cast<unsigned long long>(first.digest),
      static_cast<unsigned long long>(second.digest),
      static_cast<unsigned long long>(first.metrics.generated),
      static_cast<unsigned long long>(first.metrics.committed),
      static_cast<unsigned long long>(first.metrics.messages.total_messages()),
      static_cast<unsigned long long>(second.metrics.generated),
      static_cast<unsigned long long>(second.metrics.committed),
      static_cast<unsigned long long>(
          second.metrics.messages.total_messages()));
  return false;
}

bool prove_telemetry(core::SystemKind kind, const Run& first,
                     const core::SystemConfig& cfg) {
  core::SystemConfig tcfg = cfg;
  tcfg.telemetry.spans = true;
  tcfg.telemetry.events = true;
  tcfg.telemetry.sample_interval = cfg.duration / 50.0;
  const Run t1 = run_one(kind, tcfg);
  if (t1.base_digest != first.base_digest) {
    std::printf(
        "FAIL  %-13s telemetry    recording perturbed the run: "
        "plain=%016llx instrumented=%016llx\n",
        core::to_string(kind).c_str(),
        static_cast<unsigned long long>(first.base_digest),
        static_cast<unsigned long long>(t1.base_digest));
    return false;
  }
  const Run t2 = run_one(kind, tcfg);
  if (t1.digest != t2.digest) {
    std::printf(
        "FAIL  %-13s telemetry    nondeterministic recording: "
        "run1=%016llx run2=%016llx (outcomes %s)\n",
        core::to_string(kind).c_str(),
        static_cast<unsigned long long>(t1.digest),
        static_cast<unsigned long long>(t2.digest),
        t1.base_digest == t2.base_digest ? "agree" : "diverge");
    return false;
  }
  const auto& tel = t1.sys->telemetry();
  std::printf(
      "PASS  %-13s telemetry    spans=%zu events=%zu samples=%zu "
      "digest=%016llx\n",
      core::to_string(kind).c_str(), tel.span_count(), tel.events().size(),
      tel.sample_times().size(),
      static_cast<unsigned long long>(t1.digest));
  return true;
}

/// Perf passivity: arming the section timers (real wall-clock reads inside
/// the hot paths) must not move the outcome digest, armed runs must replay
/// bit-identically, and the counter stream must replay exactly too.
bool prove_perf(core::SystemKind kind, const Run& first,
                const core::SystemConfig& cfg) {
  perf::reset();
  obs::perf_enable_timing();
  const Run p1 = run_one(kind, cfg);
  const perf::Snapshot s1 = perf::snapshot();
  perf::reset();
  const Run p2 = run_one(kind, cfg);
  const perf::Snapshot s2 = perf::snapshot();
  obs::perf_disable_timing();
  perf::reset();

  if (p1.base_digest != first.base_digest) {
    std::printf(
        "FAIL  %-13s perf         armed timers perturbed the run: "
        "plain=%016llx armed=%016llx\n",
        core::to_string(kind).c_str(),
        static_cast<unsigned long long>(first.base_digest),
        static_cast<unsigned long long>(p1.base_digest));
    return false;
  }
  if (p1.digest != p2.digest) {
    std::printf(
        "FAIL  %-13s perf         nondeterministic under armed timers: "
        "run1=%016llx run2=%016llx\n",
        core::to_string(kind).c_str(),
        static_cast<unsigned long long>(p1.digest),
        static_cast<unsigned long long>(p2.digest));
    return false;
  }
  if (s1.counters != s2.counters) {
    for (std::size_t i = 0; i < perf::kCounterCount; ++i) {
      const auto c = static_cast<perf::Counter>(i);
      if (s1.counter(c) != s2.counter(c)) {
        std::printf(
            "FAIL  %-13s perf         counter '%s' did not replay: "
            "run1=%llu run2=%llu\n",
            core::to_string(kind).c_str(), perf::to_string(c),
            static_cast<unsigned long long>(s1.counter(c)),
            static_cast<unsigned long long>(s2.counter(c)));
      }
    }
    return false;
  }
#if RTDB_PERF
  if (s1.counter(perf::Counter::kSimEventsFired) == 0) {
    std::printf(
        "FAIL  %-13s perf         instrumentation dead: RTDB_PERF=1 but "
        "no events were counted\n",
        core::to_string(kind).c_str());
    return false;
  }
#endif
  std::printf(
      "PASS  %-13s perf         events=%llu msgs=%llu grants=%llu "
      "digest=%016llx\n",
      core::to_string(kind).c_str(),
      static_cast<unsigned long long>(
          s1.counter(perf::Counter::kSimEventsFired)),
      static_cast<unsigned long long>(s1.counter(perf::Counter::kNetMessages)),
      static_cast<unsigned long long>(s1.counter(perf::Counter::kGltGrants)),
      static_cast<unsigned long long>(p1.digest));
  return true;
}

bool prove_consistency(core::SystemKind kind, const Run& r) {
  const auto& violations = r.sys->auditor().violations();
  bool ok = true;
  if (!violations.empty()) {
    ok = false;
    std::printf("FAIL  %-13s consistency  %zu violation(s)\n",
                core::to_string(kind).c_str(), violations.size());
    const std::size_t show = violations.size() < 5 ? violations.size() : 5;
    for (std::size_t i = 0; i < show; ++i) {
      std::printf("      %s\n",
                  core::ConsistencyAuditor::describe(violations[i]).c_str());
    }
  }
  if (r.sys->double_records() != 0) {
    ok = false;
    std::printf("FAIL  %-13s consistency  %llu double-recorded outcome(s)\n",
                core::to_string(kind).c_str(),
                static_cast<unsigned long long>(r.sys->double_records()));
  }
  if (!r.metrics.accounted()) {
    ok = false;
    std::printf(
        "FAIL  %-13s consistency  unbalanced outcomes: "
        "generated=%llu committed=%llu missed=%llu aborted=%llu\n",
        core::to_string(kind).c_str(),
        static_cast<unsigned long long>(r.metrics.generated),
        static_cast<unsigned long long>(r.metrics.committed),
        static_cast<unsigned long long>(r.metrics.missed),
        static_cast<unsigned long long>(r.metrics.aborted));
  }
  if (ok) {
    std::printf(
        "PASS  %-13s consistency  reads=%llu writes=%llu violations=0\n",
        core::to_string(kind).c_str(),
        static_cast<unsigned long long>(r.sys->auditor().audited_reads()),
        static_cast<unsigned long long>(r.sys->auditor().audited_writes()));
  }
  return ok;
}

/// Chaos gate: for every named fault schedule, the perturbed run must (a)
/// replay bit-identically from the same seeds — including every injection
/// and recovery counter, (b) keep the consistency ledger clean, (c) account
/// every transaction exactly once, and (d) actually inject faults (except
/// the null-active schedule, which must inject none: it proves the armed
/// recovery machinery is harmless on a healthy network).
bool prove_chaos(core::SystemKind kind, const core::SystemConfig& cfg,
                 const std::vector<std::string_view>& schedules,
                 bool no_recovery) {
  bool all_ok = true;
  for (const auto name : schedules) {
    core::SystemConfig ccfg = cfg;
    ccfg.fault = fault::make_chaos_plan(name, cfg.num_clients,
                                        sim::SimTime{} + cfg.warmup,
                                        cfg.horizon());
    ccfg.fault.recovery_disabled = no_recovery;
    const std::string label =
        core::to_string(kind) + ":" + std::string(name);
    const Run r1 = run_one(kind, ccfg);
    const Run r2 = run_one(kind, ccfg);
    const fault::FaultStats& st = r1.sys->injector()->stats();
    bool ok = true;

    if (r1.digest != r2.digest) {
      ok = false;
      std::printf(
          "FAIL  %-24s chaos  nondeterministic: run1=%016llx run2=%016llx\n",
          label.c_str(), static_cast<unsigned long long>(r1.digest),
          static_cast<unsigned long long>(r2.digest));
    }
    const auto& violations = r1.sys->auditor().violations();
    if (!violations.empty()) {
      ok = false;
      std::printf("FAIL  %-24s chaos  %zu consistency violation(s)\n",
                  label.c_str(), violations.size());
      const std::size_t show = violations.size() < 5 ? violations.size() : 5;
      for (std::size_t i = 0; i < show; ++i) {
        std::printf("      %s\n",
                    core::ConsistencyAuditor::describe(violations[i]).c_str());
      }
    }
    if (r1.sys->double_records() != 0) {
      ok = false;
      std::printf(
          "FAIL  %-24s chaos  %llu double-recorded outcome(s): a "
          "transaction was both committed and missed/aborted\n",
          label.c_str(),
          static_cast<unsigned long long>(r1.sys->double_records()));
    }
    if (!r1.metrics.accounted()) {
      ok = false;
      std::printf(
          "FAIL  %-24s chaos  lost transactions: generated=%llu "
          "committed=%llu missed=%llu aborted=%llu\n",
          label.c_str(),
          static_cast<unsigned long long>(r1.metrics.generated),
          static_cast<unsigned long long>(r1.metrics.committed),
          static_cast<unsigned long long>(r1.metrics.missed),
          static_cast<unsigned long long>(r1.metrics.aborted));
    }
    const bool null_plan = name == "null-active";
    if (null_plan && st.injected() != 0) {
      ok = false;
      std::printf(
          "FAIL  %-24s chaos  null schedule injected %llu fault(s)\n",
          label.c_str(), static_cast<unsigned long long>(st.injected()));
    }
    if (!null_plan && st.injected() == 0) {
      ok = false;
      std::printf("FAIL  %-24s chaos  schedule injected nothing\n",
                  label.c_str());
    }
    if (ok) {
      std::printf(
          "PASS  %-24s chaos  digest=%016llx injected=%llu retx=%llu "
          "reclaimed=%llu repairs=%llu lost=%llu\n",
          label.c_str(), static_cast<unsigned long long>(r1.digest),
          static_cast<unsigned long long>(st.injected()),
          static_cast<unsigned long long>(st.retransmits +
                                          st.recall_retransmits +
                                          st.return_retransmits),
          static_cast<unsigned long long>(st.orphan_locks_reclaimed +
                                          st.queue_entries_reclaimed),
          static_cast<unsigned long long>(st.forward_reroutes +
                                          st.circulation_repairs),
          static_cast<unsigned long long>(st.lost_versions));
    }
    all_ok = all_ok && ok;
  }
  return all_ok;
}

/// CI artifact: a human-readable description of every schedule a chaos run
/// exercises (written on request so failures are reproducible offline).
void dump_schedules(const std::string& path, const core::SystemConfig& cfg) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  for (const auto name : fault::chaos_schedule_names()) {
    const auto plan = fault::make_chaos_plan(name, cfg.num_clients,
                                             sim::SimTime{} + cfg.warmup,
                                             cfg.horizon());
    os << "## " << name << "\n" << fault::describe(plan) << "\n";
  }
  for (const auto name : fault::server_chaos_schedule_names()) {
    const auto plan = fault::make_chaos_plan(name, cfg.num_clients,
                                             sim::SimTime{} + cfg.warmup,
                                             cfg.horizon());
    os << "## " << name << "\n" << fault::describe(plan) << "\n";
  }
  std::fprintf(stderr, "chaos schedules: %s\n", path.c_str());
}

// ------------------------------------------------------------------- flags

void usage() {
  std::puts(
      "rtdb_verify — determinism and consistency proofs over the prototypes\n"
      "\n"
      "  --system ce|cs|ls|occ|all   prototype(s) to verify (default all)\n"
      "  --mode determinism|consistency|telemetry|perf|all\n"
      "                              which proofs to run (default all)\n"
      "  --clients N                 cluster size (default 16)\n"
      "  --updates P                 update percentage (default 20)\n"
      "  --seed S                    workload seed (default 42)\n"
      "  --duration S                measured seconds (default 150)\n"
      "  --warmup S                  warm-up seconds (default 30)\n"
      "  --audit N                   structure-audit interval in events\n"
      "                              (default 2048; 0 = build default)\n"
      "  --chaos                     run the fault-injection gate instead:\n"
      "                              every named fault schedule must replay\n"
      "                              deterministically, keep the consistency\n"
      "                              ledger clean, and account every fault\n"
      "  --chaos-server              run the server crash/recovery gate:\n"
      "                              the server-outage schedules (crash,\n"
      "                              warm standby, mixed) under the same\n"
      "                              proofs as --chaos\n"
      "  --no-recovery               with --chaos-server: disable epoch\n"
      "                              recovery (the restarted server serves\n"
      "                              from an empty lock table) — the\n"
      "                              WILL_FAIL gate proving recovery is what\n"
      "                              keeps the ledgers clean\n"
      "  --no-ed                     LS: serve request queues FCFS, not in\n"
      "                              earliest-deadline order (as rtdbctl)\n"
      "  --dump-schedules FILE       write the chaos schedule library to\n"
      "                              FILE (CI failure artifact)\n"
      "  --help                      this text\n"
      "\n"
      "Exit status: 0 iff every requested proof holds.");
}

bool parse(int argc, char** argv, Options& opt) {
  const auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--help")) {
      usage();
      std::exit(0);
    } else if (!std::strcmp(a, "--system")) {
      const std::string v = need(i);
      if (v == "ce") opt.systems = {core::SystemKind::kCentralized};
      else if (v == "cs") opt.systems = {core::SystemKind::kClientServer};
      else if (v == "ls") opt.systems = {core::SystemKind::kLoadSharing};
      else if (v == "occ") opt.systems = {core::SystemKind::kOptimistic};
      else if (v != "all") {
        std::fprintf(stderr, "unknown system '%s'\n", v.c_str());
        return false;
      }
    } else if (!std::strcmp(a, "--mode")) {
      const std::string v = need(i);
      if (v == "determinism") {
        opt.check_consistency = false;
        opt.check_telemetry = false;
        opt.check_perf = false;
      } else if (v == "consistency") {
        opt.check_determinism = false;
        opt.check_telemetry = false;
        opt.check_perf = false;
      } else if (v == "telemetry") {
        opt.check_determinism = false;
        opt.check_consistency = false;
        opt.check_perf = false;
      } else if (v == "perf") {
        opt.check_determinism = false;
        opt.check_consistency = false;
        opt.check_telemetry = false;
      } else if (v != "all") {
        std::fprintf(stderr, "unknown mode '%s'\n", v.c_str());
        return false;
      }
    } else if (!std::strcmp(a, "--clients")) {
      opt.clients = static_cast<std::size_t>(std::atoll(need(i)));
    } else if (!std::strcmp(a, "--updates")) {
      opt.updates = std::atof(need(i));
    } else if (!std::strcmp(a, "--seed")) {
      opt.seed = static_cast<std::uint64_t>(std::atoll(need(i)));
    } else if (!std::strcmp(a, "--duration")) {
      opt.duration = std::atof(need(i));
    } else if (!std::strcmp(a, "--warmup")) {
      opt.warmup = std::atof(need(i));
    } else if (!std::strcmp(a, "--audit")) {
      opt.audit_interval = static_cast<std::uint64_t>(std::atoll(need(i)));
    } else if (!std::strcmp(a, "--chaos")) {
      opt.check_chaos = true;
      opt.check_determinism = false;
      opt.check_consistency = false;
      opt.check_telemetry = false;
      opt.check_perf = false;
    } else if (!std::strcmp(a, "--chaos-server")) {
      opt.check_chaos_server = true;
      opt.check_determinism = false;
      opt.check_consistency = false;
      opt.check_telemetry = false;
      opt.check_perf = false;
    } else if (!std::strcmp(a, "--no-recovery")) {
      opt.no_recovery = true;
    } else if (!std::strcmp(a, "--no-ed")) {
      opt.no_ed = true;
    } else if (!std::strcmp(a, "--dump-schedules")) {
      opt.dump_schedules = need(i);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (see --help)\n", a);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;
  if (opt.no_recovery && !opt.check_chaos_server) {
    std::fprintf(stderr, "--no-recovery requires --chaos-server\n");
    return 2;
  }

  const core::SystemConfig cfg = make_config(opt);
  if (!opt.dump_schedules.empty()) dump_schedules(opt.dump_schedules, cfg);
  int failures = 0;
  for (const auto kind : opt.systems) {
    if (opt.check_chaos || opt.check_chaos_server) {
      const auto schedules = opt.check_chaos_server
                                 ? fault::server_chaos_schedule_names()
                                 : fault::chaos_schedule_names();
      if (!prove_chaos(kind, cfg, schedules, opt.no_recovery)) ++failures;
      continue;
    }
    const Run first = run_one(kind, cfg);
    if (opt.check_consistency && !prove_consistency(kind, first)) ++failures;
    if (opt.check_determinism && !prove_determinism(kind, first, cfg)) {
      ++failures;
    }
    if (opt.check_telemetry && !prove_telemetry(kind, first, cfg)) {
      ++failures;
    }
    if (opt.check_perf && !prove_perf(kind, first, cfg)) ++failures;
  }
  if (failures) {
    std::printf("rtdb_verify: %d proof(s) FAILED\n", failures);
    return 1;
  }
  std::printf("rtdb_verify: all proofs passed\n");
  return 0;
}
