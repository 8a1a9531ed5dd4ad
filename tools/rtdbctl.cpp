/// \file rtdbctl.cpp
/// Command-line driver for custom experiments: pick a system, override any
/// workload/cluster/technique parameter, sweep client counts, and emit
/// either a human table or CSV (for plotting).
///
/// Examples:
///   rtdbctl --system ls --clients 60 --updates 5
///   rtdbctl --system all --sweep 10,20,40,80 --updates 20 --csv
///   rtdbctl --system ls --clients 100 --updates 20 --no-fwd --no-dec
///   rtdbctl --system occ --clients 60 --updates 5 --seeds 5
///
/// Run with --help for the full flag list.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/perf.hpp"
#include "core/metrics_json.hpp"
#include "core/runner.hpp"
#include "fault/fault.hpp"
#include "obs/export.hpp"
#include "obs/perf.hpp"

namespace {

using namespace rtdb;

struct Options {
  std::vector<core::SystemKind> systems{core::SystemKind::kLoadSharing};
  std::vector<std::size_t> clients{40};
  double updates = 5.0;
  std::size_t seeds = 1;
  std::uint64_t base_seed = 42;
  double duration = 2000;
  double warmup = 300;
  bool csv = false;
  std::string trace_out;               ///< event/span trace file ("" = off)
  std::string trace_format = "perfetto";
  std::string metrics_out;             ///< metrics JSON file ("" = off)
  double sample_interval = 0;          ///< 0 = auto (duration / 100)
  std::string chaos;                   ///< named fault schedule ("" = off)
  bool perf_report = false;            ///< text perf summary after the sweep
  std::string perf_json;               ///< perf JSON file ("" = off)
  core::SystemConfig base;  // receives the technique/parameter overrides
};

/// Strict numeric parsing: the whole value must convert, or the run exits
/// instead of silently treating "10x" (or "oops") as a number.
double parse_f64(const char* flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "rtdbctl: bad numeric value '%s' for %s\n", value,
                 flag);
    std::exit(2);
  }
  return v;
}

std::uint64_t parse_u64(const char* flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || value[0] == '-') {
    std::fprintf(stderr, "rtdbctl: bad integer value '%s' for %s\n", value,
                 flag);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

/// Parses a "start:end" server-outage window spec (end may be "inf").
void parse_server_window(const char* flag, const char* value,
                         sim::SimTime& start, sim::SimTime& end) {
  const std::string v = value;
  const auto colon = v.find(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "rtdbctl: %s wants START:END, got '%s'\n", flag,
                 value);
    std::exit(2);
  }
  start = sim::SimTime{} +
          sim::seconds(parse_f64(flag, v.substr(0, colon).c_str()));
  const std::string tail = v.substr(colon + 1);
  end = tail == "inf" ? sim::kTimeInfinity
                      : sim::SimTime{} + sim::seconds(parse_f64(
                                             flag, tail.c_str()));
}

/// Parses a "client:start:end" window spec (end may be "inf").
void parse_window(const char* flag, const char* value, ClientId& client,
                  sim::SimTime& start, sim::SimTime& end) {
  const std::string v = value;
  const auto c1 = v.find(':');
  const auto c2 = c1 == std::string::npos ? c1 : v.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) {
    std::fprintf(stderr, "rtdbctl: %s wants CLIENT:START:END, got '%s'\n",
                 flag, value);
    std::exit(2);
  }
  client = ClientId{static_cast<ClientId::Rep>(
      parse_u64(flag, v.substr(0, c1).c_str()))};
  start = sim::SimTime{} + sim::seconds(parse_f64(
                               flag, v.substr(c1 + 1, c2 - c1 - 1).c_str()));
  const std::string tail = v.substr(c2 + 1);
  end = tail == "inf" ? sim::kTimeInfinity
                      : sim::SimTime{} + sim::seconds(parse_f64(
                                             flag, tail.c_str()));
}

void usage() {
  std::puts(
      "rtdbctl — run ICDCS'99 reproduction experiments\n"
      "\n"
      "  --system ce|cs|ls|occ|all   prototype(s) to run (default ls)\n"
      "  --clients N                 cluster size (default 40)\n"
      "  --sweep N1,N2,...           sweep several cluster sizes\n"
      "  --updates P                 update percentage (default 5)\n"
      "  --seeds K                   replications, seeds base..base+K-1\n"
      "  --seed S                    base seed (default 42)\n"
      "  --duration S                measured seconds (default 2000)\n"
      "  --warmup S                  warm-up seconds (default 300)\n"
      "  --interarrival S            mean inter-arrival per client\n"
      "  --length S                  mean transaction length\n"
      "  --slack S                   mean extra deadline slack\n"
      "  --ops N                     mean objects per transaction\n"
      "  --db N                      database size in objects\n"
      "  --region N                  per-client region size\n"
      "  --zipf T                    shared-remainder skew theta\n"
      "  --window S                  lock-grouping collection window\n"
      "  --no-h1|--no-h2|--no-dec|--no-fwd|--no-ed\n"
      "                              disable one LS technique\n"
      "  --cold                      disable the warm start\n"
      "  --csv                       machine-readable output\n"
      "\n"
      "Fault injection (deterministic chaos; see docs/analysis.md):\n"
      "  --chaos NAME                named schedule: null-active, lossy,\n"
      "                              partition, crashes, mixed\n"
      "  --fault-seed S              injector stream seed (default 1)\n"
      "  --drop P                    per-message drop probability\n"
      "  --dup P                     per-message duplication probability\n"
      "  --delay-prob P              per-message extra-delay probability\n"
      "  --extra-delay S             extra delivery delay when it fires\n"
      "  --crash C:T0:T1             client C down in [T0,T1) (T1 may be\n"
      "                              'inf'; repeatable)\n"
      "  --partition C:T0:T1         client C cut off from the server in\n"
      "                              [T0,T1) (repeatable)\n"
      "  --fault-server-crash T0:T1  server down in [T0,T1) (T1 may be\n"
      "                              'inf'; repeatable, windows must be\n"
      "                              sorted and non-overlapping)\n"
      "  --fault-server-recover-ms M grace window for the epoch-leased lock\n"
      "                              rebuild after a cold restart (ms)\n"
      "  --fault-standby             arm the warm standby: promote the\n"
      "                              crashed table's snapshot instead of\n"
      "                              the grace rebuild\n"
      "\n"
      "Observability (see docs/observability.md):\n"
      "  --trace-out FILE            write an execution trace of the last\n"
      "                              run (enables span + event recording)\n"
      "  --trace-format perfetto|jsonl\n"
      "                              trace flavour: Chrome/Perfetto JSON\n"
      "                              (open in ui.perfetto.dev; default) or\n"
      "                              one JSON object per line\n"
      "  --metrics-out FILE          write metrics JSON: counters, quantile\n"
      "                              + histogram distributions, gauge time\n"
      "                              series, deadline-miss attribution\n"
      "  --sample-interval S         gauge sampling period in sim seconds\n"
      "                              (default duration/100 when metrics\n"
      "                              are requested)\n"
      "  --perf-report               after the sweep, print the perf\n"
      "                              counter/section-timer summary (the\n"
      "                              layer bench/perf_core measures; arms\n"
      "                              wall-clock section timing)\n"
      "  --perf-json FILE            write the same perf summary as JSON\n"
      "  --help                      this text");
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
      opt.systems.clear();
      if (v == "ce") opt.systems = {core::SystemKind::kCentralized};
      else if (v == "cs") opt.systems = {core::SystemKind::kClientServer};
      else if (v == "ls") opt.systems = {core::SystemKind::kLoadSharing};
      else if (v == "occ") opt.systems = {core::SystemKind::kOptimistic};
      else if (v == "all") {
        opt.systems = {core::SystemKind::kCentralized,
                       core::SystemKind::kClientServer,
                       core::SystemKind::kLoadSharing,
                       core::SystemKind::kOptimistic};
      } else {
        std::fprintf(stderr, "unknown system '%s'\n", v.c_str());
        return false;
      }
    } else if (!std::strcmp(a, "--clients")) {
      opt.clients = {static_cast<std::size_t>(parse_u64(a, need(i)))};
    } else if (!std::strcmp(a, "--sweep")) {
      opt.clients.clear();
      std::string v = need(i);
      for (std::size_t pos = 0; pos < v.size();) {
        const auto comma = v.find(',', pos);
        opt.clients.push_back(static_cast<std::size_t>(
            parse_u64(a, v.substr(pos, comma - pos).c_str())));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (!std::strcmp(a, "--updates")) {
      opt.updates = parse_f64(a, need(i));
    } else if (!std::strcmp(a, "--seeds")) {
      opt.seeds = static_cast<std::size_t>(parse_u64(a, need(i)));
    } else if (!std::strcmp(a, "--seed")) {
      opt.base_seed = parse_u64(a, need(i));
    } else if (!std::strcmp(a, "--duration")) {
      opt.duration = parse_f64(a, need(i));
    } else if (!std::strcmp(a, "--warmup")) {
      opt.warmup = parse_f64(a, need(i));
    } else if (!std::strcmp(a, "--interarrival")) {
      opt.base.workload.mean_interarrival =
          sim::seconds(parse_f64(a, need(i)));
    } else if (!std::strcmp(a, "--length")) {
      opt.base.workload.mean_length = sim::seconds(parse_f64(a, need(i)));
    } else if (!std::strcmp(a, "--slack")) {
      opt.base.workload.mean_slack = sim::seconds(parse_f64(a, need(i)));
    } else if (!std::strcmp(a, "--ops")) {
      opt.base.workload.mean_ops = parse_f64(a, need(i));
    } else if (!std::strcmp(a, "--db")) {
      opt.base.workload.db_size =
          static_cast<std::size_t>(parse_u64(a, need(i)));
    } else if (!std::strcmp(a, "--region")) {
      opt.base.workload.region_size =
          static_cast<std::size_t>(parse_u64(a, need(i)));
    } else if (!std::strcmp(a, "--zipf")) {
      opt.base.workload.zipf_theta = parse_f64(a, need(i));
    } else if (!std::strcmp(a, "--window")) {
      opt.base.ls.collection_window = sim::seconds(parse_f64(a, need(i)));
    } else if (!std::strcmp(a, "--no-h1")) {
      opt.base.ls.enable_h1 = false;
    } else if (!std::strcmp(a, "--no-h2")) {
      opt.base.ls.enable_h2 = false;
    } else if (!std::strcmp(a, "--no-dec")) {
      opt.base.ls.enable_decomposition = false;
    } else if (!std::strcmp(a, "--no-fwd")) {
      opt.base.ls.enable_forward_lists = false;
    } else if (!std::strcmp(a, "--no-ed")) {
      opt.base.ls.ed_request_scheduling = false;
    } else if (!std::strcmp(a, "--cold")) {
      opt.base.warm_start = false;
    } else if (!std::strcmp(a, "--csv")) {
      opt.csv = true;
    } else if (!std::strcmp(a, "--trace-out")) {
      opt.trace_out = need(i);
    } else if (!std::strcmp(a, "--trace-format")) {
      opt.trace_format = need(i);
      if (opt.trace_format != "perfetto" && opt.trace_format != "jsonl") {
        std::fprintf(stderr, "unknown trace format '%s'\n",
                     opt.trace_format.c_str());
        return false;
      }
    } else if (!std::strcmp(a, "--metrics-out")) {
      opt.metrics_out = need(i);
    } else if (!std::strcmp(a, "--sample-interval")) {
      opt.sample_interval = parse_f64(a, need(i));
    } else if (!std::strcmp(a, "--perf-report")) {
      opt.perf_report = true;
    } else if (!std::strcmp(a, "--perf-json")) {
      opt.perf_json = need(i);
    } else if (!std::strcmp(a, "--chaos")) {
      opt.chaos = need(i);
      bool known = false;
      for (const auto n : fault::chaos_schedule_names()) {
        known = known || n == opt.chaos;
      }
      if (!known) {
        std::fprintf(stderr, "unknown chaos schedule '%s'\n",
                     opt.chaos.c_str());
        return false;
      }
    } else if (!std::strcmp(a, "--fault-seed")) {
      opt.base.fault.seed = parse_u64(a, need(i));
    } else if (!std::strcmp(a, "--drop")) {
      opt.base.fault.all_kinds.drop = parse_f64(a, need(i));
    } else if (!std::strcmp(a, "--dup")) {
      opt.base.fault.all_kinds.duplicate = parse_f64(a, need(i));
    } else if (!std::strcmp(a, "--delay-prob")) {
      opt.base.fault.all_kinds.delay = parse_f64(a, need(i));
    } else if (!std::strcmp(a, "--extra-delay")) {
      opt.base.fault.extra_delay = sim::seconds(parse_f64(a, need(i)));
    } else if (!std::strcmp(a, "--crash")) {
      fault::CrashWindow w;
      parse_window(a, need(i), w.client, w.start, w.end);
      opt.base.fault.crashes.push_back(w);
    } else if (!std::strcmp(a, "--partition")) {
      fault::PartitionWindow w;
      parse_window(a, need(i), w.client, w.start, w.end);
      opt.base.fault.partitions.push_back(w);
    } else if (!std::strcmp(a, "--fault-server-crash")) {
      fault::ServerCrashWindow w;
      parse_server_window(a, need(i), w.start, w.end);
      opt.base.fault.allow_server_crash = true;
      opt.base.fault.server_crashes.push_back(w);
    } else if (!std::strcmp(a, "--fault-server-recover-ms")) {
      opt.base.fault.server_recovery_grace =
          sim::msec(parse_f64(a, need(i)));
    } else if (!std::strcmp(a, "--fault-standby")) {
      opt.base.fault.warm_standby = true;
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
  // Technique flags refine the full LS set.
  opt.base.ls = core::LsOptions::all();
  if (!parse(argc, argv, opt)) return 2;

  const auto resolve_cfg = [&opt](std::size_t n) {
    core::SystemConfig cfg = opt.base;
    cfg.workload.update_fraction = opt.updates / 100.0;
    cfg.num_clients = n;
    cfg.duration = sim::seconds(opt.duration);
    cfg.warmup = sim::seconds(opt.warmup);
    cfg.seed = opt.base_seed;
    if (!opt.chaos.empty()) {
      // Named schedules scale with the cluster size and run length, so
      // they resolve per configuration. Manual --drop/--crash/... flags
      // (already in cfg.fault) survive only when no name is given.
      cfg.fault = fault::make_chaos_plan(opt.chaos, n,
                                         sim::SimTime{} + cfg.warmup,
                                         cfg.horizon());
    }
    return cfg;
  };
  // Reject bad input before any table output reaches stdout.
  for (const std::size_t n : opt.clients) {
    if (const std::string err = resolve_cfg(n).validate(); !err.empty()) {
      std::fprintf(stderr, "rtdbctl: invalid configuration: %s\n",
                   err.c_str());
      return 2;
    }
  }

  if (opt.csv) {
    std::puts(
        "system,clients,updates_pct,seeds,success_pct,generated,committed,"
        "missed,aborted,cache_hit_pct,obj_resp_sl_s,obj_resp_el_s,"
        "shipped,decomposed,fwd_satisfied,messages,violations");
  } else {
    std::printf("%-13s %8s %8s | %8s %9s %9s %8s %9s\n", "system", "clients",
                "updates", "success", "cachehit", "EL resp", "shipped",
                "messages");
  }

  const bool want_perf = opt.perf_report || !opt.perf_json.empty();
  if (want_perf) {
    perf::reset();
    obs::perf_enable_timing();
  }

  const bool want_telemetry =
      !opt.trace_out.empty() || !opt.metrics_out.empty();
  // Telemetry export covers the last run of the sweep: the last system's
  // instance is kept alive past its run() so the exporters can read it.
  std::unique_ptr<core::System> last_sys;
  core::MetricsAggregator last_agg;
  std::string last_label;

  for (const std::size_t n : opt.clients) {
    for (const auto kind : opt.systems) {
      core::SystemConfig cfg = resolve_cfg(n);
      if (want_telemetry) {
        cfg.telemetry.spans = true;
        cfg.telemetry.events = !opt.trace_out.empty();
        if (!opt.metrics_out.empty() || opt.sample_interval > 0) {
          cfg.telemetry.sample_interval =
              opt.sample_interval > 0 ? sim::seconds(opt.sample_interval)
                                      : sim::seconds(opt.duration / 100.0);
        }
      }
      core::MetricsAggregator agg;
      if (want_telemetry) {
        // Manual replication: run_replicated() destroys each system, but
        // the exporters need the final one.
        for (std::size_t s = 0; s < opt.seeds; ++s) {
          core::SystemConfig scfg = cfg;
          scfg.seed = opt.base_seed + s;
          last_sys = core::make_system(kind, scfg);
          agg.add(last_sys->run());
        }
        last_agg = agg;
        last_label = core::to_string(kind);
      } else {
        agg = core::run_replicated(kind, cfg, opt.seeds);
      }
      const auto& last = agg.last();
      if (opt.csv) {
        std::printf(
            "%s,%zu,%.2f,%zu,%.4f,%llu,%llu,%llu,%llu,%.4f,%.6f,%.6f,%llu,"
            "%llu,%llu,%llu,%llu\n",
            core::to_string(kind).c_str(), n, opt.updates, opt.seeds,
            agg.mean_success_percent(),
            static_cast<unsigned long long>(last.generated),
            static_cast<unsigned long long>(last.committed),
            static_cast<unsigned long long>(last.missed),
            static_cast<unsigned long long>(last.aborted),
            agg.mean_cache_hit_percent(),
            agg.mean_object_response_shared(),
            agg.mean_object_response_exclusive(),
            static_cast<unsigned long long>(last.shipped_txns),
            static_cast<unsigned long long>(last.decomposed_txns),
            static_cast<unsigned long long>(last.forward_list_satisfactions),
            static_cast<unsigned long long>(last.messages.total_messages()),
            static_cast<unsigned long long>(last.consistency_violations));
      } else {
        std::printf("%-13s %8zu %7.1f%% | %7.2f%% %8.2f%% %8.3fs %8llu %9llu\n",
                    core::to_string(kind).c_str(), n, opt.updates,
                    agg.mean_success_percent(), agg.mean_cache_hit_percent(),
                    agg.mean_object_response_exclusive(),
                    static_cast<unsigned long long>(last.shipped_txns),
                    static_cast<unsigned long long>(
                        last.messages.total_messages()));
      }
      std::fflush(stdout);
    }
  }

  if (last_sys) {
    if (!opt.trace_out.empty()) {
      std::ofstream os(opt.trace_out);
      if (!os) {
        std::fprintf(stderr, "cannot open %s\n", opt.trace_out.c_str());
        return 1;
      }
      const std::size_t num_sites = last_sys->config().num_clients + 1;
      if (opt.trace_format == "perfetto") {
        obs::write_perfetto(os, last_sys->telemetry(), num_sites,
                            last_sys->simulator().now());
      } else {
        obs::write_jsonl(os, last_sys->telemetry());
      }
      std::fprintf(stderr, "trace (%s): %s\n", opt.trace_format.c_str(),
                   opt.trace_out.c_str());
    }
    if (!opt.metrics_out.empty()) {
      std::ofstream os(opt.metrics_out);
      if (!os) {
        std::fprintf(stderr, "cannot open %s\n", opt.metrics_out.c_str());
        return 1;
      }
      core::write_metrics_json(os, last_label, last_agg,
                               &last_sys->telemetry());
      std::fprintf(stderr, "metrics: %s\n", opt.metrics_out.c_str());
    }
  }

  if (want_perf) {
    // The snapshot covers every run of the sweep (counters accumulate from
    // the reset above; timers were armed the whole time).
    const perf::Snapshot snap = perf::snapshot();
    if (opt.perf_report) {
      std::fflush(stdout);
      std::ostringstream report;
      obs::write_perf_text(report, snap);
      std::fputs(report.str().c_str(), stdout);
    }
    if (!opt.perf_json.empty()) {
      std::ofstream os(opt.perf_json);
      if (!os) {
        std::fprintf(stderr, "cannot open %s\n", opt.perf_json.c_str());
        return 1;
      }
      obs::write_perf_json(os, snap);
      std::fprintf(stderr, "perf: %s\n", opt.perf_json.c_str());
    }
    obs::perf_disable_timing();
  }
  return 0;
}
