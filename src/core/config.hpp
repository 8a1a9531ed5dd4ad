#pragma once

#include <cstdint>
#include <string>

#include "fault/fault.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "sim/time.hpp"
#include "storage/client_cache.hpp"
#include "storage/paged_file.hpp"
#include "workload/generator.hpp"

/// \file config.hpp
/// One configuration struct per run, covering all three system models.
/// Defaults reproduce the paper's Table 1; the handful of parameters the
/// paper does not pin down (CPU overheads, disk service time, LAN latency)
/// are the calibration knobs documented in DESIGN.md §7 / EXPERIMENTS.md.

namespace rtdb::core {

/// Which prototype to run.
enum class SystemKind : std::uint8_t {
  kCentralized,   ///< CE-RTDBS
  kClientServer,  ///< CS-RTDBS (object shipping + callback locking)
  kLoadSharing,   ///< LS-CS-RTDBS (CS + the paper's techniques)
  kOptimistic,    ///< OCC-CS-RTDBS (the paper's future-work extension)
};

std::string to_string(SystemKind kind);

/// The load-sharing techniques, individually toggleable (all on = the
/// paper's LS-CS-RTDBS; all off = the basic CS-RTDBS). Individual toggles
/// drive the ablation benches.
struct LsOptions {
  /// H1: admission by observed average transaction latency (paper §4).
  bool enable_h1 = false;

  /// H2: site selection by fewest conflicting locks (paper §4).
  bool enable_h2 = false;

  /// Transaction decomposition for the 10 % decomposable stream (§3.2).
  bool enable_decomposition = false;

  /// Lock grouping / forward lists (§3.4).
  bool enable_forward_lists = false;

  /// Deadline-ordered object request service at the server (§3.3);
  /// off = FCFS (the basic CS behaviour).
  bool ed_request_scheduling = false;

  /// Length of the lock-grouping collection window.
  sim::Duration collection_window = sim::seconds(0.5);

  /// Cap on the exclusive run of one forward list. Writers hold the object
  /// for whole transaction executions, so an uncapped chain makes any
  /// request arriving mid-circulation wait for every remaining hop —
  /// a short cap keeps the grouping win while bounding that inversion.
  std::size_t max_exclusive_hops = 2;

  /// Serve the shared run of a forward list as chained receipt-time copy
  /// fan-out (paper §3.4: "appropriate information can also be placed in
  /// the forward list to indicate parallel read-only access to data").
  /// Without it, forward lists group only exclusive runs.
  bool parallel_shared_grants = true;

  /// Everything on — the paper's LS-CS-RTDBS.
  static LsOptions all() {
    LsOptions o;
    o.enable_h1 = o.enable_h2 = o.enable_decomposition =
        o.enable_forward_lists = o.ed_request_scheduling = true;
    return o;
  }

  /// Everything off — the basic CS-RTDBS.
  static LsOptions none() { return LsOptions{}; }
};

/// Knobs of the optimistic (OCC) extension — see optimistic.hpp.
struct OccOptions {
  /// Pause before re-executing an invalidated transaction.
  sim::Duration restart_backoff = sim::msec(10);

  /// Give up after this many invalidations (the deadline usually gives out
  /// first; this is a livelock backstop).
  std::uint32_t max_restarts = 64;
};

/// Full experiment configuration.
struct SystemConfig {
  // --- cluster ------------------------------------------------------------
  std::size_t num_clients = 20;
  std::uint64_t seed = 42;

  // --- run control ----------------------------------------------------------
  /// Start warm: each client begins with its region cached under shared
  /// locks (the steady state of inter-transaction caching) and the server
  /// buffer preloaded. The warm-up phase then only has to settle dynamics,
  /// not fill caches from zero.
  bool warm_start = true;
  /// Warm-up phase: caches/locks settle; nothing is counted.
  sim::Duration warmup = sim::seconds(200);
  /// Measurement phase: transactions arriving in it are counted.
  sim::Duration duration = sim::seconds(2000);
  /// Extra time allowed for measured transactions to drain afterwards.
  sim::Duration drain = sim::seconds(300);

  // --- workload (Table 1) ----------------------------------------------------
  workload::WorkloadConfig workload;

  // --- network ----------------------------------------------------------------
  net::NetworkConfig network;

  // --- centralized server (CE-RTDBS) -------------------------------------------
  /// Main-memory capacity: 5,000 objects (Table 1).
  std::size_t ce_buffer_capacity = 5000;
  /// "As many as one hundred transactions simultaneously" (paper §5.1).
  std::size_t ce_executor_slots = 100;
  /// Serial per-transaction server CPU overhead (parsing, thread and lock
  /// management, logging across ~100 concurrent threads). Calibration
  /// knob: sets where the CE saturates (see EXPERIMENTS.md).
  sim::Duration ce_txn_overhead = sim::msec(250);

  // --- client-server models ------------------------------------------------
  /// CS/LS server main memory: 1,000 objects (Table 1).
  std::size_t cs_server_buffer_capacity = 1000;
  /// Client cache: 500 memory + 500 disk objects (Table 1).
  storage::ClientCacheConfig client_cache;
  /// Serial server CPU cost per protocol message handled.
  sim::Duration server_msg_overhead = sim::msec(1.0);
  /// Client CPU cost per protocol message handled.
  sim::Duration client_msg_overhead = sim::msec(0.3);
  /// Concurrent transactions a client workstation executes (the prototypes
  /// are multi-threaded; execution is a wall-clock spin, so threads
  /// overlap). Queueing beyond this level is governed by the local ED
  /// scheduler.
  std::size_t client_executor_slots = 2;
  /// Disk parameters of the server's paged file.
  storage::DiskConfig server_disk;
  /// Memory access time of the server's buffer pool.
  sim::Duration server_memory_access = sim::usec(50);

  // --- concurrency control ---------------------------------------------------
  /// A transaction refused by the wait-for-graph admission test restarts
  /// after this backoff (with attempt scaling) instead of dying, as long
  /// as retries and its deadline allow. Deadlock victims in 2PL systems
  /// are classically restarted; aborting outright turns every refusal
  /// avalanche under high update rates into missed deadlines.
  sim::Duration deadlock_backoff = sim::msec(50);
  std::uint32_t deadlock_retries = 3;

  // --- invariant auditing -----------------------------------------------------
  /// Run every subsystem's validate_invariants() after this many simulator
  /// events. 0 = automatic: on (every 1024 events) when the expensive
  /// debug-check tier is compiled in (Debug or sanitizer builds — see
  /// common/check.hpp), off otherwise. The RTDB_AUDIT_INTERVAL environment
  /// variable overrides both.
  std::uint64_t audit_interval = 0;

  // --- telemetry ---------------------------------------------------------------
  /// What the obs layer records (spans, typed events, gauge sampling); all
  /// off by default — recording is passive and cannot change run outcomes,
  /// but the memory is only spent when asked for (rtdbctl --trace-out /
  /// --metrics-out set these).
  obs::TelemetryConfig telemetry;

  // --- load sharing -----------------------------------------------------------
  LsOptions ls;

  // --- optimistic extension ----------------------------------------------------
  OccOptions occ;

  // --- fault injection ---------------------------------------------------------
  /// Deterministic chaos schedule (src/fault). Empty (the default) installs
  /// nothing: runs stay byte-identical to a fault-free build. Non-empty
  /// plans arm the recovery machinery (timeouts, retransmission, orphan
  /// reclamation, forward-list repair) in every prototype.
  fault::FaultPlan fault;

  /// Convenience: the horizon the simulation runs to (runs start at t=0).
  [[nodiscard]] sim::SimTime horizon() const {
    return sim::SimTime::zero() + warmup + duration + drain;
  }

  /// Absolute start/end of the measurement window.
  [[nodiscard]] sim::SimTime measure_start() const {
    return sim::SimTime::zero() + warmup;
  }
  [[nodiscard]] sim::SimTime measure_end() const {
    return measure_start() + duration;
  }

  /// Table-1 defaults for the given update percentage (1, 5 or 20).
  static SystemConfig paper_defaults(double update_percent);

  /// Returns an empty string when the configuration is runnable, else a
  /// human-readable description of the first problem (zero clients,
  /// non-positive durations, invalid network or fault parameters).
  /// rtdbctl prints the message and exits non-zero instead of running a
  /// nonsense simulation.
  [[nodiscard]] std::string validate() const;
};

}  // namespace rtdb::core
