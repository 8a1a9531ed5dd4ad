#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "net/message.hpp"
#include "sim/stats.hpp"

/// \file metrics.hpp
/// Everything one experiment run reports: the paper's headline metric
/// (percentage of transactions completed within their deadlines, Figs 3-5),
/// cache hit rates (Table 2), object response times by lock type (Table 3),
/// and per-kind message counts (Table 4), plus diagnostics.

namespace rtdb::core {

/// Aggregated results of a single run (measurement phase only).
struct RunMetrics {
  // --- transactions ---------------------------------------------------------
  std::uint64_t generated = 0;   ///< measured transactions submitted
  std::uint64_t committed = 0;   ///< finished within their deadline
  std::uint64_t missed = 0;      ///< dropped: deadline passed
  std::uint64_t aborted = 0;     ///< refused (deadlock) or sub-task failure

  /// The paper's headline number: % of transactions completed in deadline.
  [[nodiscard]] double success_percent() const {
    return generated
               ? 100.0 * static_cast<double>(committed) /
                     static_cast<double>(generated)
               : 0.0;
  }

  /// Response time (arrival -> commit) of successful transactions.
  sim::SampleStats response_time;

  /// Slack remaining at commit (deadline - commit time).
  sim::SampleStats commit_slack;

  // --- transaction shipping / decomposition (LS) ---------------------------
  std::uint64_t shipped_txns = 0;       ///< transactions sent to other sites
  std::uint64_t h1_ships = 0;           ///< ships triggered by H1 (overload)
  std::uint64_t h2_ships = 0;           ///< ships triggered by H2 (conflicts)
  std::uint64_t decomposed_txns = 0;    ///< transactions split into sub-tasks
  std::uint64_t subtasks_spawned = 0;
  std::uint64_t h1_rejections = 0;      ///< H1 said "cannot finish here"

  // --- caching (Table 2) -----------------------------------------------------
  std::uint64_t cache_hits = 0;    ///< summed over clients (both tiers)
  std::uint64_t cache_misses = 0;

  [[nodiscard]] double cache_hit_percent() const {
    const auto total = cache_hits + cache_misses;
    return total ? 100.0 * static_cast<double>(cache_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }

  // --- object response times (Table 3) ---------------------------------------
  /// Client-observed time from sending an object request to having the
  /// object/lock available, split by requested mode.
  sim::SampleStats object_response_shared;
  sim::SampleStats object_response_exclusive;

  // --- messages (Table 4) -----------------------------------------------------
  net::MessageStats messages;

  /// Object requests satisfied by a client-to-client forward (Table 4 row
  /// "Object Requests Satisfied Using Forward Lists").
  std::uint64_t forward_list_satisfactions = 0;

  /// Queue entries dropped because their transaction had already missed.
  std::uint64_t expired_requests_skipped = 0;

  // --- server / resources -----------------------------------------------------
  double server_cpu_utilization = 0;  ///< CE overhead CPU or CS msg CPU
  double network_utilization = 0;
  double server_disk_utilization = 0;
  std::uint64_t deadlock_refusals = 0;

  /// Consistency-audit outcome over the whole run (warm-up included):
  /// lost updates + stale reads + divergent copies. Must be zero.
  std::uint64_t consistency_violations = 0;

  // --- optimistic extension (OCC-CS-RTDBS) -----------------------------------
  std::uint64_t occ_validations = 0;  ///< commit-time validations performed
  std::uint64_t occ_rejections = 0;   ///< validations that failed (restarts)

  /// Sanity: generated == committed + missed + aborted once drained.
  [[nodiscard]] bool accounted() const {
    return generated == committed + missed + aborted;
  }
};

/// Pools metrics across replicated runs (different seeds): counters sum,
/// message tables sum, sample stats merge; per-run ratios average.
class MetricsAggregator {
 public:
  void add(const RunMetrics& run);
  [[nodiscard]] std::size_t runs() const { return runs_; }

  /// Mean success percentage across runs (unweighted, like the paper's
  /// repeated-run averages).
  [[nodiscard]] double mean_success_percent() const;
  [[nodiscard]] double stddev_success_percent() const;
  [[nodiscard]] double mean_cache_hit_percent() const;
  [[nodiscard]] double mean_object_response_shared() const;
  [[nodiscard]] double mean_object_response_exclusive() const;

  /// The last run added — kept verbatim for paper-table parity (the paper
  /// reports message tables for a single run).
  [[nodiscard]] const RunMetrics& last() const { return last_; }

  // --- cross-seed merges ----------------------------------------------------

  /// Per-kind message counts summed over every added run (Table 4 across
  /// seeds), unlike last() which is one run.
  [[nodiscard]] const net::MessageStats& message_totals() const {
    return message_totals_;
  }

  /// Outcome counters summed over every added run.
  [[nodiscard]] std::uint64_t total_generated() const { return generated_; }
  [[nodiscard]] std::uint64_t total_committed() const { return committed_; }
  [[nodiscard]] std::uint64_t total_missed() const { return missed_; }
  [[nodiscard]] std::uint64_t total_aborted() const { return aborted_; }

  /// Sample distributions pooled over every added run — quantiles and
  /// histograms over all seeds, not just the last one.
  [[nodiscard]] sim::SampleStats& merged_response_time() {
    return response_time_;
  }
  [[nodiscard]] sim::SampleStats& merged_commit_slack() {
    return commit_slack_;
  }
  [[nodiscard]] sim::SampleStats& merged_object_response_shared() {
    return obj_resp_shared_all_;
  }
  [[nodiscard]] sim::SampleStats& merged_object_response_exclusive() {
    return obj_resp_exclusive_all_;
  }

 private:
  std::size_t runs_ = 0;
  sim::MeanAccumulator success_;
  sim::MeanAccumulator cache_hit_;
  sim::MeanAccumulator obj_resp_shared_;
  sim::MeanAccumulator obj_resp_exclusive_;
  net::MessageStats message_totals_;
  std::uint64_t generated_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t missed_ = 0;
  std::uint64_t aborted_ = 0;
  sim::SampleStats response_time_;
  sim::SampleStats commit_slack_;
  sim::SampleStats obj_resp_shared_all_;
  sim::SampleStats obj_resp_exclusive_all_;
  RunMetrics last_;
};

/// Human-readable one-line summary (used by examples and debugging).
std::string summarize(const RunMetrics& m);

}  // namespace rtdb::core
