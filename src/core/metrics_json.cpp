#include "core/metrics_json.hpp"

#include <array>
#include <ostream>

#include "net/message.hpp"
#include "obs/export.hpp"

namespace rtdb::core {
namespace {

using obs::json_escape;
using obs::json_number;

/// Histogram bounds for response-time-like distributions: 100 µs .. 1000 s
/// covers every configuration the harness runs (40 log-spaced buckets).
constexpr double kHistLo = 1e-4;
constexpr double kHistHi = 1e3;
constexpr std::size_t kHistBuckets = 40;

void write_distribution(std::ostream& os, const char* name,
                        sim::SampleStats& s, bool last) {
  os << "    \"" << name << "\": {\"count\": " << s.count() << ", \"mean\": ";
  json_number(os, s.mean());
  os << ", \"min\": ";
  json_number(os, s.min());
  os << ", \"max\": ";
  json_number(os, s.max());
  os << ", \"p50\": ";
  json_number(os, s.quantile(0.5));
  os << ", \"p90\": ";
  json_number(os, s.quantile(0.9));
  os << ", \"p99\": ";
  json_number(os, s.quantile(0.99));
  const sim::Histogram h = s.log_histogram(kHistLo, kHistHi, kHistBuckets);
  os << ",\n      \"histogram\": {\"lo\": ";
  json_number(os, h.lo);
  os << ", \"hi\": ";
  json_number(os, h.hi);
  os << ", \"underflow\": " << h.underflow << ", \"overflow\": " << h.overflow
     << ",\n        \"edges\": [";
  for (std::size_t i = 0; i < h.edges.size(); ++i) {
    if (i) os << ", ";
    json_number(os, h.edges[i]);
  }
  os << "],\n        \"counts\": [";
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (i) os << ", ";
    os << h.counts[i];
  }
  os << "]}}" << (last ? "\n" : ",\n");
}

void write_message_table(std::ostream& os, const net::MessageStats& m) {
  os << "{\n";
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    const auto kind = static_cast<net::MessageKind>(k);
    os << "      \"" << net::to_string(kind)
       << "\": {\"messages\": " << m.messages(kind)
       << ", \"bytes\": " << m.bytes(kind) << "},\n";
  }
  os << "      \"total\": {\"messages\": " << m.total_messages()
     << ", \"bytes\": " << m.total_bytes() << "}\n    }";
}

void write_attribution_row(
    std::ostream& os, const char* name,
    const std::array<std::uint64_t, obs::kWaitBucketCount + 1>& row) {
  os << "      \"" << name << "\": {\"queue\": " << row[0]
     << ", \"lock\": " << row[1] << ", \"net\": " << row[2]
     << ", \"disk\": " << row[3] << ", \"none\": " << row[4] << "}";
}

void write_telemetry_section(std::ostream& os, const obs::Telemetry& tel,
                             const RunMetrics& last_run) {
  const obs::MissAttribution& at = tel.attribution();
  os << "  \"telemetry\": {\n";
  os << "    \"span_count\": " << tel.span_count() << ",\n";
  os << "    \"events_recorded\": " << tel.events().size() << ",\n";
  os << "    \"events_dropped\": " << tel.events_dropped() << ",\n";

  // Deadline-miss postmortem: dominant wait bucket per missed/aborted
  // transaction of the last run, reconciled against its outcome counters.
  os << "    \"miss_attribution\": {\n";
  write_attribution_row(os, "misses", at.misses);
  os << ",\n";
  write_attribution_row(os, "aborts", at.aborts);
  os << ",\n      \"unattributed\": " << at.unattributed
     << ",\n      \"total\": " << at.total()
     << ",\n      \"expected_total\": " << (last_run.missed + last_run.aborted)
     << ",\n      \"reconciles\": "
     << (at.total() == last_run.missed + last_run.aborted ? "true" : "false")
     << "\n    },\n";

  os << "    \"top_blockers\": [";
  const auto blockers = tel.top_blockers(10);
  for (std::size_t i = 0; i < blockers.size(); ++i) {
    const obs::BlockerRow& b = blockers[i];
    os << (i ? ",\n      " : "\n      ") << "{\"object\": " << b.object
       << ", \"holder\": " << b.holder << ", \"txns\": " << b.txns
       << ", \"total_wait\": ";
    json_number(os, b.total_wait);
    os << "}";
  }
  os << (blockers.empty() ? "],\n" : "\n    ],\n");

  os << "    \"sample_interval\": ";
  json_number(os, tel.config().sample_interval.sec());
  os << ",\n    \"sample_times\": [";
  const auto& times = tel.sample_times();
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (i) os << ", ";
    json_number(os, times[i].sec());
  }
  os << "],\n    \"series\": {";
  const auto& series = tel.series();
  for (std::size_t i = 0; i < series.size(); ++i) {
    os << (i ? ",\n      " : "\n      ") << "\"";
    json_escape(os, series[i].name.c_str());
    os << "\": [";
    for (std::size_t j = 0; j < series[i].values.size(); ++j) {
      if (j) os << ", ";
      json_number(os, series[i].values[j]);
    }
    os << "]";
  }
  os << (series.empty() ? "}\n" : "\n    }\n");
  os << "  }\n";
}

}  // namespace

void write_metrics_json(std::ostream& os, const std::string& system,
                        MetricsAggregator& agg, const obs::Telemetry* tel) {
  const RunMetrics& last = agg.last();
  os << "{\n  \"system\": \"";
  json_escape(os, system.c_str());
  os << "\",\n  \"runs\": " << agg.runs() << ",\n";

  os << "  \"summary\": {\"success_percent\": ";
  json_number(os, agg.mean_success_percent());
  os << ", \"success_percent_stddev\": ";
  json_number(os, agg.stddev_success_percent());
  os << ", \"cache_hit_percent\": ";
  json_number(os, agg.mean_cache_hit_percent());
  os << ", \"object_response_shared\": ";
  json_number(os, agg.mean_object_response_shared());
  os << ", \"object_response_exclusive\": ";
  json_number(os, agg.mean_object_response_exclusive());
  os << "},\n";

  os << "  \"totals\": {\"generated\": " << agg.total_generated()
     << ", \"committed\": " << agg.total_committed()
     << ", \"missed\": " << agg.total_missed()
     << ", \"aborted\": " << agg.total_aborted() << "},\n";

  // The last seed's run, verbatim — the counters the paper tables use.
  os << "  \"last_run\": {\n"
     << "    \"generated\": " << last.generated
     << ", \"committed\": " << last.committed
     << ", \"missed\": " << last.missed << ", \"aborted\": " << last.aborted
     << ",\n    \"success_percent\": ";
  json_number(os, last.success_percent());
  os << ",\n    \"shipped_txns\": " << last.shipped_txns
     << ", \"h1_ships\": " << last.h1_ships
     << ", \"h2_ships\": " << last.h2_ships
     << ", \"h1_rejections\": " << last.h1_rejections
     << ",\n    \"decomposed_txns\": " << last.decomposed_txns
     << ", \"subtasks_spawned\": " << last.subtasks_spawned
     << ",\n    \"cache_hits\": " << last.cache_hits
     << ", \"cache_misses\": " << last.cache_misses
     << ",\n    \"forward_list_satisfactions\": "
     << last.forward_list_satisfactions
     << ", \"expired_requests_skipped\": " << last.expired_requests_skipped
     << ",\n    \"deadlock_refusals\": " << last.deadlock_refusals
     << ", \"consistency_violations\": " << last.consistency_violations
     << ",\n    \"occ_validations\": " << last.occ_validations
     << ", \"occ_rejections\": " << last.occ_rejections
     << ",\n    \"server_cpu_utilization\": ";
  json_number(os, last.server_cpu_utilization);
  os << ", \"server_disk_utilization\": ";
  json_number(os, last.server_disk_utilization);
  os << ", \"network_utilization\": ";
  json_number(os, last.network_utilization);
  os << ",\n    \"messages\": ";
  write_message_table(os, last.messages);
  os << "\n  },\n";

  os << "  \"message_totals\": ";
  write_message_table(os, agg.message_totals());
  os << ",\n";

  os << "  \"distributions\": {\n";
  write_distribution(os, "response_time", agg.merged_response_time(), false);
  write_distribution(os, "commit_slack", agg.merged_commit_slack(), false);
  write_distribution(os, "object_response_shared",
                     agg.merged_object_response_shared(), false);
  write_distribution(os, "object_response_exclusive",
                     agg.merged_object_response_exclusive(), true);
  os << "  },\n";

  if (tel) {
    write_telemetry_section(os, *tel, last);
  } else {
    os << "  \"telemetry\": null\n";
  }
  os << "}\n";
}

}  // namespace rtdb::core
