#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "obs/telemetry.hpp"

/// \file export.hpp
/// Trace exporters for the telemetry layer.
///
///  * write_perfetto() — Chrome/Perfetto `trace_event` JSON: one process
///    ("track") per site, transaction lifecycle spans as nestable async
///    slices, typed events as instants, gauge series as counter tracks.
///    Open the file directly in https://ui.perfetto.dev.
///  * write_jsonl() — one JSON object per line: the typed events of the
///    selected categories, then one summary line per transaction span
///    (machine-friendly dump; `grep '"txn":<id>,'` gives one transaction).
///
/// Timestamps are sim-time microseconds in both formats.

namespace rtdb::obs {

/// Writes a Perfetto-loadable trace. `num_sites` covers site ids
/// [0, num_sites): site 0 is the server, the rest are clients. Spans still
/// open at `end_time` are closed there and flagged unfinished.
void write_perfetto(std::ostream& os, const Telemetry& tel,
                    std::size_t num_sites, sim::SimTime end_time);

/// Writes the structured JSONL dump (events, then span summaries). Only
/// events whose category_of() bit is set in `categories` are written.
void write_jsonl(std::ostream& os, const Telemetry& tel,
                 std::uint32_t categories = kAllCategories);

/// Escapes a string for embedding in a JSON string literal (exposed for the
/// metrics exporter and tests).
void json_escape(std::ostream& os, const char* s);

/// Writes a double as a JSON number (non-finite values become 0).
void json_number(std::ostream& os, double v);

}  // namespace rtdb::obs
