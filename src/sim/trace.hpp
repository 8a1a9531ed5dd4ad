#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iosfwd>
#include <string>

#include "common/ids.hpp"
#include "sim/time.hpp"

/// \file trace.hpp
/// Structured event tracing for simulations. Every interesting protocol
/// step (grants, recalls, windows, ships, commits) can emit
/// a timestamped event into a bounded ring; tests assert on sequences and
/// humans dump the tail when a run misbehaves. Disabled categories cost
/// one branch per call site.
///
/// Enable programmatically (`trace.enable(TraceCategory::kLock)`) or via
/// the environment: `RTDB_TRACE=lock,cache,txn` (or `all`).

namespace rtdb::sim {

/// Event categories (bitmask).
enum class TraceCategory : std::uint32_t {
  kNone = 0,
  kLock = 1u << 0,     ///< grants, recalls, returns, deadlocks
  kCache = 1u << 1,    ///< insertions, evictions, hits
  kNet = 1u << 2,      ///< message send/deliver
  kTxn = 1u << 3,      ///< lifecycle: admit, ready, commit, miss
  kWindow = 1u << 4,   ///< collection windows, forward lists
  kShip = 1u << 5,     ///< transaction shipping / decomposition
  kAll = 0xffffffffu,
};

constexpr std::uint32_t operator|(TraceCategory a, TraceCategory b) {
  return static_cast<std::uint32_t>(a) | static_cast<std::uint32_t>(b);
}

/// Bounded in-memory event log.
class TraceLog {
 public:
  /// One recorded event.
  struct Event {
    SimTime time{};
    TraceCategory category = TraceCategory::kNone;
    SiteId site = kInvalidSite;  ///< emitting site (kInvalidSite = system)
    std::string text;
  };

  explicit TraceLog(std::size_t capacity = 65536) : capacity_(capacity) {}

  /// Enables categories (adds to the current mask).
  void enable(TraceCategory category) {
    mask_ |= static_cast<std::uint32_t>(category);
  }
  void enable_mask(std::uint32_t mask) { mask_ |= mask; }
  void disable_all() { mask_ = 0; }

  /// Applies `RTDB_TRACE` (comma-separated category names or "all").
  /// Returns the resulting mask.
  std::uint32_t enable_from_env();

  /// Cheap per-call-site check.
  [[nodiscard]] bool enabled(TraceCategory category) const {
    return (mask_ & static_cast<std::uint32_t>(category)) != 0;
  }
  [[nodiscard]] bool active() const { return mask_ != 0; }

  /// Records an event (call only when enabled(category)).
  void emit(SimTime time, TraceCategory category, SiteId site,
            std::string text);

  /// printf-style convenience.
  void emitf(SimTime time, TraceCategory category, SiteId site,
             const char* fmt, ...) __attribute__((format(printf, 5, 6)));

  [[nodiscard]] const std::deque<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Writes the last `last_n` events (0 = all retained) to `os`.
  void dump(std::ostream& os, std::size_t last_n = 0) const;

  /// Name of a single category ("lock", "cache", ...).
  static const char* name(TraceCategory category);

 private:
  std::size_t capacity_;
  std::uint32_t mask_ = 0;
  std::deque<Event> events_;
  std::size_t dropped_ = 0;
};

}  // namespace rtdb::sim
