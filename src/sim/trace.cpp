#include "sim/trace.hpp"

#include <cstdlib>
#include <cstring>
#include <ostream>

namespace rtdb::sim {

std::uint32_t TraceLog::enable_from_env() {
  const char* env = std::getenv("RTDB_TRACE");
  if (!env || !*env) return mask_;
  std::string spec(env);
  std::size_t pos = 0;
  while (pos < spec.size()) {
    auto comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    if (token == "all") {
      enable(TraceCategory::kAll);
    } else if (token == "lock") {
      enable(TraceCategory::kLock);
    } else if (token == "cache") {
      enable(TraceCategory::kCache);
    } else if (token == "net") {
      enable(TraceCategory::kNet);
    } else if (token == "txn") {
      enable(TraceCategory::kTxn);
    } else if (token == "window") {
      enable(TraceCategory::kWindow);
    } else if (token == "ship") {
      enable(TraceCategory::kShip);
    }
    pos = comma + 1;
  }
  return mask_;
}

void TraceLog::emit(SimTime time, TraceCategory category, SiteId site,
                    std::string text) {
  if (events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(Event{time, category, site, std::move(text)});
}

void TraceLog::emitf(SimTime time, TraceCategory category, SiteId site,
                     const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  emit(time, category, site, buf);
}

void TraceLog::dump(std::ostream& os, std::size_t last_n) const {
  std::size_t start = 0;
  if (last_n != 0 && last_n < events_.size()) {
    start = events_.size() - last_n;
  }
  for (std::size_t i = start; i < events_.size(); ++i) {
    const Event& e = events_[i];
    char head[64];
    std::snprintf(head, sizeof(head), "[%12.6f] %-6s s%-3d ", e.time.sec(),
                  name(e.category), e.site.value());
    os << head << e.text << '\n';
  }
}

const char* TraceLog::name(TraceCategory category) {
  switch (category) {
    case TraceCategory::kLock: return "lock";
    case TraceCategory::kCache: return "cache";
    case TraceCategory::kNet: return "net";
    case TraceCategory::kTxn: return "txn";
    case TraceCategory::kWindow: return "window";
    case TraceCategory::kShip: return "ship";
    case TraceCategory::kNone: return "none";
    case TraceCategory::kAll: return "all";
  }
  return "?";
}

}  // namespace rtdb::sim
