#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

#include "net/message.hpp"

namespace rtdb::obs {

namespace {

/// Perfetto pids are 1-based (pid 0 reads as "no process"): pid = site + 1.
int pid_of(SiteId site) { return site.value() + 1; }

double usec_of(sim::SimTime t) { return t.sec() * 1e6; }

/// One trace_event object. `extra` (optional) is raw JSON appended into the
/// args object.
void emit_meta(std::ostream& os, bool& first, const char* name, int pid,
               const std::string& value) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":")" << name << R"(","ph":"M","pid":)" << pid
     << R"(,"tid":1,"args":{"name":")";
  json_escape(os, value.c_str());
  os << "\"}}";
}

void emit_async(std::ostream& os, bool& first, char phase, const char* name,
                int pid, std::uint64_t id, double ts_us,
                const std::string& args_json) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"cat":"txn","name":")" << name << R"(","ph":")" << phase
     << R"(","pid":)" << pid << R"(,"tid":1,"id":)" << id << R"(,"ts":)";
  json_number(os, ts_us);
  if (!args_json.empty()) os << R"(,"args":{)" << args_json << "}";
  os << "}";
}

void emit_instant(std::ostream& os, bool& first, const Event& e) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"cat":"event","name":")" << to_string(e.kind);
  if (e.kind == EventKind::kMsgSend) {
    os << " " << net::to_string(static_cast<net::MessageKind>(e.b));
  }
  os << R"(","ph":"i","s":"p","pid":)" << pid_of(e.site)
     << R"(,"tid":1,"ts":)";
  json_number(os, usec_of(e.t));
  os << R"(,"args":{"txn":)" << e.txn << R"(,"obj":)" << e.object
     << R"(,"a":)" << e.a << R"(,"b":)" << e.b << R"(,"v":)";
  json_number(os, e.v);
  os << "}}";
}

void emit_counter(std::ostream& os, bool& first, const char* name,
                  double ts_us, double value) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"cat":"gauge","name":")";
  json_escape(os, name);
  os << R"(","ph":"C","pid":1,"tid":1,"ts":)";
  json_number(os, ts_us);
  os << R"(,"args":{"value":)";
  json_number(os, value);
  os << "}}";
}

std::string span_args(const TxnSpan& s, bool unfinished) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                R"("deadline_us":%.3f,"outcome":"%s","hops":%u,)"
                R"("restarts":%u,"unfinished":%s)",
                usec_of(s.deadline), to_string(s.outcome), s.hops, s.restarts,
                unfinished ? "true" : "false");
  return buf;
}

}  // namespace

void json_escape(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << static_cast<char>(c);
        }
    }
  }
}

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

void write_perfetto(std::ostream& os, const Telemetry& tel,
                    std::size_t num_sites, sim::SimTime end_time) {
  os << "{\"traceEvents\":[\n";
  bool first = true;

  for (std::size_t site = 0; site < num_sites; ++site) {
    std::string label = site == 0 ? "server" : "client " + std::to_string(site);
    emit_meta(os, first, "process_name",
              pid_of(SiteId{static_cast<SiteId::Rep>(site)}),
              label);
  }

  // Transaction lifecycle spans: nestable async slices on the origin site's
  // track. Phase children ("acquire"/"ready"/"run") nest inside the
  // outermost "txn" slice.
  for (const TxnSpan* s : tel.spans_sorted()) {
    const int pid = pid_of(s->origin);
    const bool unfinished = s->end < sim::SimTime::zero();
    const double t0 = usec_of(s->admit >= sim::SimTime::zero() ? s->admit : s->arrival);
    const double t_end = usec_of(unfinished ? end_time : s->end);
    char name[48];
    std::snprintf(name, sizeof name, "txn %llu",
                  static_cast<unsigned long long>(s->id.value()));
    emit_async(os, first, 'b', name, pid, s->id.value(), t0,
               span_args(*s, unfinished));

    const double t_ready =
        s->first_ready >= sim::SimTime::zero() ? usec_of(s->first_ready)
                                               : t_end;
    const double t_exec =
        s->first_exec >= sim::SimTime::zero() ? usec_of(s->first_exec) : t_end;
    if (t_ready > t0) {
      emit_async(os, first, 'b', "acquire", pid, s->id.value(), t0, "");
      emit_async(os, first, 'e', "acquire", pid, s->id.value(), t_ready, "");
    }
    if (s->first_ready >= sim::SimTime::zero() && t_exec > t_ready) {
      emit_async(os, first, 'b', "ready", pid, s->id.value(), t_ready, "");
      emit_async(os, first, 'e', "ready", pid, s->id.value(), t_exec, "");
    }
    if (s->first_exec >= sim::SimTime::zero() && t_end > t_exec) {
      emit_async(os, first, 'b', "run", pid, s->id.value(), t_exec, "");
      emit_async(os, first, 'e', "run", pid, s->id.value(), t_end, "");
    }
    emit_async(os, first, 'e', name, pid, s->id.value(), t_end, "");
  }

  for (const Event& e : tel.events()) emit_instant(os, first, e);

  const auto& times = tel.sample_times();
  for (const auto& series : tel.series()) {
    for (std::size_t i = 0; i < times.size() && i < series.values.size();
         ++i) {
      emit_counter(os, first, series.name.c_str(), usec_of(times[i]),
                   series.values[i]);
    }
  }

  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_jsonl(std::ostream& os, const Telemetry& tel,
                 std::uint32_t categories) {
  for (const Event& e : tel.events()) {
    if ((categories & static_cast<std::uint32_t>(category_of(e.kind))) == 0) {
      continue;
    }
    os << R"({"record":"event","t_us":)";
    json_number(os, usec_of(e.t));
    os << R"(,"kind":")" << to_string(e.kind) << R"(","site":)" << e.site
       << R"(,"txn":)" << e.txn << R"(,"obj":)" << e.object << R"(,"a":)"
       << e.a << R"(,"b":)" << e.b << R"(,"v":)";
    json_number(os, e.v);
    if (e.kind == EventKind::kMsgSend) {
      os << R"(,"msg":")"
         << net::to_string(static_cast<net::MessageKind>(e.b)) << "\"";
    }
    os << "}\n";
  }
  for (const TxnSpan* s : tel.spans_sorted()) {
    os << R"({"record":"span","txn":)" << s->id << R"(,"origin":)"
       << s->origin << R"(,"arrival":)";
    json_number(os, s->arrival.sec());
    os << R"(,"deadline":)";
    json_number(os, s->deadline.sec());
    os << R"(,"admit":)";
    json_number(os, s->admit.sec());
    os << R"(,"first_ready":)";
    json_number(os, s->first_ready.sec());
    os << R"(,"first_exec":)";
    json_number(os, s->first_exec.sec());
    os << R"(,"end":)";
    json_number(os, s->end.sec());
    os << R"(,"outcome":")" << to_string(s->outcome)
       << R"(","wait_queue":)";
    json_number(os, s->wait[0]);
    os << R"(,"wait_lock":)";
    json_number(os, s->wait[1]);
    os << R"(,"wait_net":)";
    json_number(os, s->wait[2]);
    os << R"(,"wait_disk":)";
    json_number(os, s->wait[3]);
    os << R"(,"worst_object":)" << s->worst_object << R"(,"worst_holder":)"
       << s->worst_holder << R"(,"worst_wait":)";
    json_number(os, s->worst_object_wait);
    os << R"(,"hops":)" << s->hops << R"(,"restarts":)" << s->restarts
       << "}\n";
  }
}

}  // namespace rtdb::obs
