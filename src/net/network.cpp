#include "net/network.hpp"

#include <algorithm>

#include "common/perf.hpp"

namespace rtdb::net {

std::string_view to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kObjectRequest: return "ObjectRequest";
    case MessageKind::kObjectShip: return "ObjectShip";
    case MessageKind::kObjectForward: return "ObjectForward";
    case MessageKind::kObjectRecall: return "ObjectRecall";
    case MessageKind::kObjectReturn: return "ObjectReturn";
    case MessageKind::kLockGrant: return "LockGrant";
    case MessageKind::kTxnSubmit: return "TxnSubmit";
    case MessageKind::kTxnShip: return "TxnShip";
    case MessageKind::kTxnResult: return "TxnResult";
    case MessageKind::kSubtaskShip: return "SubtaskShip";
    case MessageKind::kSubtaskResult: return "SubtaskResult";
    case MessageKind::kLocationQuery: return "LocationQuery";
    case MessageKind::kLocationReply: return "LocationReply";
    case MessageKind::kValidateRequest: return "ValidateRequest";
    case MessageKind::kValidateReply: return "ValidateReply";
    case MessageKind::kControl: return "Control";
    case MessageKind::kLockReassert: return "LockReassert";
    case MessageKind::kReassertAck: return "ReassertAck";
    case MessageKind::kKindCount: break;
  }
  return "Unknown";
}

std::uint64_t MessageStats::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.messages;
  return total;
}

std::uint64_t MessageStats::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.bytes;
  return total;
}

std::string NetworkConfig::validate() const {
  if (!(bandwidth_bps > 0)) {
    return "network.bandwidth_bps must be positive";
  }
  if (fixed_latency < sim::Duration::zero()) {
    return "network.fixed_latency must be non-negative";
  }
  if (directory_delay < sim::Duration::zero()) {
    return "network.directory_delay must be non-negative";
  }
  return {};
}

sim::SimTime Network::occupy_wire(sim::Duration tx) {
  const sim::SimTime start = std::max(sim_.now(), wire_free_at_);
  wire_free_at_ = start + tx;
  busy_accum_ += tx;
  return wire_free_at_;
}

std::uint64_t Network::default_bytes(MessageKind kind) const {
  switch (kind) {
    case MessageKind::kObjectShip:
    case MessageKind::kObjectForward:
    case MessageKind::kObjectReturn:
      return config_.object_bytes;
    case MessageKind::kTxnSubmit:
    case MessageKind::kTxnShip:
    case MessageKind::kSubtaskShip:
      return config_.txn_bytes;
    case MessageKind::kTxnResult:
    case MessageKind::kSubtaskResult:
      return config_.result_bytes;
    case MessageKind::kLocationReply:
      return 4 * config_.control_bytes;  // holders + load table
    case MessageKind::kObjectRequest:
    case MessageKind::kObjectRecall:
    case MessageKind::kLockGrant:
    case MessageKind::kLocationQuery:
    case MessageKind::kValidateRequest:
    case MessageKind::kValidateReply:
    case MessageKind::kControl:
    case MessageKind::kLockReassert:
    case MessageKind::kReassertAck:
    case MessageKind::kKindCount:
      return config_.control_bytes;
  }
  return config_.control_bytes;
}

sim::SimTime Network::send_raw(SiteId src, SiteId dst, MessageKind kind,
                               std::uint64_t payload_bytes,
                               sim::Simulator::Callback on_delivery) {
  RTDB_PERF_TIMER(kNetSend);
  RTDB_PERF_ALLOC_SCOPE(kNet);
  if (src == dst) {
    // Loopback: same-site "delivery" costs only a scheduling epsilon and is
    // never counted as wire traffic.
    RTDB_PERF_COUNT(kNetLoopbackSends);
    const sim::SimTime when = sim_.now() + sim::kTimeEpsilon;
    // rtdb-lint: allow(hot-path-alloc) scheduling reuses slab/heap slots
    // after warm-up; growth only to high-water (census: zero steady-state)
    if (on_delivery) sim_.at(when, std::move(on_delivery));
    return when;
  }

  const std::uint64_t frame = payload_bytes + config_.header_bytes;
  RTDB_PERF_COUNT(kNetMessages);
  RTDB_PERF_ADD(kNetBytes, frame);
  const bool client_to_client =
      src != kServerSite && dst != kServerSite;

  stats_.record(kind, frame);
  if (send_hook_) send_hook_(src, dst, kind, frame);

  // First hop (or only hop): source -> destination/directory.
  sim::SimTime done = occupy_wire(tx_time(frame));
  sim::SimTime delivery = done + config_.fixed_latency;

  if (client_to_client) {
    // The directory server relays the frame: a second wire occupancy that
    // cannot start before the first hop finished.
    const sim::SimTime start = std::max(delivery + config_.directory_delay,
                                        wire_free_at_);
    wire_free_at_ = start + tx_time(frame);
    busy_accum_ += tx_time(frame);
    delivery = wire_free_at_ + config_.fixed_latency;
  }

  if (fault_ != nullptr) {
    const FaultVerdict v = fault_->judge(src, dst, kind, sim_.now());
    if (v.duplicate) {
      // A second copy of the frame crosses the wire (counted, occupies the
      // segment); receiver-side sequence dedup discards it on arrival.
      stats_.record(kind, frame);
      if (send_hook_) send_hook_(src, dst, kind, frame);
      const sim::SimTime dup_done = occupy_wire(tx_time(frame));
      // rtdb-lint: allow(hot-path-alloc) scheduling reuses slab/heap slots
      // after warm-up; growth only to high-water (census: zero steady-state)
      sim_.at(dup_done + config_.fixed_latency,
              [f = fault_] { f->on_duplicate_suppressed(); });
    }
    if (v.drop) return delivery;  // transmitted but lost: never delivered
    delivery = delivery + v.extra_delay;
    if (!fault_->judge_delivery(dst, delivery)) {
      return delivery;  // destination down at the delivery instant
    }
  }

  // rtdb-lint: allow(hot-path-alloc) scheduling reuses slab/heap slots
  // after warm-up; growth only to high-water (census: zero steady-state)
  if (on_delivery) sim_.at(delivery, std::move(on_delivery));
  return delivery;
}

sim::SimTime Network::send_batch_raw(SiteId src, SiteId dst, MessageKind kind,
                                     std::size_t count,
                                     sim::Simulator::Callback on_delivery) {
  if (count == 0) count = 1;
  RTDB_PERF_COUNT(kNetBatchSends);
  // First count-1 frames only occupy the wire, bump counters and take their
  // fault draws; no delivery event: the last frame carries the action.
  for (std::size_t i = 0; i + 1 < count; ++i) {
    send_raw(src, dst, kind, default_bytes(kind), {});
  }
  return send_raw(src, dst, kind, default_bytes(kind), std::move(on_delivery));
}

double Network::utilization() {
  const sim::Duration span = sim_.now() - stats_epoch_;
  if (span <= sim::Duration::zero()) return 0;
  return std::min(1.0, busy_accum_ / span);
}

void Network::reset_stats() {
  stats_.reset();
  busy_accum_ = sim::Duration::zero();
  stats_epoch_ = sim_.now();
}

}  // namespace rtdb::net
