#pragma once

#include <cstdint>
#include <functional>

#include <string>

#include "common/ids.hpp"
#include "net/fault_hook.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

/// \file network.hpp
/// Shared-segment LAN model.
///
/// The paper's testbed is a single 10 Mbps Ethernet segment connecting the
/// server and all client workstations. We model the segment as one FIFO
/// transmission resource: each message occupies the wire for
/// `bytes * 8 / bandwidth` seconds, plus a fixed per-message protocol
/// latency that overlaps with other transmissions. Client-to-client traffic
/// in the LS configuration is relayed by a *directory server* (paper §5.1),
/// which we model as a second wire occupancy plus a forwarding delay.

namespace rtdb::net {

/// Tunable parameters of the LAN model.
struct NetworkConfig {
  /// Segment bandwidth in bits per second (paper: 10 Mbps Ethernet).
  double bandwidth_bps = 10e6;

  /// Fixed one-way protocol/processing latency per message (both stacks),
  /// overlapped with other transmissions.
  sim::Duration fixed_latency = sim::msec(1.0);

  /// Extra store-and-forward delay added by the directory server for
  /// client-to-client messages.
  sim::Duration directory_delay = sim::msec(0.5);

  /// Wire-level framing overhead added to every message's payload.
  std::uint64_t header_bytes = 64;

  /// Payload sizes used by the protocols (bytes).
  std::uint64_t object_bytes = 2048;   ///< one 2 KB database object
  std::uint64_t control_bytes = 64;    ///< requests, grants, recalls
  std::uint64_t txn_bytes = 512;       ///< a shipped transaction descriptor
  std::uint64_t result_bytes = 256;    ///< transaction / sub-task results

  /// Returns an empty string when the configuration is physically
  /// meaningful, else a human-readable description of the first problem
  /// (non-positive bandwidth, negative durations). rtdbctl refuses to run
  /// with an invalid configuration.
  [[nodiscard]] std::string validate() const;
};

/// One shared Ethernet segment with per-kind message accounting.
///
/// Usage: `net.send(src, dst, kind, bytes, fn)` schedules `fn` to run at the
/// simulated delivery instant. Local sends (src == dst) cost a negligible
/// fixed delay and are not counted as network messages — the paper's message
/// tables count only traffic that crossed the wire.
class Network {
 public:
  Network(sim::Simulator& sim, NetworkConfig config)
      : sim_(sim), config_(config) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Sends a message of kind `K`; invokes `on_delivery` when it arrives (an
  /// empty one sends the frame only: wire, counters, fault draws, no event).
  /// `payload_bytes` excludes the frame header (added internally).
  /// Client-to-client messages automatically route via the directory server
  /// (two wire occupancies). Returns the delivery time.
  ///
  /// The kind is a template parameter and the endpoints are typed
  /// (`ClientId` or `net::kServer`): a call whose endpoints contradict
  /// `direction_of(K)` — e.g. a client sourcing an ObjectShip — fails to
  /// compile. Raw SiteId endpoints are rejected (no EndpointTraits).
  template <MessageKind K, TypedEndpoint Src, TypedEndpoint Dst>
  sim::SimTime send(Src src, Dst dst, std::uint64_t payload_bytes,
                    sim::Simulator::Callback on_delivery) {
    check_direction<K, Src, Dst>();
    return send_raw(EndpointTraits<Src>::site(src),
                    EndpointTraits<Dst>::site(dst), K, payload_bytes,
                    std::move(on_delivery));
  }

  /// Convenience overload picking the configured size for the kind.
  template <MessageKind K, TypedEndpoint Src, TypedEndpoint Dst>
  sim::SimTime send(Src src, Dst dst, sim::Simulator::Callback on_delivery) {
    check_direction<K, Src, Dst>();
    return send_raw(EndpointTraits<Src>::site(src),
                    EndpointTraits<Dst>::site(dst), K, default_bytes(K),
                    std::move(on_delivery));
  }

  /// A logical batch that travels as `count` back-to-back wire messages of
  /// the kind's default size (e.g. one request frame per object, as the
  /// paper's message tables count them) but is processed on arrival as one
  /// unit: `on_delivery` fires once, when the last frame lands.
  template <MessageKind K, TypedEndpoint Src, TypedEndpoint Dst>
  sim::SimTime send_batch(Src src, Dst dst, std::size_t count,
                          sim::Simulator::Callback on_delivery) {
    check_direction<K, Src, Dst>();
    return send_batch_raw(EndpointTraits<Src>::site(src),
                          EndpointTraits<Dst>::site(dst), K, count,
                          std::move(on_delivery));
  }

  /// Per-kind counters for the whole run.
  [[nodiscard]] const MessageStats& stats() const { return stats_; }
  MessageStats& stats() { return stats_; }

  /// Time-averaged utilization of the segment in [0,1].
  double utilization();

  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Resets counters (not in-flight messages); used between warm-up and
  /// measurement phases.
  void reset_stats();

  /// Observer invoked for every counted (non-loopback) send with the full
  /// frame size. Purely passive — the telemetry layer uses it to record
  /// typed message events. Unset (the default) costs one branch per send.
  using SendHook = std::function<void(SiteId src, SiteId dst,
                                      MessageKind kind,
                                      std::uint64_t frame_bytes)>;
  void set_send_hook(SendHook hook) { send_hook_ = std::move(hook); }

  /// Installs the fault-injection seam (see net/fault_hook.hpp). Not owned.
  /// Unset (the default) costs one branch per send and leaves every
  /// delivery schedule bit-identical to the fault-free model.
  void set_fault_hook(FaultHook* hook) { fault_ = hook; }

 private:
  /// The compile-time direction gate shared by every typed entry point.
  template <MessageKind K, class Src, class Dst>
  static constexpr void check_direction() {
    static_assert(endpoint_matches(direction_of(K).src,
                                   EndpointTraits<Src>::kCategory),
                  "message kind cannot originate at this endpoint "
                  "(see direction_of in net/message.hpp)");
    static_assert(endpoint_matches(direction_of(K).dst,
                                   EndpointTraits<Dst>::kCategory),
                  "message kind cannot be delivered to this endpoint "
                  "(see direction_of in net/message.hpp)");
  }

  /// Runtime-kind core shared by the typed templates. Private: the typed
  /// `send<K>` front door is the only way to choose a kind from outside.
  sim::SimTime send_raw(SiteId src, SiteId dst, MessageKind kind,
                        std::uint64_t payload_bytes,
                        sim::Simulator::Callback on_delivery);

  sim::SimTime send_batch_raw(SiteId src, SiteId dst, MessageKind kind,
                              std::size_t count,
                              sim::Simulator::Callback on_delivery);

  /// Seconds the wire is occupied transmitting `bytes`.
  sim::Duration tx_time(std::uint64_t bytes) const {
    return sim::Duration{static_cast<double>(bytes) * 8.0 /
                         config_.bandwidth_bps};
  }

  /// Reserves the wire for one transmission starting no earlier than now;
  /// returns the instant the transmission completes.
  sim::SimTime occupy_wire(sim::Duration tx);

  std::uint64_t default_bytes(MessageKind kind) const;

  sim::Simulator& sim_;
  NetworkConfig config_;
  MessageStats stats_;
  SendHook send_hook_;
  FaultHook* fault_ = nullptr;
  sim::SimTime wire_free_at_{};
  sim::Duration busy_accum_{};  ///< total wire-busy time
  sim::SimTime stats_epoch_{};  ///< start of the current accounting window
};

}  // namespace rtdb::net
