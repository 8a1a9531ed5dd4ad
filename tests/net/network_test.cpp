#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rtdb::net {
namespace {

NetworkConfig fast_config() {
  NetworkConfig c;
  c.bandwidth_bps = 10e6;
  c.fixed_latency = sim::seconds(0.001);
  c.directory_delay = sim::seconds(0.0005);
  c.header_bytes = 64;
  return c;
}

TEST(MessageStats, RecordsPerKind) {
  MessageStats s;
  s.record(MessageKind::kObjectShip, 2048);
  s.record(MessageKind::kObjectShip, 2048);
  s.record(MessageKind::kObjectRequest, 64);
  EXPECT_EQ(s.messages(MessageKind::kObjectShip), 2u);
  EXPECT_EQ(s.bytes(MessageKind::kObjectShip), 4096u);
  EXPECT_EQ(s.messages(MessageKind::kObjectRequest), 1u);
  EXPECT_EQ(s.total_messages(), 3u);
  EXPECT_EQ(s.total_bytes(), 4096u + 64u);
}

TEST(MessageStats, ResetClears) {
  MessageStats s;
  s.record(MessageKind::kControl, 10);
  s.reset();
  EXPECT_EQ(s.total_messages(), 0u);
  EXPECT_EQ(s.total_bytes(), 0u);
}

TEST(MessageKindNames, AllDistinctAndNamed) {
  for (std::size_t k = 0; k < kMessageKindCount; ++k) {
    const auto name = to_string(static_cast<MessageKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "Unknown");
  }
}

TEST(Network, DeliveryTimeIncludesTransmissionAndLatency) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  bool delivered = false;
  const auto at = net.send<MessageKind::kControl>(
      ClientId{1}, kServer, 936, [&] { delivered = true; });
  // (936 + 64 header) * 8 bits / 10 Mbps = 0.8 ms, + 1 ms fixed latency.
  EXPECT_NEAR(at.sec(), 0.0018, 1e-9);
  sim.run();
  EXPECT_TRUE(delivered);
}

TEST(Network, SharedWireSerializesTransmissions) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  std::vector<double> deliveries;
  for (int i = 0; i < 3; ++i) {
    net.send<MessageKind::kControl>(ClientId{1}, kServer, 936, [] {});
  }
  // Each frame occupies the wire 0.8 ms; the third completes transmission
  // at 2.4 ms + 1 ms latency.
  const auto last =
      net.send<MessageKind::kControl>(ClientId{2}, kServer, 936, [] {});
  EXPECT_NEAR(last.sec(), 4 * 0.0008 + 0.001, 1e-9);
}

TEST(Network, LoopbackIsFreeAndUncounted) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  bool delivered = false;
  net.send<MessageKind::kObjectForward>(ClientId{3}, ClientId{3},
                                        [&] { delivered = true; });
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.stats().total_messages(), 0u);
}

TEST(Network, ClientToClientRoutesViaDirectory) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  const auto direct =
      net.send<MessageKind::kControl>(ClientId{1}, kServer, 936, [] {});
  sim::Simulator sim2;
  Network net2(sim2, fast_config());
  const auto relayed =
      net2.send<MessageKind::kControl>(ClientId{1}, ClientId{2}, 936, [] {});
  // Two wire occupancies + the directory forwarding delay.
  EXPECT_GT(relayed, direct + sim::seconds(0.0008));
}

TEST(Network, CountsByKind) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  net.send<MessageKind::kObjectRequest>(ClientId{1}, kServer, [] {});
  net.send<MessageKind::kObjectShip>(kServer, ClientId{1}, [] {});
  net.send<MessageKind::kObjectShip>(kServer, ClientId{1}, [] {});
  EXPECT_EQ(net.stats().messages(MessageKind::kObjectRequest), 1u);
  EXPECT_EQ(net.stats().messages(MessageKind::kObjectShip), 2u);
}

TEST(Network, DefaultSizesVaryByKind) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  net.send<MessageKind::kObjectShip>(kServer, ClientId{1}, [] {});
  net.send<MessageKind::kObjectRequest>(ClientId{1}, kServer, [] {});
  const auto ship_bytes = net.stats().bytes(MessageKind::kObjectShip);
  const auto req_bytes = net.stats().bytes(MessageKind::kObjectRequest);
  EXPECT_GT(ship_bytes, req_bytes);  // a 2 KB object vs a small request
}

TEST(Network, SendBatchCountsEachFrameDeliversOnce) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  int deliveries = 0;
  net.send_batch<MessageKind::kObjectRequest>(ClientId{1}, kServer, 5,
                                              [&] { ++deliveries; });
  sim.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(net.stats().messages(MessageKind::kObjectRequest), 5u);
}

TEST(Network, SendBatchIsOneEventAtTheLastFramesInstant) {
  constexpr std::size_t kFrames = 4;
  sim::Simulator ref_sim;
  Network ref(ref_sim, fast_config());
  sim::SimTime last{};
  for (std::size_t i = 0; i < kFrames; ++i) {
    last = ref.send<MessageKind::kObjectRequest>(ClientId{1}, kServer, [] {});
  }

  sim::Simulator sim;
  Network net(sim, fast_config());
  sim::SimTime delivered{-1.0};
  const sim::SimTime when = net.send_batch<MessageKind::kObjectRequest>(
      ClientId{1}, kServer, kFrames, [&] { delivered = sim.now(); });
  EXPECT_EQ(sim.pending_events(), 1u);  // the first frames carry no event
  EXPECT_EQ(net.stats().messages(MessageKind::kObjectRequest), kFrames);
  EXPECT_EQ(net.stats().bytes(MessageKind::kObjectRequest),
            ref.stats().bytes(MessageKind::kObjectRequest));
  EXPECT_EQ(when, last);
  sim.run();
  EXPECT_EQ(delivered, last);
}

/// Drops every even-numbered frame and duplicates every odd one, counting
/// the verdicts it hands out.
class AlternatingFaults final : public FaultHook {
 public:
  FaultVerdict judge(SiteId, SiteId, MessageKind, sim::SimTime) override {
    FaultVerdict v;
    v.drop = judged % 2 == 0;
    v.duplicate = !v.drop;
    ++judged;
    return v;
  }
  bool judge_delivery(SiteId, sim::SimTime) override {
    ++delivery_judged;
    return true;
  }
  void on_duplicate_suppressed() override { ++duplicates; }

  int judged = 0;
  int delivery_judged = 0;
  int duplicates = 0;
};

TEST(Network, SendBatchJudgesEveryFrame) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  AlternatingFaults faults;
  net.set_fault_hook(&faults);
  int deliveries = 0;
  net.send_batch<MessageKind::kObjectRequest>(ClientId{1}, kServer, 4,
                                              [&] { ++deliveries; });
  // Frames 0 and 2 are lost; 1 and 3 are duplicated, and 3 carries the
  // action. Every duplicate still crosses the wire and arrives.
  EXPECT_EQ(faults.judged, 4);
  EXPECT_EQ(faults.delivery_judged, 2);
  EXPECT_EQ(net.stats().messages(MessageKind::kObjectRequest), 6u);
  EXPECT_EQ(sim.pending_events(), 3u);  // two duplicates + one delivery
  sim.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(faults.duplicates, 2);
}

TEST(Network, SendBatchZeroBehavesAsOne) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  int deliveries = 0;
  net.send_batch<MessageKind::kControl>(ClientId{1}, kServer, 0,
                                        [&] { ++deliveries; });
  sim.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(net.stats().messages(MessageKind::kControl), 1u);
}

TEST(Network, UtilizationGrowsWithTraffic) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  for (int i = 0; i < 100; ++i) {
    net.send<MessageKind::kObjectReturn>(ClientId{1}, kServer, [] {});
  }
  sim.run_until(sim::SimTime{1.0});
  EXPECT_GT(net.utilization(), 0.1);
  EXPECT_LE(net.utilization(), 1.0);
}

TEST(Network, ResetStatsClearsCountersKeepsInFlight) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  bool delivered = false;
  net.send<MessageKind::kControl>(ClientId{1}, kServer,
                                  [&] { delivered = true; });
  net.reset_stats();
  EXPECT_EQ(net.stats().total_messages(), 0u);
  sim.run();
  EXPECT_TRUE(delivered);  // in-flight delivery still happens
}

TEST(Network, MessagesDeliverInSendOrderBetweenSamePair) {
  sim::Simulator sim;
  Network net(sim, fast_config());
  std::vector<int> order;
  net.send<MessageKind::kControl>(ClientId{1}, kServer,
                                  [&] { order.push_back(1); });
  net.send<MessageKind::kControl>(ClientId{1}, kServer,
                                  [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace rtdb::net
