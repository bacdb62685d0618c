#include "net/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace dynamoth::net {
namespace {

struct NetFixture {
  NetFixture(SimTime wan = millis(10), SimTime lan = millis(1))
      : network(sim, std::make_unique<FixedLatencyModel>(wan, lan), Rng(1)) {}

  NodeId add_client(double egress = 1e6) {
    return network.add_node({NodeKind::kClient, egress});
  }
  NodeId add_server(double egress = 1e6) {
    return network.add_node({NodeKind::kInfrastructure, egress});
  }

  sim::Simulator sim;
  Network network;
};

TEST(Network, DeliversAfterTransmitPlusPropagation) {
  NetFixture f;
  const NodeId a = f.add_client(1000.0);  // 1000 B/s
  const NodeId b = f.add_server();
  SimTime delivered = -1;
  f.network.send(a, b, 500, [&] { delivered = f.sim.now(); });
  f.sim.run();
  // 500 B at 1000 B/s = 0.5 s transmit + 10 ms propagation.
  EXPECT_EQ(delivered, millis(510));
}

TEST(Network, EgressQueueSerializesMessages) {
  NetFixture f;
  const NodeId a = f.add_client(1000.0);
  const NodeId b = f.add_server();
  std::vector<SimTime> at;
  for (int i = 0; i < 3; ++i) {
    f.network.send(a, b, 1000, [&] { at.push_back(f.sim.now()); });
  }
  f.sim.run();
  ASSERT_EQ(at.size(), 3u);
  // Each 1000 B message occupies the port for 1 s.
  EXPECT_EQ(at[0], seconds(1) + millis(10));
  EXPECT_EQ(at[1], seconds(2) + millis(10));
  EXPECT_EQ(at[2], seconds(3) + millis(10));
}

TEST(Network, BacklogGrowsUnderOverloadAndDrains) {
  NetFixture f;
  const NodeId a = f.add_client(1000.0);
  const NodeId b = f.add_server();
  for (int i = 0; i < 5; ++i) f.network.send(a, b, 1000, [] {});
  EXPECT_EQ(f.network.egress_backlog(a), seconds(5));
  f.sim.run_until(seconds(2));
  EXPECT_EQ(f.network.egress_backlog(a), seconds(3));
  f.sim.run_until(seconds(10));
  EXPECT_EQ(f.network.egress_backlog(a), 0);
}

TEST(Network, LanVsWanLatency) {
  NetFixture f(millis(40), millis(1));
  const NodeId s1 = f.add_server(1e9);
  const NodeId s2 = f.add_server(1e9);
  const NodeId c = f.add_client(1e9);
  SimTime lan = -1, wan = -1;
  f.network.send(s1, s2, 100, [&] { lan = f.sim.now(); });
  f.network.send(s1, c, 100, [&] { wan = f.sim.now(); });
  f.sim.run();
  EXPECT_LT(lan, millis(2));
  EXPECT_GE(wan, millis(40));
}

TEST(Network, LocalSendSkipsEgressAndLatency) {
  NetFixture f;
  const NodeId a = f.add_server(1000.0);
  SimTime delivered = -1;
  f.network.send(a, a, 1'000'000, [&] { delivered = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.network.counters(a).bytes_sent, 0u);  // loopback not on the NIC
}

TEST(Network, ExtraDelayIsAdded) {
  NetFixture f;
  const NodeId a = f.add_server(1e6);
  const NodeId b = f.add_client();
  SimTime delivered = -1;
  f.network.send(a, b, 1000, [&] { delivered = f.sim.now(); }, millis(500));
  f.sim.run();
  EXPECT_EQ(delivered, millis(1) + millis(10) + millis(500));
}

TEST(Network, CountersTrackBytesAndMessages) {
  NetFixture f;
  const NodeId a = f.add_server();
  const NodeId b = f.add_client();
  f.network.send(a, b, 100, [] {});
  f.network.send(a, b, 250, [] {});
  EXPECT_EQ(f.network.counters(a).bytes_sent, 350u);
  EXPECT_EQ(f.network.counters(a).messages_sent, 2u);
  EXPECT_EQ(f.network.counters(b).bytes_sent, 0u);
}

TEST(Network, TotalInfrastructureMessagesIgnoresClients) {
  NetFixture f;
  const NodeId s = f.add_server();
  const NodeId c = f.add_client();
  f.network.send(s, c, 10, [] {});
  f.network.send(c, s, 10, [] {});
  f.network.send(c, s, 10, [] {});
  EXPECT_EQ(f.network.total_infrastructure_messages(), 1u);
}

TEST(Network, ActivityFlagToggles) {
  NetFixture f;
  const NodeId s = f.add_server();
  EXPECT_TRUE(f.network.active(s));
  f.network.set_active(s, false);
  EXPECT_FALSE(f.network.active(s));
}

TEST(Network, CapacityCanBeAdjusted) {
  NetFixture f;
  const NodeId s = f.add_server(1e6);
  EXPECT_DOUBLE_EQ(f.network.egress_capacity(s), 1e6);
  f.network.set_egress_capacity(s, 2e6);
  EXPECT_DOUBLE_EQ(f.network.egress_capacity(s), 2e6);
}

TEST(Network, MinArrivalEnforcesFifoOrdering) {
  // Two messages where the second would naturally overtake the first (e.g.
  // a smaller latency sample): min_arrival clamps it behind.
  NetFixture f;
  const NodeId a = f.add_client(1e9);
  const NodeId b = f.add_server();
  std::vector<int> order;
  const SimTime first = f.network.send(a, b, 100, [&] { order.push_back(1); });
  // Force the second after the first even though it would arrive earlier.
  const SimTime second =
      f.network.send(a, b, 100, [&] { order.push_back(2); }, 0, first + 1);
  EXPECT_GE(second, first + 1);
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Network, TransmittedBytesExcludesQueuedBacklog) {
  NetFixture f;
  const NodeId a = f.add_client(1000.0);  // 1 kB/s
  const NodeId b = f.add_server();
  for (int i = 0; i < 4; ++i) f.network.send(a, b, 1000, [] {});
  // Offered: 4000 B enqueued instantly; nothing transmitted yet.
  EXPECT_EQ(f.network.counters(a).bytes_sent, 4000u);
  EXPECT_EQ(f.network.transmitted_bytes(a), 0u);
  f.sim.run_until(seconds(2));
  EXPECT_NEAR(static_cast<double>(f.network.transmitted_bytes(a)), 2000.0, 1.0);
  f.sim.run_until(seconds(10));
  EXPECT_EQ(f.network.transmitted_bytes(a), 4000u);
}

TEST(Network, TransmittedRateNeverExceedsLineRate) {
  NetFixture f;
  const NodeId a = f.add_server(10'000.0);
  const NodeId b = f.add_client();
  // Offer 5x the line rate for 2 seconds.
  for (int i = 0; i < 100; ++i) f.network.send(a, b, 1000, [] {});
  f.sim.run_until(seconds(2));
  EXPECT_LE(f.network.transmitted_bytes(a), 20'000u + 1000u);
}

TEST(Network, OccupyEgressSharesTheQueueWithSendAndSchedulesNothing) {
  NetFixture f;
  const NodeId a = f.add_client(1000.0);  // 1000 B/s
  const NodeId b = f.add_server();

  // The uplink half-send occupies the port exactly like send() would...
  const SimTime depart = f.network.occupy_egress(a, 1000);
  EXPECT_EQ(depart, seconds(1));
  EXPECT_EQ(f.network.egress_backlog(a), seconds(1));
  EXPECT_EQ(f.network.counters(a).bytes_sent, 1000u);
  EXPECT_EQ(f.network.counters(a).messages_sent, 1u);
  // ...so a local send queued behind it is delayed by the uplink's tx time.
  SimTime delivered = -1;
  f.network.send(a, b, 1000, [&] { delivered = f.sim.now(); });
  EXPECT_EQ(f.sim.pending_events(), 1u);  // the uplink scheduled no event
  f.sim.run();
  EXPECT_EQ(delivered, seconds(2) + millis(10));
}

TEST(Network, OccupyEgressWeightedMatchesSendArithmeticAndDrawsNoRng) {
  NetFixture f;
  const NodeId a = f.add_client(1000.0);
  const std::uint64_t draws_before = Rng::total_draws();
  const SimTime depart = f.network.occupy_egress(a, 250, /*weight=*/4);
  EXPECT_EQ(depart, seconds(1));  // 4 x 250 B at 1000 B/s
  EXPECT_EQ(f.network.counters(a).bytes_sent, 1000u);
  EXPECT_EQ(f.network.counters(a).messages_sent, 4u);
  // No latency sample: local RNG sequences are untouched, so K = 1 sharded
  // runs (which never take the uplink) stay bit-identical.
  EXPECT_EQ(Rng::total_draws(), draws_before);
}

TEST(Network, FanoutBatchSameArrivalDeliversInIssueOrder) {
  // Egress fast enough that transmit time rounds to zero: every message
  // below lands on the same (destination, arrival-time) pair. Each batch
  // push still schedules its own event, so a send() issued mid-batch runs
  // in issue order rather than after the whole batch.
  NetFixture f;
  const NodeId src = f.add_server(1e15);
  const NodeId dst = f.add_client(1e15);
  constexpr int kPushes = 5;
  std::vector<int> order;
  const std::uint64_t executed_before = f.sim.executed_events();
  SimTime first_at = -1;
  {
    Network::FanoutBatch batch(f.network, src);
    for (int i = 0; i < kPushes; ++i) {
      const SimTime at = batch.send(dst, 128, [&order, i] { order.push_back(i); });
      if (i == 0) {
        first_at = at;
        EXPECT_EQ(f.network.send(src, dst, 128, [&order] { order.push_back(-1); }), at);
      }
      EXPECT_EQ(at, first_at);
    }
  }
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, 2, 3, 4}));
  EXPECT_EQ(f.sim.executed_events() - executed_before, std::uint64_t{kPushes} + 1);
}

TEST(Network, MeasuredRateMatchesOfferedLoadBelowSaturation) {
  NetFixture f;
  const NodeId s = f.add_server(1e6);
  const NodeId c = f.add_client();
  // 100 kB/s offered for 10 s.
  for (int t = 0; t < 10; ++t) {
    f.sim.schedule_at(seconds(t), [&] {
      for (int i = 0; i < 100; ++i) f.network.send(s, c, 1000, [] {});
    });
  }
  f.sim.run();
  EXPECT_EQ(f.network.counters(s).bytes_sent, 1'000'000u);
}

}  // namespace
}  // namespace dynamoth::net
