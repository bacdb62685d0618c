// The consistent-hashing comparator (paper V-D) as a placement policy: unit
// cases through FakeRoundOps, then whole-cluster runs of a Dynamoth balancer
// with the hashing policy and replication off (ring growth on overload, plan
// shape, no scale-down).
#include "placement/hashing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/load_balancer.h"
#include "fake_round_ops.h"
#include "harness/cluster.h"
#include "placement/greedy.h"

namespace dynamoth::placement {
namespace {

using test::FakeRoundOps;

// ---- the policy through FakeRoundOps ----

const std::vector<Channel> kChannels = {"c0", "c1", "c2", "c3", "c4",  "c5",
                                        "c6", "c7", "c8", "c9", "c10", "c11"};

/// Two base-ring servers of capacity 3000. Each channel sits on its owner in
/// a two-server ring with the policy's virtual-node count, as after an
/// earlier growth; the policy's first round seeds its ring with the roster.
struct HashingRound {
  HashingRound() {
    ops.add_server(1, 3000, /*on_base_ring=*/true);
    ops.add_server(2, 3000, /*on_base_ring=*/true);
    core::ConsistentHashRing two(HashingPolicy::kRingVirtualNodes);
    two.add_server(1);
    two.add_server(2);
    for (const Channel& c : kChannels) {
      ops.mutable_plan().set_entry(
          c, core::PlanEntry{{two.lookup(c)}, core::ReplicationMode::kNone, 1});
      ops.offer(c, 0);
    }
    policy.system_rebalance(ops, /*scale_down_allowed=*/true);
    ops.reset_round();
  }
  /// Pins a channel carrying `rate` on server 1.
  void load_server_1(double rate) {
    ops.mutable_plan().set_entry("hot", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
    ops.offer("hot", rate);
  }

  FakeRoundOps ops;
  HashingPolicy policy;
};

TEST(HashingPolicy, NoSpawnBelowLrHigh) {
  HashingRound f;
  f.ops.allow_spawn(3, 3000);
  f.load_server_1(2400);  // LR 0.80 < lr_high 0.85
  f.policy.system_rebalance(f.ops, /*scale_down_allowed=*/false);
  EXPECT_EQ(f.ops.spawns(), 0u);
  EXPECT_TRUE(f.ops.moves().empty());
}

TEST(HashingPolicy, SpawnsAtLrHigh) {
  HashingRound f;
  f.ops.allow_spawn(3, 3000);
  f.load_server_1(2550);  // LR exactly 0.85
  f.policy.system_rebalance(f.ops, /*scale_down_allowed=*/false);
  EXPECT_EQ(f.ops.spawns(), 1u);
  EXPECT_EQ(f.ops.kind(), core::RebalanceKind::kHashing);
  // The spawn round only rents; channels move once the server has joined.
  EXPECT_TRUE(f.ops.moves().empty());
}

TEST(HashingPolicy, RosterGrowthRemapsOnlyChannelsWhoseOwnerChanged) {
  HashingRound f;
  f.ops.add_server(3, 3000, /*on_base_ring=*/false);
  f.policy.system_rebalance(f.ops, /*scale_down_allowed=*/false);
  ASSERT_TRUE(f.policy.ring().contains(3));

  // Consistent hashing: growing the ring moves exactly the channels the
  // newcomer's arcs take over.
  std::vector<Channel> expected;
  for (const Channel& c : kChannels) {
    if (f.policy.ring().lookup(c) == 3) expected.push_back(c);
  }
  std::sort(expected.begin(), expected.end());  // remaps run name-ordered
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), kChannels.size());
  std::vector<Channel> moved;
  for (const FakeRoundOps::Move& move : f.ops.moves()) {
    moved.push_back(move.channel);
    EXPECT_EQ(move.to, std::vector<ServerId>{3u});
  }
  EXPECT_EQ(moved, expected);
  EXPECT_EQ(f.ops.migrations(), expected.size());
  EXPECT_EQ(f.ops.kind(), core::RebalanceKind::kHashing);
  for (const Channel& c : kChannels) {
    const core::PlanEntry entry = f.ops.plan().resolve(c, f.ops.base_ring());
    EXPECT_EQ(entry.primary(), f.policy.ring().lookup(c)) << c;
    EXPECT_EQ(entry.version, entry.primary() == 3 ? 2u : 1u) << c;
  }

  // A second round on the same roster moves nothing.
  f.ops.reset_round();
  f.policy.system_rebalance(f.ops, /*scale_down_allowed=*/false);
  EXPECT_TRUE(f.ops.moves().empty());
}

TEST(HashingPolicy, NeverDrainsEvenWhenScaleDownIsAllowed) {
  HashingRound f;
  f.ops.add_server(3, 3000, /*on_base_ring=*/false);
  f.policy.system_rebalance(f.ops, /*scale_down_allowed=*/true);
  f.ops.reset_round();
  // An idle fleet with a non-base server: greedy drains server 3 here.
  FakeRoundOps greedy_ops = f.ops;
  GreedyPolicy().system_rebalance(greedy_ops, /*scale_down_allowed=*/true);
  ASSERT_EQ(greedy_ops.drained(), 3u);

  f.policy.system_rebalance(f.ops, /*scale_down_allowed=*/true);
  EXPECT_EQ(f.ops.drained(), kInvalidServer);
  EXPECT_TRUE(f.ops.moves().empty());
}

// ---- the comparator on a whole cluster ----

struct BaselineFixture {
  explicit BaselineFixture(double capacity = 150e3) {
    harness::ClusterConfig config;
    config.seed = 29;
    config.initial_servers = 1;
    config.fixed_latency = true;
    config.fixed_latency_value = millis(5);
    config.server_capacity = capacity;
    config.cloud.spawn_delay = seconds(2);
    cluster = std::make_unique<harness::Cluster>(config);
    core::DynamothLoadBalancer::Config lb_config;
    lb_config.placement.kind = PolicyKind::kHashing;
    lb_config.enable_replication = false;
    lb_config.t_wait = seconds(5);
    lb_config.max_servers = 4;
    lb = &cluster->use_dynamoth(lb_config);
  }

  [[nodiscard]] const core::ConsistentHashRing& ring() const {
    return static_cast<const HashingPolicy&>(lb->policy()).ring();
  }

  void add_feed(const Channel& channel, int subs, double msgs_per_sec,
                std::size_t payload = 400) {
    for (int i = 0; i < subs; ++i) {
      auto& s = cluster->add_client();
      s.subscribe(channel, [](const ps::EnvelopePtr&) {});
    }
    auto* p = &cluster->add_client();
    feeds.push_back(std::make_unique<sim::PeriodicTask>(
        cluster->sim(), static_cast<SimTime>(kSecond / msgs_per_sec),
        [p, channel, payload] { p->publish(channel, payload); }));
    feeds.back()->start();
  }

  std::unique_ptr<harness::Cluster> cluster;
  core::DynamothLoadBalancer* lb = nullptr;
  std::vector<std::unique_ptr<sim::PeriodicTask>> feeds;
};

TEST(Baseline, QuietSystemStaysAtOneServer) {
  BaselineFixture f;
  f.add_feed("calm", 2, 2);
  f.cluster->sim().run_for(seconds(30));
  EXPECT_EQ(f.cluster->active_servers(), 1u);
  EXPECT_EQ(f.lb->stats().plans_generated, 0u);
}

TEST(Baseline, OverloadGrowsRingAndRemapsChannels) {
  BaselineFixture f(100e3);
  for (int i = 0; i < 6; ++i) f.add_feed("feed" + std::to_string(i), 4, 15, 400);
  f.cluster->sim().run_for(seconds(40));

  EXPECT_GT(f.cluster->active_servers(), 1u);
  EXPECT_EQ(f.ring().server_count(), f.cluster->active_servers());
  EXPECT_GE(f.lb->stats().plans_generated, 1u);

  // The emitted plan maps channels per the grown ring, all unreplicated.
  for (const auto& [channel, entry] : f.lb->current_plan()->entries()) {
    EXPECT_EQ(entry.mode, core::ReplicationMode::kNone) << channel;
    EXPECT_EQ(entry.servers.size(), 1u) << channel;
    EXPECT_EQ(entry.primary(), f.ring().lookup(channel)) << channel;
  }
}

TEST(Baseline, NeverScalesDown) {
  BaselineFixture f(100e3);
  for (int i = 0; i < 6; ++i) f.add_feed("feed" + std::to_string(i), 4, 15, 400);
  f.cluster->sim().run_for(seconds(40));
  const std::size_t peak = f.cluster->active_servers();
  ASSERT_GT(peak, 1u);
  f.feeds.clear();
  f.cluster->sim().run_for(seconds(120));
  EXPECT_EQ(f.cluster->active_servers(), peak);
  EXPECT_EQ(f.lb->stats().servers_released, 0u);
}

TEST(Baseline, EveryEventIsARingGrowth) {
  BaselineFixture f(100e3);
  for (int i = 0; i < 6; ++i) f.add_feed("feed" + std::to_string(i), 4, 15, 400);
  f.cluster->sim().run_for(seconds(60));
  ASSERT_FALSE(f.lb->events().empty());
  std::size_t last_servers = 1;
  for (const auto& event : f.lb->events()) {
    EXPECT_EQ(event.kind, core::RebalanceKind::kHashing);
    EXPECT_GT(event.active_servers, last_servers);
    last_servers = event.active_servers;
  }
}

TEST(Baseline, StopsAtMaxServers) {
  BaselineFixture f(40e3);  // absurdly small servers
  for (int i = 0; i < 8; ++i) f.add_feed("feed" + std::to_string(i), 5, 20, 500);
  f.cluster->sim().run_for(seconds(90));
  EXPECT_LE(f.cluster->active_servers(), 4u);
}

}  // namespace
}  // namespace dynamoth::placement
