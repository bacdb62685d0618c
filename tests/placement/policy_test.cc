#include "placement/policy.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "placement/bounded_load.h"
#include "placement/greedy.h"
#include "fake_round_ops.h"

namespace dynamoth::placement {
namespace {

using test::FakeRoundOps;

// ---- factory / naming ----

TEST(PolicyFactory, BuildsEveryKindWithMatchingName) {
  for (PolicyKind kind : {PolicyKind::kGreedy, PolicyKind::kBoundedLoad, PolicyKind::kHashing}) {
    PolicyConfig config;
    config.kind = kind;
    const auto policy = make_policy(config);
    ASSERT_NE(policy, nullptr);
    EXPECT_STREQ(policy->name(), to_string(kind));
  }
}

TEST(PolicyFactory, ParamsDescribeTunables) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  config.bounded_epsilon = 0.5;
  EXPECT_EQ(make_policy(config)->params(), "eps=0.50,vnodes=64");
  config.kind = PolicyKind::kGreedy;
  EXPECT_EQ(make_policy(config)->params(), "");
}

// ---- greedy through the interface ----

TEST(GreedyPolicy, RelievesHotServerByMigratingBusiestChannels) {
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  // Server 1 at LR 0.9 (past lr_high), server 2 idle.
  ops.mutable_plan().set_entry("a", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.mutable_plan().set_entry("b", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.offer("a", 500);
  ops.offer("b", 400);

  GreedyPolicy greedy;
  greedy.system_rebalance(ops, true);

  EXPECT_GE(ops.migrations(), 1u);
  EXPECT_EQ(ops.kind(), core::RebalanceKind::kHighLoad);
  // The busiest channel lands on the idle server.
  ASSERT_FALSE(ops.moves().empty());
  EXPECT_EQ(ops.moves().front().channel, "a");
  EXPECT_EQ(ops.moves().front().to, std::vector<ServerId>{2u});
}

TEST(GreedyPolicy, RequestsSpawnWhenMigrationIsStuck) {
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);  // alone and overloaded
  ops.mutable_plan().set_entry("a", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.offer("a", 900);
  ops.allow_spawn(9, 1000);

  GreedyPolicy greedy;
  greedy.system_rebalance(ops, true);
  EXPECT_EQ(ops.spawns(), 1u);
}

TEST(GreedyPolicy, DrainsIdleNonRingServer) {
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, false);  // rented, nearly idle fleet
  ops.mutable_plan().set_entry("a", core::PlanEntry{{2}, core::ReplicationMode::kNone, 1});
  ops.offer("a", 100);  // avg LR 0.05 < lr_low

  GreedyPolicy greedy;
  greedy.system_rebalance(ops, true);
  EXPECT_EQ(ops.drained(), 2u);
  EXPECT_EQ(ops.kind(), core::RebalanceKind::kLowLoad);
}

// ---- bounded load ----

TEST(BoundedLoadPolicy, EnforcesCapOnSkewedLoad) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  config.bounded_epsilon = 0.25;
  BoundedLoadPolicy policy(config);

  FakeRoundOps ops;
  ops.add_server(1, 10000, true);
  ops.add_server(2, 10000, true);
  // All load piled on server 1 (but below lr_high: the *bound*, not
  // pressure, must force the spread).
  for (int i = 0; i < 8; ++i) {
    ops.mutable_plan().set_entry("c" + std::to_string(i),
                                 core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
    ops.offer("c" + std::to_string(i), 500);
  }

  policy.system_rebalance(ops, true);

  const auto& stats = policy.last_round();
  ASSERT_TRUE(stats.ran);
  EXPECT_FALSE(stats.overflow);
  for (const auto& [server, assigned] : stats.assigned) {
    EXPECT_LE(assigned, stats.cap.at(server) + 1e-9) << "server " << server;
  }
  EXPECT_GE(ops.moves().size(), 1u);  // something was forwarded off server 1
}

TEST(BoundedLoadPolicy, StickyWhenLoadIsBalanced) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  BoundedLoadPolicy policy(config);

  FakeRoundOps ops;
  ops.add_server(1, 10000, true);
  ops.add_server(2, 10000, true);
  for (int i = 0; i < 8; ++i) ops.offer("c" + std::to_string(i), 100);
  policy.system_rebalance(ops, true);
  const std::size_t first_round_moves = ops.moves().size();

  // Same offered load again: placements must not churn.
  ops.reset_round();
  for (int i = 0; i < 8; ++i) ops.offer("c" + std::to_string(i), 100);
  policy.system_rebalance(ops, true);
  EXPECT_EQ(ops.moves().size(), 0u) << "round 1 moved " << first_round_moves
                                    << ", round 2 must be sticky";
}

TEST(BoundedLoadPolicy, OverflowFlagsAndSpawns) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  BoundedLoadPolicy policy(config);

  FakeRoundOps ops;
  ops.mutable_limits().lr_high = 0.85;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  // One channel alone exceeds every cap ((1+eps)*total/2 < total).
  ops.mutable_plan().set_entry("big", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.offer("big", 1800);
  ops.offer("small", 10);
  ops.allow_spawn(9, 1000);

  policy.system_rebalance(ops, true);
  EXPECT_TRUE(policy.last_round().overflow);
  EXPECT_EQ(ops.spawns(), 1u);
}

TEST(BoundedLoadPolicy, DrainShrinksReplicaSetLikeGreedy) {
  // A channel replicated across three servers keeps its replication mode when
  // one replica's server drains: the drain sheds only that replica, exactly
  // as greedy's does, instead of collapsing the channel onto one server.
  for (PolicyKind kind : {PolicyKind::kGreedy, PolicyKind::kBoundedLoad}) {
    PolicyConfig config;
    config.kind = kind;
    const auto policy = make_policy(config);

    FakeRoundOps ops;
    ops.add_server(1, 1e5, /*on_base_ring=*/true);
    ops.add_server(2, 1e5, /*on_base_ring=*/false);
    ops.add_server(3, 1e5, /*on_base_ring=*/false);
    ops.mutable_plan().set_entry(
        "hot", core::PlanEntry{{1, 2, 3}, core::ReplicationMode::kAllSubscribers, 1});
    ops.offer("hot", 300);

    policy->system_rebalance(ops, /*scale_down_allowed=*/true);

    EXPECT_EQ(ops.drained(), 2u) << to_string(kind);
    ASSERT_EQ(ops.moves().size(), 1u) << to_string(kind);
    EXPECT_EQ(ops.moves().front().channel, "hot");
    EXPECT_EQ(ops.moves().front().to, (std::vector<ServerId>{1u, 3u})) << to_string(kind);
    EXPECT_EQ(ops.moves().front().reason, "shrink replicas off draining server 2");
    const core::PlanEntry hot = ops.plan().resolve("hot", ops.base_ring());
    EXPECT_EQ(hot.mode, core::ReplicationMode::kAllSubscribers) << to_string(kind);
    EXPECT_EQ(hot.version, 2u) << to_string(kind);
  }
}

// ---- emergency homing ----

TEST(EmergencyHome, DefaultPicksLeastPressuredServer) {
  GreedyPolicy greedy;
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  ops.mutable_plan().set_entry("x", core::PlanEntry{{1}, core::ReplicationMode::kNone, 1});
  ops.offer("x", 500);
  EXPECT_EQ(greedy.emergency_home(ops, "orphan"), 2u);
}

TEST(EmergencyHome, BoundedLoadWalksItsRing) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  BoundedLoadPolicy policy(config);
  FakeRoundOps ops;
  ops.add_server(1, 1000, true);
  ops.add_server(2, 1000, true);
  for (int i = 0; i < 4; ++i) ops.offer("c" + std::to_string(i), 10);
  policy.system_rebalance(ops, true);  // syncs the internal ring
  const ServerId home = policy.emergency_home(ops, "orphan");
  EXPECT_TRUE(home == 1u || home == 2u);
}

}  // namespace
}  // namespace dynamoth::placement
