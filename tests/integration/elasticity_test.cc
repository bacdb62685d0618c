// Closed-loop tests of the full system with a live load balancer: overload
// triggers high-load rebalancing and cloud spawns; load removal triggers
// scale-down; under the hashing placement policy (the consistent-hashing
// comparator) the balancer grows its ring instead.
#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.h"
#include "mammoth/game.h"
#include "placement/hashing.h"

namespace dynamoth {
namespace {

harness::ClusterConfig lb_config() {
  harness::ClusterConfig config;
  config.seed = 31;
  config.initial_servers = 1;
  config.fixed_latency = true;
  config.fixed_latency_value = millis(15);
  config.server_capacity = 400e3;  // small, so modest load saturates quickly
  config.cloud.spawn_delay = seconds(2);
  return config;
}

core::DynamothLoadBalancer::Config fast_lb() {
  core::DynamothLoadBalancer::Config config;
  config.t_wait = seconds(5);
  config.max_servers = 4;
  config.despawn_drain_delay = seconds(5);
  return config;
}

TEST(Elasticity, HighLoadSpawnsServersAndSpreadsChannels) {
  harness::Cluster cluster(lb_config());
  auto& lb = cluster.use_dynamoth(fast_lb());

  // 8 channels x (6 subscribers, 1 publisher at 20 msg/s, 140B) ->
  // egress ~ 8*6*20*~210B = ~200 kB/s ... x payload: enough to overload a
  // 400 kB/s server when concentrated, forcing migrations and spawns.
  std::vector<core::DynamothClient*> pubs;
  for (int ch = 0; ch < 8; ++ch) {
    const Channel c = "feed" + std::to_string(ch);
    for (int s = 0; s < 6; ++s) {
      auto& sub = cluster.add_client();
      sub.subscribe(c, [](const ps::EnvelopePtr&) {});
    }
    pubs.push_back(&cluster.add_client());
  }
  std::vector<std::unique_ptr<sim::PeriodicTask>> traffic;
  for (int ch = 0; ch < 8; ++ch) {
    auto* p = pubs[static_cast<std::size_t>(ch)];
    const Channel c = "feed" + std::to_string(ch);
    traffic.push_back(std::make_unique<sim::PeriodicTask>(
        cluster.sim(), millis(50), [p, c] { p->publish(c, 400); }));
    traffic.back()->start();
  }

  cluster.sim().run_for(seconds(60));

  EXPECT_GT(cluster.active_servers(), 1u);
  EXPECT_GE(lb.stats().plans_generated, 1u);
  EXPECT_GE(lb.stats().channels_migrated, 1u);
  // The busiest server must have come back under control.
  EXPECT_LT(lb.max_load_ratio().second, 1.1);

  // Channels must be spread: no single server owns everything.
  std::set<ServerId> owners;
  for (int ch = 0; ch < 8; ++ch) {
    const Channel c = "feed" + std::to_string(ch);
    owners.insert(lb.current_plan()->resolve(c, *cluster.base_ring()).primary());
  }
  EXPECT_GT(owners.size(), 1u);
}

TEST(Elasticity, LoadDropReleasesServers) {
  harness::Cluster cluster(lb_config());
  auto& lb = cluster.use_dynamoth(fast_lb());

  std::vector<core::DynamothClient*> pubs;
  std::vector<std::unique_ptr<sim::PeriodicTask>> traffic;
  for (int ch = 0; ch < 8; ++ch) {
    const Channel c = "feed" + std::to_string(ch);
    for (int s = 0; s < 6; ++s) {
      auto& sub = cluster.add_client();
      sub.subscribe(c, [](const ps::EnvelopePtr&) {});
    }
    auto* p = &cluster.add_client();
    traffic.push_back(std::make_unique<sim::PeriodicTask>(
        cluster.sim(), millis(50), [p, c] { p->publish(c, 400); }));
    traffic.back()->start();
  }
  cluster.sim().run_for(seconds(60));
  const std::size_t peak_servers = cluster.active_servers();
  ASSERT_GT(peak_servers, 1u);

  // Stop almost all traffic; the balancer should consolidate and release.
  for (std::size_t i = 1; i < traffic.size(); ++i) traffic[i]->stop();
  cluster.sim().run_for(seconds(120));

  EXPECT_LT(cluster.active_servers(), peak_servers);
  EXPECT_GE(lb.stats().servers_released, 1u);
  // The base ring member must never be released.
  EXPECT_NE(cluster.registry().find(*cluster.base_ring()->servers().begin()), nullptr);
}

TEST(Elasticity, BaselineGrowsRingOnOverload) {
  harness::Cluster cluster(lb_config());
  core::DynamothLoadBalancer::Config config;
  config.placement.kind = placement::PolicyKind::kHashing;
  config.enable_replication = false;
  config.t_wait = seconds(5);
  config.max_servers = 4;
  auto& lb = cluster.use_dynamoth(config);
  const auto& ring = static_cast<const placement::HashingPolicy&>(lb.policy()).ring();

  std::vector<std::unique_ptr<sim::PeriodicTask>> traffic;
  for (int ch = 0; ch < 8; ++ch) {
    const Channel c = "feed" + std::to_string(ch);
    for (int s = 0; s < 6; ++s) {
      auto& sub = cluster.add_client();
      sub.subscribe(c, [](const ps::EnvelopePtr&) {});
    }
    auto* p = &cluster.add_client();
    traffic.push_back(std::make_unique<sim::PeriodicTask>(
        cluster.sim(), millis(50), [p, c] { p->publish(c, 400); }));
    traffic.back()->start();
  }
  cluster.sim().run_for(seconds(60));

  EXPECT_GT(cluster.active_servers(), 1u);
  EXPECT_GE(lb.stats().servers_spawned, 1u);
  EXPECT_EQ(ring.server_count(), cluster.active_servers());
  // The comparator never migrates by load and never scales down: every
  // event is a ring growth.
  for (const auto& event : lb.events()) {
    EXPECT_EQ(event.kind, core::RebalanceKind::kHashing);
  }
}

TEST(Elasticity, GameWorkloadStaysResponsiveUnderBalancer) {
  harness::ClusterConfig config = lb_config();
  config.server_capacity = 600e3;
  harness::Cluster cluster(config);
  cluster.use_dynamoth(fast_lb());

  harness::ResponseProbe probe;
  mammoth::GameConfig game_config;
  game_config.tiles_per_side = 6;
  game_config.world_size = 600;
  mammoth::Game game(cluster, game_config, &probe);
  game.set_population(60);
  cluster.sim().run_for(seconds(90));

  ASSERT_GT(probe.histogram().count(), 1000u);
  // 15ms fixed one-way latency -> healthy RTT ~30-60ms. Allow rebalancing
  // spikes but require a sane overall mean.
  EXPECT_LT(probe.overall_mean_ms(), 150.0);
}

}  // namespace
}  // namespace dynamoth
