// Tests for the shared balancer machinery: report ingestion and smoothing,
// attach/detach lifecycle, plan listener and plan delivery.
#include "core/balancer_base.h"

#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.h"

namespace dynamoth::core {
namespace {

/// Minimal balancer: records decide() ticks, never changes plans.
class NullBalancer final : public BalancerBase {
 public:
  using BalancerBase::BalancerBase;
  using BalancerBase::publish_plan;  // widen for tests

  int decides = 0;

 protected:
  void decide() override { ++decides; }
};

struct Fixture {
  Fixture() {
    harness::ClusterConfig config;
    config.seed = 71;
    config.initial_servers = 2;
    config.fixed_latency = true;
    config.fixed_latency_value = millis(5);
    cluster = std::make_unique<harness::Cluster>(config);
    const NodeId node =
        cluster->network().add_node({net::NodeKind::kInfrastructure, 1e7});
    balancer = std::make_unique<NullBalancer>(
        cluster->sim(), cluster->registry(), cluster->base_ring(), node, &cluster->cloud(),
        BalancerBase::BaseConfig{},
        [this](ServerId server, const PlanPtr& plan) { delivered.emplace_back(server, plan); });
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  LoadReport report(ServerId server, double mbps, double capacity = 1.5e6) {
    LoadReport r;
    r.server = server;
    r.window_start = cluster->sim().now() - kSecond;
    r.window_end = cluster->sim().now();
    r.measured_out_bytes_per_sec = mbps * 1e6;
    r.advertised_capacity = capacity;
    return r;
  }

  std::unique_ptr<harness::Cluster> cluster;
  std::unique_ptr<NullBalancer> balancer;
  std::vector<std::pair<ServerId, PlanPtr>> delivered;  // every plan delivery
};

TEST(BalancerBase, TickInvokesDecide) {
  Fixture f;
  f.balancer->start();
  f.cluster->sim().run_for(seconds(5) + millis(10));
  EXPECT_EQ(f.balancer->decides, 5);
}

TEST(BalancerBase, IngestedReportsDriveLoadRatios) {
  Fixture f;
  f.balancer->start();
  const auto servers = f.cluster->server_ids();
  f.balancer->ingest_report(f.report(servers[0], 0.75));
  f.balancer->ingest_report(f.report(servers[1], 1.5));
  EXPECT_NEAR(f.balancer->load_ratio(servers[0]), 0.5, 1e-9);
  EXPECT_NEAR(f.balancer->load_ratio(servers[1]), 1.0, 1e-9);
  EXPECT_NEAR(f.balancer->average_load_ratio(), 0.75, 1e-9);
  const auto [hot, lr] = f.balancer->max_load_ratio();
  EXPECT_EQ(hot, servers[1]);
  EXPECT_NEAR(lr, 1.0, 1e-9);
}

TEST(BalancerBase, LoadRatioSmoothsOverWindow) {
  Fixture f;
  f.balancer->start();
  const ServerId s = f.cluster->server_ids()[0];
  f.balancer->ingest_report(f.report(s, 0.0));
  f.balancer->ingest_report(f.report(s, 1.5));
  // Window of 3 (default): mean of {0, 1} = 0.5.
  EXPECT_NEAR(f.balancer->load_ratio(s), 0.5, 1e-9);
  f.balancer->ingest_report(f.report(s, 1.5));
  f.balancer->ingest_report(f.report(s, 1.5));
  // Oldest (0) rolled out: mean of {1, 1, 1}.
  EXPECT_NEAR(f.balancer->load_ratio(s), 1.0, 1e-9);
}

TEST(BalancerBase, SilentServerReportsArePurged) {
  Fixture f;  // detect_failures off: only the purge can clear the reports
  f.balancer->start();
  const ServerId s = f.cluster->server_ids()[0];
  f.cluster->lla(s).stop();  // the server goes silent
  f.balancer->ingest_report(f.report(s, 1.5));  // window_end = 0
  // The tick at t = kReportMaxAge keeps a report exactly that old.
  f.cluster->sim().run_for(BalancerBase::kReportMaxAge + millis(10));
  EXPECT_NEAR(f.balancer->load_ratio(s), 1.0, 1e-9);
  // The next tick finds it older than kReportMaxAge and purges it.
  f.cluster->sim().run_for(seconds(1));
  EXPECT_EQ(f.balancer->load_ratio(s), 0.0);
  EXPECT_EQ(f.balancer->active_server_count(), 2u);  // still attached
}

TEST(BalancerBase, ReportsForUnknownServersIgnored) {
  Fixture f;
  f.balancer->start();
  f.balancer->ingest_report(f.report(9999, 1.5));
  EXPECT_EQ(f.balancer->load_ratio(9999), 0.0);
  EXPECT_EQ(f.balancer->average_load_ratio(), 0.0);
}

TEST(BalancerBase, DetachRemovesFromAggregates) {
  Fixture f;
  f.balancer->start();
  const auto servers = f.cluster->server_ids();
  f.balancer->ingest_report(f.report(servers[0], 1.5));
  f.balancer->detach_server(servers[0]);
  EXPECT_EQ(f.balancer->active_server_count(), 1u);
  EXPECT_EQ(f.balancer->load_ratio(servers[0]), 0.0);
}

TEST(BalancerBase, PlanListenerAndEventsFireOnPublish) {
  Fixture f;
  f.balancer->start();
  int listened = 0;
  f.balancer->set_plan_listener(
      [&](const PlanPtr& plan, RebalanceKind kind) {
        ++listened;
        EXPECT_GT(plan->id(), 0u);
        EXPECT_EQ(kind, RebalanceKind::kHighLoad);
      });
  f.balancer->publish_plan(Plan{}, RebalanceKind::kHighLoad);
  EXPECT_EQ(listened, 1);
  ASSERT_EQ(f.balancer->events().size(), 1u);
  EXPECT_EQ(f.balancer->events()[0].kind, RebalanceKind::kHighLoad);
  EXPECT_EQ(f.balancer->current_plan()->id(), f.balancer->events()[0].plan_id);
  // One delivery per attached server, each carrying the published plan.
  const auto servers = f.cluster->server_ids();
  ASSERT_EQ(f.delivered.size(), servers.size());
  for (std::size_t i = 0; i < servers.size(); ++i) {
    EXPECT_EQ(f.delivered[i].first, servers[i]);
    EXPECT_EQ(f.delivered[i].second, f.balancer->current_plan());
  }
}

TEST(BalancerBase, PlanIdsIncrease) {
  Fixture f;
  f.balancer->start();
  f.balancer->publish_plan(Plan{}, RebalanceKind::kHighLoad);
  const std::uint64_t first = f.balancer->current_plan()->id();
  f.balancer->publish_plan(Plan{}, RebalanceKind::kHighLoad);
  EXPECT_GT(f.balancer->current_plan()->id(), first);
  ASSERT_FALSE(f.delivered.empty());
  EXPECT_EQ(f.delivered.back().second->id(), f.balancer->current_plan()->id());
}

TEST(BalancerBase, RebalanceKindNames) {
  EXPECT_STREQ(to_string(RebalanceKind::kChannelLevel), "channel-level");
  EXPECT_STREQ(to_string(RebalanceKind::kHighLoad), "high-load");
  EXPECT_STREQ(to_string(RebalanceKind::kLowLoad), "low-load");
  EXPECT_STREQ(to_string(RebalanceKind::kHashing), "hashing");
}

}  // namespace
}  // namespace dynamoth::core
