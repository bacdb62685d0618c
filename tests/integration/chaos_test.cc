// Chaos scenarios driven through the fault-injection subsystem: partitions
// that heal, dispatcher processes dying with publications in flight, and a
// failure detector fed silence that is network trouble rather than death.
// Each scenario asserts on the detector/audit records the control plane
// leaves behind, not just on end-state delivery counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fault/schedule.h"
#include "harness/cluster.h"
#include "harness/failover.h"

namespace dynamoth {
namespace {

using LivenessKind = core::BalancerBase::LivenessEvent::Kind;

// ---------------------------------------------------------------------------
// Partition, then heal: the victim is cut off long enough for the detector to
// fire and the fleet to re-home its channels; once healed it must rejoin.
// Clients keep both the old and the re-homed placement alive for a while, and
// the reliability layer replays across the gap — message-id dedup has to
// collapse all of that to exactly-once delivery.
TEST(Chaos, PartitionThenHealNoDuplicatesNoLoss) {
  harness::FailoverConfig config;
  config.seed = 11;
  config.reliability = true;
  config.duration = seconds(40);
  config.drain = seconds(20);
  config.schedule.partition(seconds(12), 1, seconds(12));

  const harness::FailoverResult r = harness::run_failover(config);

  ASSERT_GT(r.published, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicates, 0u);
  // client_totals sums every counter over every client.
  EXPECT_EQ(r.client_totals.published, r.published);
  EXPECT_GT(r.client_totals.received, 0u);

  // The detector noticed the silence and the healed server rejoined.
  bool suspected = false;
  bool rejoined = false;
  for (const auto& ev : r.liveness) {
    suspected = suspected || ev.kind == LivenessKind::kSuspected;
    rejoined = rejoined || ev.kind == LivenessKind::kRejoined;
  }
  EXPECT_TRUE(suspected);
  EXPECT_TRUE(rejoined);
  EXPECT_GE(r.detection_latency, 0);
}

// ---------------------------------------------------------------------------
// Crash through the injector API: the emergency rebalance must run outside
// the periodic round and leave an audit record naming the suspected server.
TEST(Chaos, CrashLeavesEmergencyAuditTrail) {
  harness::FailoverConfig config;
  config.seed = 13;
  config.duration = seconds(30);
  config.drain = seconds(10);
  config.schedule.crash(seconds(10));  // permanent

  const harness::FailoverResult r = harness::run_failover(config);

  ASSERT_EQ(r.fault_stats.crashes, 1u);
  EXPECT_GE(r.lb_stats.emergency_rebalances, 1u);
  EXPECT_GE(r.first_fault, 0);
  ASSERT_GE(r.detection_latency, 0);
  // Detector timeout plus two balancer ticks bounds detection.
  EXPECT_LE(r.detection_latency, config.detector_timeout + 2 * seconds(1));

  bool suspected = false;
  for (const auto& ev : r.liveness) {
    suspected = suspected || ev.kind == LivenessKind::kSuspected;
  }
  EXPECT_TRUE(suspected);
  EXPECT_NE(r.audit_timeline.find("emergency"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dispatcher crash with a wrong-server publication in flight. The pub/sub
// server keeps serving, but with its dispatcher dead nobody forwards the
// publication to the real owner — it is swallowed, not misdelivered. After
// the dispatcher restarts, the same stale publisher gets forwarded and
// corrected.
TEST(Chaos, DispatcherCrashSwallowsInFlightForward) {
  harness::ClusterConfig cluster_config;
  cluster_config.seed = 17;
  cluster_config.initial_servers = 2;
  cluster_config.fixed_latency = true;
  cluster_config.fixed_latency_value = millis(10);
  harness::Cluster cluster(cluster_config);

  const auto servers = cluster.server_ids();
  const ServerId a = servers[0];
  const ServerId b = servers[1];
  const Channel c = "moved";

  // Every dispatcher knows the channel lives on B (version 2).
  core::Plan plan;
  core::PlanEntry owned;
  owned.servers = {b};
  owned.version = 2;
  plan.set_entry(c, owned);
  cluster.install_plan(plan);

  auto& sub = cluster.add_client();
  sub.absorb_entry(c, owned);
  int got = 0;
  sub.subscribe(c, [&](const ps::EnvelopePtr&) { ++got; });

  // The publisher still believes in the stale version-1 placement on A.
  auto& pub = cluster.add_client();
  core::PlanEntry stale;
  stale.servers = {a};
  stale.version = 1;
  pub.absorb_entry(c, stale);
  cluster.sim().run_for(seconds(2));

  // Publish toward A, then kill A's dispatcher while the message is on the
  // wire (1 ms into a 10 ms flight). The server accepts the publication but
  // nothing observes it: no forward, no wrong-server reply.
  pub.publish(c);
  cluster.sim().run_for(millis(1));
  cluster.crash_dispatcher(a);
  cluster.sim().run_for(seconds(2));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(cluster.dispatcher(a).stats().forwards_to_owner, 0u);

  // Restart and re-install the plan (no balancer here to replay it).
  cluster.restart_dispatcher(a);
  cluster.install_plan(plan);
  cluster.sim().run_for(seconds(1));

  pub.publish(c);
  cluster.sim().run_for(seconds(2));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(cluster.dispatcher(a).stats().forwards_to_owner, 1u);
  EXPECT_EQ(cluster.dispatcher(a).stats().wrong_server_replies, 1u);
  EXPECT_GE(pub.stats().wrong_server_replies, 1u);
}

// ---------------------------------------------------------------------------
// LLA silence without a dead server: monitoring traffic to the balancer is
// lost, so the detector (correctly, from its evidence) suspects the server
// and routes around it. When reports flow again the server must be
// re-attached automatically — a false positive costs capacity, never
// correctness.
TEST(Chaos, LlaSilenceFalsePositiveRejoins) {
  harness::ClusterConfig cluster_config;
  cluster_config.seed = 19;
  cluster_config.initial_servers = 3;
  cluster_config.fixed_latency = true;
  cluster_config.fixed_latency_value = millis(10);
  harness::Cluster cluster(cluster_config);

  core::DynamothLoadBalancer::Config lb_config;
  lb_config.t_wait = seconds(600);  // no load-driven plans during the test
  lb_config.base.detect_failures = true;
  lb_config.base.detector.timeout = seconds(3);
  lb_config.max_servers = 3;
  auto& lb = cluster.use_dynamoth(lb_config);

  const ServerId victim = cluster.server_ids().front();
  cluster.sim().run_for(seconds(3));
  ASSERT_EQ(lb.active_server_count(), 3u);

  // Drop (essentially) every report on the victim -> balancer link. The
  // server itself is healthy and keeps serving; only monitoring goes dark.
  cluster.network().set_link_loss(victim, cluster.balancer_node(), 0.999999);
  cluster.sim().run_for(seconds(8));

  ASSERT_FALSE(lb.liveness_events().empty());
  bool suspected_victim = false;
  for (const auto& ev : lb.liveness_events()) {
    suspected_victim = suspected_victim ||
                       (ev.kind == LivenessKind::kSuspected && ev.server == victim);
  }
  EXPECT_TRUE(suspected_victim);
  EXPECT_EQ(lb.active_server_count(), 2u);

  // The emergency audit record names the suspect.
  bool audited = false;
  for (const auto& rec : lb.audit().records()) {
    audited = audited || rec.suspected_server == victim;
  }
  EXPECT_TRUE(audited);

  // Heal the link: the next report re-attaches the server.
  cluster.network().set_link_loss(victim, cluster.balancer_node(), 0);
  cluster.sim().run_for(seconds(5));

  bool rejoined_victim = false;
  for (const auto& ev : lb.liveness_events()) {
    rejoined_victim = rejoined_victim ||
                      (ev.kind == LivenessKind::kRejoined && ev.server == victim);
  }
  EXPECT_TRUE(rejoined_victim);
  EXPECT_EQ(lb.active_server_count(), 3u);
}

}  // namespace
}  // namespace dynamoth
