// Pattern-subscription equivalence property (the tentpole's correctness
// anchor): a wildcard (PSUBSCRIBE) client and an explicit client covering
// the same channels must receive EXACTLY the same message set — through
// plan-driven rebalancing, replication, and server crash/restart.
//
// Both clients run side by side in one fixed-latency cluster, so their
// subscription placements and reconnects happen at identical simulated
// instants; any divergence in the received (channel, channel_seq) sets is a
// routing failure of the pattern path, not timing jitter. (Under the King
// WAN model, clients with different RTTs re-place subscriptions at
// different instants during churn and legitimately diverge by a handful of
// messages — explicit clients among themselves included — which is why
// every scenario here pins fixed_latency.)
//
// The third test drives the full flash-crowd harness at several seeds with
// seeded-random spike schedules: the bench's equivalence gate (deliverable
// publications a wildcard listener missed) must hold at every seed, and
// replica-overlap deliveries must never produce duplicate handler calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/control.h"
#include "harness/cluster.h"
#include "harness/flashcrowd.h"
#include "sim/simulator.h"

namespace dynamoth {
namespace {

struct Arm {
  core::DynamothClient* client = nullptr;
  std::map<Channel, std::set<std::uint64_t>> seen;
  std::uint64_t handled = 0;  // raw handler calls, duplicates included

  [[nodiscard]] std::uint64_t unique() const {
    std::uint64_t total = 0;
    for (const auto& [_, seqs] : seen) total += seqs.size();
    return total;
  }
};

core::DynamothClient::Config subscriber_config() {
  core::DynamothClient::Config cc;
  cc.sweep_interval = seconds(1);
  cc.reconnect_delay = millis(200);
  cc.entry_timeout = seconds(600);
  cc.resubscribe_keepalive = true;
  return cc;
}

core::DynamothClient::Config publisher_config() {
  core::DynamothClient::Config cc = subscriber_config();
  cc.max_pending_publishes = 4096;
  cc.republish_window = seconds(15);
  return cc;
}

auto recorder(Arm& arm) {
  return [&arm](const ps::EnvelopePtr& env) {
    ++arm.handled;
    arm.seen[env->channel].insert(env->channel_seq);
  };
}

core::Plan plan_with(const std::vector<Channel>& channels,
                     const std::vector<std::vector<ServerId>>& homes,
                     core::ReplicationMode mode, std::uint64_t version) {
  core::Plan plan;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    core::PlanEntry entry;
    entry.servers = homes[i];
    entry.mode = mode;
    entry.version = version;
    plan.set_entry(channels[i], entry);
  }
  return plan;
}

void expect_same_messages(const Arm& pattern, const Arm& explicit_arm) {
  ASSERT_GT(explicit_arm.unique(), 0u);
  // Exact set equality, reported per channel so a failure names the channel
  // and the diverging sequence numbers.
  for (const auto& [channel, seqs] : explicit_arm.seen) {
    SCOPED_TRACE(testing::Message() << "channel " << channel);
    auto it = pattern.seen.find(channel);
    ASSERT_NE(it, pattern.seen.end()) << "wildcard arm never saw the channel";
    EXPECT_EQ(it->second, seqs);
  }
  EXPECT_EQ(pattern.seen.size(), explicit_arm.seen.size());
  // Replica overlap must be deduplicated on both arms: every handler call
  // delivered a distinct publication.
  EXPECT_EQ(pattern.handled, pattern.unique());
  EXPECT_EQ(explicit_arm.handled, explicit_arm.unique());
}

TEST(PatternEquivalence, SurvivesMovesAndReplication) {
  for (std::uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    harness::ClusterConfig config;
    config.seed = seed;
    config.initial_servers = 3;
    config.fixed_latency = true;
    config.fixed_latency_value = millis(8);
    harness::Cluster cluster(config);
    const auto servers = cluster.server_ids();

    const std::vector<Channel> channels = {"peq:0", "peq:1", "peq:2"};
    Arm pattern{&cluster.add_client(subscriber_config())};
    Arm explicit_arm{&cluster.add_client(subscriber_config())};
    pattern.client->psubscribe("peq:*", recorder(pattern));
    for (const Channel& c : channels) {
      explicit_arm.client->subscribe(c, recorder(explicit_arm));
    }

    std::vector<core::DynamothClient*> pubs;
    for (std::size_t i = 0; i < channels.size(); ++i) {
      pubs.push_back(&cluster.add_client(publisher_config()));
    }
    sim::PeriodicTask traffic(cluster.sim(), millis(50), [&] {
      for (std::size_t i = 0; i < channels.size(); ++i) {
        pubs[i]->publish(channels[i], 100);
      }
    });
    cluster.sim().run_for(seconds(1));
    traffic.start();
    cluster.sim().run_for(seconds(3));

    // Round 1: scatter every channel onto a different single owner.
    cluster.install_plan(plan_with(
        channels, {{servers[1]}, {servers[2]}, {servers[0]}},
        core::ReplicationMode::kNone, 1));
    cluster.sim().run_for(seconds(4));

    // Round 2: replicate each channel onto two servers (all-subscribers
    // mode: both replicas deliver; clients must dedup the overlap).
    cluster.install_plan(plan_with(
        channels,
        {{servers[1], servers[0]}, {servers[2], servers[1]}, {servers[0], servers[2]}},
        core::ReplicationMode::kAllSubscribers, 2));
    cluster.sim().run_for(seconds(4));

    // Round 3: collapse back to single owners.
    cluster.install_plan(plan_with(
        channels, {{servers[0]}, {servers[0]}, {servers[1]}},
        core::ReplicationMode::kNone, 3));
    cluster.sim().run_for(seconds(4));
    traffic.stop();
    cluster.sim().run_for(seconds(5));

    expect_same_messages(pattern, explicit_arm);
  }
}

TEST(PatternEquivalence, SurvivesCrashAndRestart) {
  for (std::uint64_t seed : {7u, 19u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    harness::ClusterConfig config;
    config.seed = seed;
    config.initial_servers = 3;
    config.fixed_latency = true;
    config.fixed_latency_value = millis(8);
    harness::Cluster cluster(config);

    core::DynamothLoadBalancer::Config lb;
    lb.t_wait = seconds(5);
    lb.base.detect_failures = true;
    lb.base.detector.timeout = seconds(3);
    cluster.use_dynamoth(lb);

    const std::vector<Channel> channels = {"per:0", "per:1", "per:2", "per:3"};
    Arm pattern{&cluster.add_client(subscriber_config())};
    Arm explicit_arm{&cluster.add_client(subscriber_config())};
    pattern.client->psubscribe("per:*", recorder(pattern));
    for (const Channel& c : channels) {
      explicit_arm.client->subscribe(c, recorder(explicit_arm));
    }
    std::vector<core::DynamothClient*> pubs;
    for (std::size_t i = 0; i < channels.size(); ++i) {
      pubs.push_back(&cluster.add_client(publisher_config()));
    }
    sim::PeriodicTask traffic(cluster.sim(), millis(50), [&] {
      for (std::size_t i = 0; i < channels.size(); ++i) {
        pubs[i]->publish(channels[i], 100);
      }
    });
    cluster.sim().run_for(seconds(1));
    traffic.start();
    cluster.sim().run_for(seconds(5));

    // Kill a server that owns at least one of the channels (the base ring
    // spreads four channels over three servers, so pick the owner of the
    // first channel); the detector re-homes its channels and both arms
    // resubscribe through the emergency plan.
    const ServerId victim = cluster.base_ring()->lookup(channels[0]);
    cluster.crash_server(victim);
    cluster.sim().run_for(seconds(10));
    cluster.restart_server(victim);
    cluster.sim().run_for(seconds(10));
    traffic.stop();
    cluster.sim().run_for(seconds(5));

    // The crash window may drop in-flight publications for everyone; the
    // property is that the wildcard arm loses EXACTLY what the explicit arm
    // loses — same sets, no duplicates.
    expect_same_messages(pattern, explicit_arm);
  }
}

TEST(PatternEquivalence, FlashCrowdHarnessHoldsAtRandomSeeds) {
  for (std::uint64_t seed : {2u, 13u, 41u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    harness::FlashCrowdConfig config;
    config.seed = seed;
    config.duration = seconds(30);
    config.drain = seconds(15);
    config.cluster.fixed_latency = true;
    harness::FlashCrowdSchedule::RandomParams params;
    params.horizon = seconds(15);
    params.spikes = 2;
    params.min_factor = 20.0;
    params.max_factor = 50.0;  // stays under the NIC line rate (see header)
    config.spikes =
        harness::FlashCrowdSchedule::random(seed, params, harness::FlashCrowdConfig::kChannels);
    const harness::FlashCrowdResult r = harness::run_flashcrowd(config);

    EXPECT_EQ(r.pattern_missing, 0u);
    EXPECT_GT(r.patterns_expanded, 0u);
    EXPECT_GT(r.published, 0u);
    EXPECT_GT(r.pattern_delivered_unique, 0u);
    // Overlapping spikes drive enough churn that publishers exercise the
    // at-least-once republish window, and an outage flushes up to 4096
    // stashed publishes at once, so copies of one id can arrive more than
    // 8192 other ids apart. The client's dedup is exact per publisher, so
    // no copy reaches a handler twice on either arm.
    EXPECT_EQ(r.pattern_duplicates, 0u);
    EXPECT_EQ(r.explicit_duplicates, 0u);
  }
}

}  // namespace
}  // namespace dynamoth
