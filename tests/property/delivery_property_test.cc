// Property-based tests of the paper's central guarantee: "messages are
// guaranteed to be received by all subscribers despite the reconfiguration"
// (Section I), with exactly-once delivery at the client library.
//
// Randomized plan churn (migrations, replication flips, replica resizes) is
// thrown at a fixed subscriber population under continuous traffic, across
// seeds and latency models; the invariant is checked after quiescence.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "harness/cluster.h"

namespace dynamoth {
namespace {

struct ChurnParams {
  std::uint64_t seed;
  bool king_latency;       // heavy-tail WAN vs fixed
  bool allow_replication;  // include replicated entries in the churn
};

std::string param_name(const testing::TestParamInfo<ChurnParams>& info) {
  return "seed" + std::to_string(info.param.seed) +
         (info.param.king_latency ? "_king" : "_fixed") +
         (info.param.allow_replication ? "_repl" : "_plain");
}

class DeliveryChurn : public testing::TestWithParam<ChurnParams> {};

TEST_P(DeliveryChurn, EveryStableSubscriberReceivesEveryMessageExactlyOnce) {
  const ChurnParams param = GetParam();

  harness::ClusterConfig config;
  config.seed = param.seed;
  config.initial_servers = 3;
  config.fixed_latency = !param.king_latency;
  config.fixed_latency_value = millis(12);
  // Roomy servers: this test is about routing correctness, not overload.
  config.server_capacity = 20e6;
  config.pubsub.conn_drain_bytes_per_sec = 10e6;
  harness::Cluster cluster(config);
  Rng rng = cluster.fork_rng("churn");

  constexpr int kChannels = 6;
  constexpr int kSubscribersPerChannel = 4;
  constexpr int kPublishers = 6;

  std::vector<Channel> channels;
  for (int i = 0; i < kChannels; ++i) channels.push_back("ch" + std::to_string(i));

  // Stable subscribers: subscribe once, never leave.
  struct Sub {
    core::DynamothClient* client;
    std::map<Channel, std::set<std::uint64_t>> seen;  // channel -> unique ids
    std::map<Channel, int> delivered;                 // handler invocations
  };
  std::vector<std::unique_ptr<Sub>> subs;
  for (const Channel& c : channels) {
    for (int i = 0; i < kSubscribersPerChannel; ++i) {
      auto sub = std::make_unique<Sub>();
      sub->client = &cluster.add_client();
      Sub* raw = sub.get();
      sub->client->subscribe(c, [raw, c](const ps::EnvelopePtr& env) {
        raw->seen[c].insert(env->id.origin * 1'000'000 + env->id.seq);
        raw->delivered[c] += 1;
      });
      subs.push_back(std::move(sub));
    }
  }

  std::vector<core::DynamothClient*> publishers;
  for (int i = 0; i < kPublishers; ++i) publishers.push_back(&cluster.add_client());
  cluster.sim().run_for(seconds(2));

  // Continuous traffic: every publisher hits a random channel every 100ms.
  std::map<Channel, int> published;
  sim::PeriodicTask traffic(cluster.sim(), millis(100), [&] {
    for (auto* p : publishers) {
      const Channel& c =
          channels[static_cast<std::size_t>(rng.uniform_int(0, kChannels - 1))];
      p->publish(c, 80);
      published[c] += 1;
    }
  });
  traffic.start();

  // Random plan churn every ~4s for 40s. The plan is cumulative: like the
  // paper's global plans, it always carries every mapped channel (a partial
  // plan would silently unmap untouched channels back to hash fallback).
  const auto servers = cluster.server_ids();
  std::map<Channel, std::uint64_t> versions;
  core::Plan global_plan;
  sim::PeriodicTask churn(cluster.sim(), seconds(4), [&] {
    core::Plan& plan = global_plan;
    for (const Channel& c : channels) {
      if (!rng.chance(0.6)) continue;  // this channel changes
      core::PlanEntry entry;
      entry.version = ++versions[c];
      const int mode_roll =
          param.allow_replication ? static_cast<int>(rng.uniform_int(0, 2)) : 0;
      if (mode_roll == 0) {
        entry.mode = core::ReplicationMode::kNone;
        entry.servers = {servers[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(servers.size()) - 1))]};
      } else {
        entry.mode = mode_roll == 1 ? core::ReplicationMode::kAllSubscribers
                                    : core::ReplicationMode::kAllPublishers;
        // 2 or 3 replicas out of the fleet.
        std::vector<ServerId> members(servers.begin(), servers.end());
        if (rng.chance(0.5)) members.resize(2);
        entry.servers = members;
      }
      plan.set_entry(c, entry);
    }
    cluster.install_plan(plan);
  });
  churn.start();

  cluster.sim().run_for(seconds(40));
  traffic.stop();
  churn.stop();
  cluster.sim().run_for(seconds(20));  // quiesce: everything in flight lands

  for (const Channel& c : channels) {
    for (const auto& sub : subs) {
      if (!sub->client->subscribed(c)) continue;
      EXPECT_EQ(sub->seen[c].size(), static_cast<std::size_t>(published[c]))
          << "channel " << c << ": lost or phantom messages";
      EXPECT_EQ(sub->delivered[c], published[c])
          << "channel " << c << ": duplicate deliveries leaked past dedup";
    }
  }
}

// Static storage zeroes the padding bytes that gtest prints in each listed
// test name, so the names do not change from build to build.
constexpr ChurnParams kChurnCases[] = {
    {101, false, false}, {102, false, false}, {103, false, true}, {104, false, true},
    {105, true, false},  {106, true, true},   {107, true, true},  {108, true, false},
};

INSTANTIATE_TEST_SUITE_P(Churn, DeliveryChurn, testing::ValuesIn(kChurnCases), param_name);

// After churn stops, the lazy propagation must converge: publishers stop
// being redirected.
class ConvergenceChurn : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvergenceChurn, WrongServerRepliesStopAfterChurnEnds) {
  harness::ClusterConfig config;
  config.seed = GetParam();
  config.initial_servers = 3;
  config.fixed_latency = true;
  config.fixed_latency_value = millis(10);
  config.server_capacity = 20e6;
  harness::Cluster cluster(config);
  Rng rng = cluster.fork_rng("conv");

  const Channel c = "converge";
  auto& sub = cluster.add_client();
  sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  auto& pub = cluster.add_client();

  sim::PeriodicTask traffic(cluster.sim(), millis(100), [&] { pub.publish(c, 64); });
  traffic.start();

  const auto servers = cluster.server_ids();
  std::uint64_t version = 0;
  sim::PeriodicTask churn(cluster.sim(), seconds(3), [&] {
    core::Plan plan;
    core::PlanEntry entry;
    entry.version = ++version;
    entry.mode = core::ReplicationMode::kNone;
    entry.servers = {servers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(servers.size()) - 1))]};
    plan.set_entry(c, entry);
    cluster.install_plan(plan);
  });
  churn.start();
  cluster.sim().run_for(seconds(20));
  churn.stop();

  // Let the last reconfiguration settle, then measure redirects.
  cluster.sim().run_for(seconds(5));
  const auto redirects_before = pub.stats().wrong_server_replies;
  cluster.sim().run_for(seconds(10));
  EXPECT_EQ(pub.stats().wrong_server_replies, redirects_before)
      << "publisher still being redirected after churn ended";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceChurn, testing::Values(7u, 8u, 9u, 10u));

}  // namespace
}  // namespace dynamoth
