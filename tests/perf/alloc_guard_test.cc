// Counting-allocator guard for the zero-allocation steady-state message path.
//
// This binary replaces the global operator new/delete with counting versions
// and asserts that once the system is warm (envelope pool primed, simulator
// event slab grown, fan-out scratch and dedup structures at capacity, no
// rebalance in flight) a publish -> fan-out -> deliver cycle performs ZERO
// heap allocations per message. This is the enforcement half of the pooled
// EnvelopeRef + SmallFunction + flat-container work: any regression that
// reintroduces a per-message allocation (a std::function that outgrew its
// buffer, a shared_ptr control block, a map node on a hot lookup) fails here
// with the exact allocation count.
//
// Keep this file in its own test binary: the operator new replacement is
// process-global and should not leak into unrelated suites.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "cohort/cohort.h"
#include "common/seen_ids.h"
#include "common/types.h"
#include "harness/cluster.h"
#include "metrics/histogram.h"
#include "latency/latency_model.h"
#include "net/network.h"
#include "pubsub/envelope.h"
#include "pubsub/remote_connection.h"
#include "placement/policy.h"
#include "pubsub/server.h"
#include "sim/simulator.h"

namespace {

// Single-threaded test binary; plain counters are enough.
std::uint64_t g_new_calls = 0;

void* counted_alloc(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_new_calls;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dynamoth {
namespace {

TEST(AllocGuard, SubstratePublishFanOutDeliverIsAllocationFree) {
  // RemoteConnection publisher -> wire -> server fan-out -> 16 RemoteConnection
  // subscribers -> client delivery callbacks. The full per-message machinery
  // below the Dynamoth routing layer.
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::FixedLatencyModel>(millis(1), millis(1)),
                       Rng(7));
  const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  ps::PubSubServer::Config config;
  config.conn_drain_bytes_per_sec = 1e12;
  config.infra_drain_bytes_per_sec = 1e12;
  config.conn_output_buffer_limit = std::size_t{1} << 40;
  config.max_egress_backlog = seconds(1e6);
  ps::PubSubServer server(sim, network, server_node, config);

  constexpr std::size_t kSubscribers = 16;
  std::uint64_t got = 0;
  std::vector<std::unique_ptr<ps::RemoteConnection>> conns;
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    const NodeId cn = network.add_node({net::NodeKind::kClient, 1e9});
    conns.push_back(std::make_unique<ps::RemoteConnection>(
        sim, network, cn, server, [&got](const ps::EnvelopePtr&) { ++got; }, nullptr));
    conns.back()->subscribe("arena");
  }
  const NodeId pub_node = network.add_node({net::NodeKind::kClient, 1e9});
  ps::RemoteConnection pub(sim, network, pub_node, server, nullptr, nullptr);
  sim.run();  // settle subscriptions

  constexpr int kBatch = 64;
  std::uint64_t seq = 0;
  auto publish_batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      auto env = ps::make_envelope();
      env->id = MessageId{1, ++seq};
      env->kind = ps::MsgKind::kData;
      env->channel = "arena";
      env->payload_bytes = 128;
      env->publish_time = sim.now();
      env->publisher = 1;
      env->channel_seq = seq;
      pub.publish(std::move(env));
    }
    sim.run();
  };

  // Warm-up: grow the envelope pool, the event slab, and the server's fan-out
  // scratch to steady-state capacity.
  for (int i = 0; i < 3; ++i) publish_batch();
  const std::uint64_t delivered_before = got;

  const std::uint64_t allocs_before = g_new_calls;
  for (int i = 0; i < 2; ++i) publish_batch();
  const std::uint64_t allocs = g_new_calls - allocs_before;

  EXPECT_EQ(allocs, 0u) << "steady-state publish->deliver allocated " << allocs
                        << " times over " << 2 * kBatch << " messages";
  EXPECT_EQ(got - delivered_before, 2u * kBatch * kSubscribers);
}

TEST(AllocGuard, BitmapFanOutWithBatchingAndPatternsIsAllocationFree) {
  // The cache-conscious fan-out path at scale: enough subscribers on one
  // channel to promote the SubscriberSet to its bitmap representation, packed
  // onto few client nodes so the per-destination FanoutBatch sees long
  // same-destination runs, plus one live PSUBSCRIBE connection so the
  // compiled-pattern scan runs on every publish. All of it must stay off the
  // allocator once warm.
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::FixedLatencyModel>(millis(1), millis(1)),
                       Rng(19));
  const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  ps::PubSubServer::Config config;
  config.conn_drain_bytes_per_sec = 1e12;
  config.infra_drain_bytes_per_sec = 1e12;
  config.conn_output_buffer_limit = std::size_t{1} << 40;
  config.max_egress_backlog = seconds(1e6);
  ps::PubSubServer server(sim, network, server_node, config);

  // 80 subscribers (> SubscriberSet::kPromoteCount) on 8 nodes: 10-connection
  // same-destination runs through the batch.
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kConnsPerNode = 10;
  constexpr std::size_t kSubscribers = kNodes * kConnsPerNode;
  static_assert(kSubscribers > ps::SubscriberSet::kPromoteCount);
  std::uint64_t got = 0;
  std::vector<std::unique_ptr<ps::RemoteConnection>> conns;
  for (std::size_t n = 0; n < kNodes; ++n) {
    const NodeId cn = network.add_node({net::NodeKind::kClient, 1e9});
    for (std::size_t i = 0; i < kConnsPerNode; ++i) {
      conns.push_back(std::make_unique<ps::RemoteConnection>(
          sim, network, cn, server, [&got](const ps::EnvelopePtr&) { ++got; }, nullptr));
      conns.back()->subscribe("arena");
    }
  }
  const NodeId pat_node = network.add_node({net::NodeKind::kClient, 1e9});
  std::uint64_t pattern_got = 0;
  ps::RemoteConnection pattern_conn(
      sim, network, pat_node, server,
      [&pattern_got](const ps::EnvelopePtr&) { ++pattern_got; }, nullptr);
  pattern_conn.psubscribe("are*");
  const NodeId pub_node = network.add_node({net::NodeKind::kClient, 1e9});
  ps::RemoteConnection pub(sim, network, pub_node, server, nullptr, nullptr);
  sim.run();  // settle subscriptions
  ASSERT_TRUE(server.subscriber_set_dense("arena"));

  constexpr int kBatch = 64;
  std::uint64_t seq = 0;
  auto publish_batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      auto env = ps::make_envelope();
      env->id = MessageId{1, ++seq};
      env->kind = ps::MsgKind::kData;
      env->channel = "arena";
      env->payload_bytes = 128;
      env->publish_time = sim.now();
      env->publisher = 1;
      env->channel_seq = seq;
      pub.publish(std::move(env));
    }
    sim.run();
  };

  for (int i = 0; i < 3; ++i) publish_batch();
  const std::uint64_t delivered_before = got;

  const std::uint64_t allocs_before = g_new_calls;
  for (int i = 0; i < 2; ++i) publish_batch();
  const std::uint64_t allocs = g_new_calls - allocs_before;

  EXPECT_EQ(allocs, 0u) << "bitmap fan-out with batching allocated " << allocs
                        << " times over " << 2 * kBatch << " messages";
  EXPECT_EQ(got - delivered_before, 2u * kBatch * kSubscribers);
  EXPECT_EQ(pattern_got, 5u * kBatch);  // every batch, warm-up included
}

TEST(AllocGuard, SubscriptionChurnOnWarmChannelsIsAllocationFree) {
  // The tombstone + representation-oscillation paths, driven through the
  // server API directly: a channel whose membership swings across the
  // promote/demote thresholds every cycle, and a channel that empties to a
  // tombstoned set slot and revives. After one warm cycle the slab slots,
  // set capacities, and per-connection channel lists are all retained, so
  // steady churn must not allocate.
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::FixedLatencyModel>(millis(1), millis(1)),
                       Rng(23));
  const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  const NodeId client_node = network.add_node({net::NodeKind::kClient, 1e9});
  ps::PubSubServer::Config config;
  config.conn_drain_bytes_per_sec = 1e12;
  config.infra_drain_bytes_per_sec = 1e12;
  config.conn_output_buffer_limit = std::size_t{1} << 40;
  config.max_egress_backlog = seconds(1e6);
  ps::PubSubServer server(sim, network, server_node, config);

  constexpr std::size_t kConns = ps::SubscriberSet::kPromoteCount + 6;
  std::uint64_t got = 0;
  std::vector<ps::ConnId> ids;
  for (std::size_t i = 0; i < kConns; ++i) {
    ids.push_back(server.open_connection(
        client_node, [&got](const ps::EnvelopePtr&) { ++got; }, nullptr));
  }
  std::uint64_t seq = 0;
  auto cycle = [&] {
    // Oscillating channel: everybody in (vector -> bitmap), then most out
    // (bitmap -> vector via the hysteresis threshold).
    for (ps::ConnId id : ids) server.handle_subscribe(id, "osc");
    ASSERT_TRUE(server.subscriber_set_dense("osc"));
    for (std::size_t i = 4; i < kConns; ++i) server.handle_unsubscribe(ids[i], "osc");
    ASSERT_FALSE(server.subscriber_set_dense("osc"));
    // Tombstone channel: empty out completely, publish into the tombstone,
    // then revive the slot.
    server.handle_subscribe(ids[0], "churn");
    auto env = ps::make_envelope();
    env->id = MessageId{1, ++seq};
    env->kind = ps::MsgKind::kData;
    env->channel = "churn";
    env->payload_bytes = 64;
    env->publish_time = sim.now();
    env->publisher = 1;
    env->channel_seq = seq;
    server.handle_publish(ids[1], std::move(env));
    server.handle_unsubscribe(ids[0], "churn");  // count -> 0: tombstoned slot
    auto env2 = ps::make_envelope();
    env2->id = MessageId{1, ++seq};
    env2->kind = ps::MsgKind::kData;
    env2->channel = "churn";
    env2->payload_bytes = 64;
    env2->publish_time = sim.now();
    env2->publisher = 1;
    env2->channel_seq = seq;
    server.handle_publish(ids[1], std::move(env2));  // fan-out over the tombstone
    for (std::size_t i = 4; i < kConns; ++i) server.handle_subscribe(ids[i], "osc");
    for (ps::ConnId id : ids) server.handle_unsubscribe(id, "osc");
    sim.run();
  };

  for (int i = 0; i < 2; ++i) cycle();  // warm: intern channels, grow capacities
  const std::uint64_t delivered_before = got;
  const std::uint64_t allocs_before = g_new_calls;
  for (int i = 0; i < 4; ++i) cycle();
  const std::uint64_t allocs = g_new_calls - allocs_before;

  EXPECT_EQ(allocs, 0u) << "warm subscribe/unsubscribe churn allocated " << allocs << " times";
  EXPECT_EQ(got - delivered_before, 4u);  // one delivery per cycle (pre-tombstone publish)
  EXPECT_EQ(server.subscriber_count("osc"), 0u);
  EXPECT_EQ(server.subscriber_count("churn"), 0u);
}

TEST(AllocGuard, EndToEndClientPublishDeliverIsAllocationFree) {
  // The paper's steady-state data plane end to end: DynamothClient publisher
  // routes via its local plan, the server (with colocated LLA + dispatcher)
  // fans out, DynamothClient subscribers dedup and deliver. Measured between
  // LLA windows so only the per-message path is on the clock.
  harness::ClusterConfig cluster_config;
  cluster_config.seed = 11;
  cluster_config.initial_servers = 1;
  cluster_config.fixed_latency = true;
  cluster_config.fixed_latency_value = millis(5);
  cluster_config.server_capacity = 1e12;
  cluster_config.server_nic_headroom = 1.0;
  cluster_config.client_egress = 1e12;
  cluster_config.pubsub.conn_drain_bytes_per_sec = 1e12;
  cluster_config.pubsub.infra_drain_bytes_per_sec = 1e12;
  cluster_config.pubsub.conn_output_buffer_limit = std::size_t{1} << 40;
  cluster_config.pubsub.max_egress_backlog = seconds(1e6);
  // Modeled CPU costs only shift delivery times; zero them so each batch
  // drains inside its 50ms measurement window.
  cluster_config.pubsub.cpu_publish_cost_us = 0;
  cluster_config.pubsub.cpu_delivery_cost_us = 0;
  cluster_config.pubsub.cpu_command_cost_us = 0;
  harness::Cluster cluster(cluster_config);
  sim::Simulator& sim = cluster.sim();

  std::uint64_t got = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    cluster.add_client().subscribe("arena", [&got](const ps::EnvelopePtr&) { ++got; });
  }
  core::DynamothClient& pub = cluster.add_client();
  sim.run_for(seconds(2));  // settle subscriptions + first LLA windows

  constexpr int kBatch = 64;
  auto publish_batch = [&] {
    for (int i = 0; i < kBatch; ++i) pub.publish("arena", 128);
    // Drain deliveries without crossing into the next periodic LLA/dispatcher
    // window (those legitimately allocate snapshots, but not per message).
    sim.run_for(millis(50));
  };

  for (int i = 0; i < 3; ++i) publish_batch();
  sim.run_for(seconds(1));  // realign: next batches start window-fresh
  const std::uint64_t delivered_before = got;

  const std::uint64_t allocs_before = g_new_calls;
  for (int i = 0; i < 2; ++i) publish_batch();
  const std::uint64_t allocs = g_new_calls - allocs_before;

  EXPECT_EQ(allocs, 0u) << "end-to-end steady-state path allocated " << allocs
                        << " times over " << 2 * kBatch << " messages";
  EXPECT_EQ(got - delivered_before, 2u * kBatch * 8);
}

// Same steady-state contract as EndToEndClientPublishDeliver, but with the
// full Dynamoth balancer attached and the non-default bounded-load placement
// policy driving it. Policies run at LLA-report/decide time (which may
// allocate: rounds, plans, audit records) — the per-message path in between
// must not. The measured batches sit 200ms past the window boundary so the
// periodic report -> decide -> plan-push machinery never fires on the clock.
TEST(AllocGuard, SteadyStateWithBoundedLoadPolicyIsAllocationFree) {
  harness::ClusterConfig cluster_config;
  cluster_config.seed = 13;
  cluster_config.initial_servers = 2;
  cluster_config.fixed_latency = true;
  cluster_config.fixed_latency_value = millis(5);
  cluster_config.server_capacity = 1e12;
  cluster_config.server_nic_headroom = 1.0;
  cluster_config.client_egress = 1e12;
  cluster_config.pubsub.conn_drain_bytes_per_sec = 1e12;
  cluster_config.pubsub.infra_drain_bytes_per_sec = 1e12;
  cluster_config.pubsub.conn_output_buffer_limit = std::size_t{1} << 40;
  cluster_config.pubsub.max_egress_backlog = seconds(1e6);
  cluster_config.pubsub.cpu_publish_cost_us = 0;
  cluster_config.pubsub.cpu_delivery_cost_us = 0;
  cluster_config.pubsub.cpu_command_cost_us = 0;
  harness::Cluster cluster(cluster_config);
  sim::Simulator& sim = cluster.sim();

  core::DynamothLoadBalancer::Config lb_config;
  lb_config.placement.kind = placement::PolicyKind::kBoundedLoad;
  cluster.use_dynamoth(lb_config);

  std::uint64_t got = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    cluster.add_client().subscribe("arena", [&got](const ps::EnvelopePtr&) { ++got; });
  }
  core::DynamothClient& pub = cluster.add_client();
  sim.run_for(seconds(2));  // settle subscriptions, first LLA windows + rounds

  constexpr int kBatch = 64;
  auto publish_batch = [&] {
    for (int i = 0; i < kBatch; ++i) pub.publish("arena", 128);
    sim.run_for(millis(50));
  };

  for (int i = 0; i < 3; ++i) publish_batch();
  sim.run_for(seconds(1));      // realign to a window boundary
  sim.run_for(millis(200));     // skip the report->decide->plan-push burst
  const std::uint64_t delivered_before = got;

  const std::uint64_t allocs_before = g_new_calls;
  for (int i = 0; i < 2; ++i) publish_batch();
  const std::uint64_t allocs = g_new_calls - allocs_before;

  EXPECT_EQ(allocs, 0u) << "bounded-load: steady-state path allocated " << allocs
                        << " times over " << 2 * kBatch << " messages";
  EXPECT_EQ(got - delivered_before, 2u * kBatch * 8);
}

TEST(AllocGuard, CohortPublishAndExpandedDeliveryIsAllocationFree) {
  // The cohort steady state: one aggregate ticker publishing at N x the
  // per-member rate, one weighted wire delivery expanded into exact
  // per-member counts and a weighted histogram insert. None of it may touch
  // the allocator once warm — this is what makes 10^6 modeled users cheap.
  harness::ClusterConfig cluster_config;
  cluster_config.seed = 11;
  cluster_config.initial_servers = 1;
  cluster_config.fixed_latency = true;
  cluster_config.fixed_latency_value = millis(5);
  cluster_config.server_capacity = 1e12;
  cluster_config.server_nic_headroom = 1.0;
  cluster_config.client_egress = 1e12;
  cluster_config.pubsub.conn_drain_bytes_per_sec = 1e12;
  cluster_config.pubsub.infra_drain_bytes_per_sec = 1e12;
  cluster_config.pubsub.conn_output_buffer_limit = std::size_t{1} << 40;
  cluster_config.pubsub.max_egress_backlog = seconds(1e6);
  cluster_config.pubsub.cpu_publish_cost_us = 0;
  cluster_config.pubsub.cpu_delivery_cost_us = 0;
  cluster_config.pubsub.cpu_command_cost_us = 0;
  harness::Cluster cluster(cluster_config);
  sim::Simulator& sim = cluster.sim();

  metrics::Histogram latency;
  std::uint64_t echoes = 0;
  cohort::CohortConfig cohort_config;
  cohort_config.channel = "arena";
  cohort_config.members = 1000;
  cohort_config.publish_rate_per_member = 3.0;  // 3000 wire publications/s
  cohort_config.payload_bytes = 128;
  cohort::Cohort cohort(sim, cluster.add_client(), cohort_config, Rng(7),
                        [&echoes](SimTime) { ++echoes; }, &latency);
  cohort.start();
  sim.run_for(seconds(2));  // settle subscription, prime pools and slabs

  auto run_batch = [&] { sim.run_for(millis(50)); };  // ~150 publications

  for (int i = 0; i < 3; ++i) run_batch();
  sim.run_for(seconds(1));  // realign: next batches start window-fresh
  const cohort::CohortStats before = cohort.stats();

  const std::uint64_t allocs_before = g_new_calls;
  for (int i = 0; i < 2; ++i) run_batch();
  const std::uint64_t allocs = g_new_calls - allocs_before;

  const cohort::CohortStats after = cohort.stats();
  EXPECT_EQ(allocs, 0u) << "cohort steady-state path allocated " << allocs
                        << " times over " << after.publications - before.publications
                        << " aggregate publications";
  EXPECT_GT(after.publications, before.publications + 200);
  // Each wire delivery expanded into exactly `members` modeled deliveries.
  EXPECT_EQ(after.member_deliveries - before.member_deliveries,
            (after.delivery_events - before.delivery_events) * 1000);
  EXPECT_EQ(latency.count(), after.member_deliveries);
  EXPECT_EQ(echoes, after.echoes);
}

TEST(AllocGuard, SteadyStatePatternDeliveryIsAllocationFree) {
  // The plan-aware pattern path at the client level: wildcard subscribers
  // whose pattern has already expanded over the matching channels. Expansion
  // itself may allocate (it creates real per-channel subscriptions); the
  // per-message path afterwards — server fan-out, client dedup, pattern
  // handler dispatch, per-pattern delivery stats — must not.
  harness::ClusterConfig cluster_config;
  cluster_config.seed = 11;
  cluster_config.initial_servers = 1;
  cluster_config.fixed_latency = true;
  cluster_config.fixed_latency_value = millis(5);
  cluster_config.server_capacity = 1e12;
  cluster_config.server_nic_headroom = 1.0;
  cluster_config.client_egress = 1e12;
  cluster_config.pubsub.conn_drain_bytes_per_sec = 1e12;
  cluster_config.pubsub.infra_drain_bytes_per_sec = 1e12;
  cluster_config.pubsub.conn_output_buffer_limit = std::size_t{1} << 40;
  cluster_config.pubsub.max_egress_backlog = seconds(1e6);
  cluster_config.pubsub.cpu_publish_cost_us = 0;
  cluster_config.pubsub.cpu_delivery_cost_us = 0;
  cluster_config.pubsub.cpu_command_cost_us = 0;
  harness::Cluster cluster(cluster_config);
  sim::Simulator& sim = cluster.sim();

  core::DynamothClient& pub = cluster.add_client();
  pub.publish("pat:arena", 128);  // interns the channel the pattern expands to
  sim.run_for(millis(100));

  std::uint64_t got = 0;
  std::vector<core::DynamothClient*> subs;
  for (std::size_t i = 0; i < 8; ++i) {
    subs.push_back(&cluster.add_client());
    subs.back()->psubscribe("pat:*", [&got](const ps::EnvelopePtr&) { ++got; });
  }
  sim.run_for(seconds(2));  // expand + settle subscriptions, first LLA windows
  for (core::DynamothClient* sub : subs) {
    ASSERT_EQ(sub->pattern_channels("pat:*").size(), 1u);
  }

  constexpr int kBatch = 64;
  auto publish_batch = [&] {
    for (int i = 0; i < kBatch; ++i) pub.publish("pat:arena", 128);
    sim.run_for(millis(50));
  };

  for (int i = 0; i < 3; ++i) publish_batch();
  sim.run_for(seconds(1));  // realign: next batches start window-fresh
  const std::uint64_t delivered_before = got;

  const std::uint64_t allocs_before = g_new_calls;
  for (int i = 0; i < 2; ++i) publish_batch();
  const std::uint64_t allocs = g_new_calls - allocs_before;

  EXPECT_EQ(allocs, 0u) << "steady-state pattern delivery allocated " << allocs
                        << " times over " << 2 * kBatch << " messages";
  EXPECT_EQ(got - delivered_before, 2u * kBatch * 8);
  for (core::DynamothClient* sub : subs) {
    EXPECT_GT(sub->stats().pattern_deliveries, 0u);
  }
}

TEST(AllocGuard, EventQueueSpreadDelaysSteadyStateIsAllocationFree) {
  // A steady population of self-rescheduling events whose delays are drawn
  // log-uniformly from 1 us to 10 s, so their times differ from the ready
  // queue's base in every bit from 0 to 23: about 33 radix buckets hold
  // entries at once (up to 64), 90+ over the measured stretch. Once the
  // shared chunk free list and the front run have reached their high-water
  // marks, scheduling, refilling and firing must not touch the allocator,
  // however the entries spread over the buckets.
  constexpr int kPending = 1 << 15;
  sim::Simulator sim;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  struct Hop {
    sim::Simulator* sim;
    std::uint64_t* x;
    void operator()() const { sim->schedule_after(next_delay(*x), *this); }
    static SimTime next_delay(std::uint64_t& x) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint64_t bits = x % 24;  // delay in [2^bits, 2^(bits+1)) us
      const std::uint64_t d = (std::uint64_t{1} << bits) + (x >> 32) % (std::uint64_t{1} << bits);
      return std::min<SimTime>(static_cast<SimTime>(d), seconds(10));
    }
  };
  for (int i = 0; i < kPending; ++i) sim.schedule_after(Hop::next_delay(x), Hop{&sim, &x});
  sim.run_until(seconds(30));  // warm: every bucket's chunk demand has peaked

  const std::uint64_t allocs_before = g_new_calls;
  const std::uint64_t fired_before = sim.executed_events();
  sim.run_until(seconds(45));
  EXPECT_EQ(g_new_calls - allocs_before, 0u);
  EXPECT_GT(sim.executed_events() - fired_before, 200'000u);
  EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(kPending));
}

TEST(AllocGuard, SeenIdsSteadyStateInsertsAreAllocationFree) {
  // The client-side duplicate filter runs insert() once per received
  // publication. Once every origin is known, in-order arrivals and
  // duplicates inside existing ranges must never touch the allocator.
  constexpr std::uint64_t kOrigins = 700;  // fig7's per-client origin count
  SeenIds dedup;
  for (std::uint64_t origin = 0; origin < kOrigins; ++origin) {
    dedup.insert(MessageId{origin, 1});
    dedup.insert(MessageId{origin, 5});  // one older range: [1,1] [5,5]
  }
  const std::uint64_t allocs_before = g_new_calls;
  std::uint64_t fresh = 0;
  for (std::uint64_t seq = 6; seq < 200; ++seq) {
    for (std::uint64_t origin = 0; origin < kOrigins; ++origin) {
      fresh += dedup.insert(MessageId{origin, seq}) ? 1 : 0;                // in order
      fresh += dedup.insert(MessageId{origin, 5 + (seq - 5) / 2}) ? 1 : 0;  // newest range
      fresh += dedup.insert(MessageId{origin, 1}) ? 1 : 0;                  // older range
    }
  }
  EXPECT_EQ(g_new_calls - allocs_before, 0u);
  EXPECT_EQ(fresh, kOrigins * (200 - 6));
  EXPECT_EQ(dedup.origins(), kOrigins);
}

}  // namespace
}  // namespace dynamoth
