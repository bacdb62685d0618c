// Google-benchmark microbenchmarks for the hot data-plane and control-plane
// primitives: consistent-hash lookups, plan resolution/copying, message
// dedup, histogram recording, glob matching and raw simulator throughput.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/channel_table.h"
#include "harness/cluster.h"
#include "common/rng.h"
#include "common/seen_ids.h"
#include "core/consistent_hash.h"
#include "core/plan.h"
#include "latency/latency_model.h"
#include "mammoth/experiments.h"
#include "mammoth/sharded_experiment.h"
#include "metrics/histogram.h"
#include "net/network.h"
#include "pubsub/server.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"

namespace {

using namespace dynamoth;

std::vector<Channel> make_channels(int n) {
  std::vector<Channel> channels;
  channels.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) channels.push_back("tile:" + std::to_string(i % 40) + ":" +
                                                 std::to_string(i / 40));
  return channels;
}

void BM_RingLookup(benchmark::State& state) {
  core::ConsistentHashRing ring(64);
  for (ServerId s = 0; s < static_cast<ServerId>(state.range(0)); ++s) ring.add_server(s);
  const auto channels = make_channels(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.lookup(channels[i++ & 1023]));
  }
}
BENCHMARK(BM_RingLookup)->Arg(1)->Arg(4)->Arg(8);

void BM_RingAddRemoveServer(benchmark::State& state) {
  core::ConsistentHashRing ring(64);
  for (ServerId s = 0; s < 8; ++s) ring.add_server(s);
  for (auto _ : state) {
    ring.add_server(99);
    ring.remove_server(99);
  }
}
BENCHMARK(BM_RingAddRemoveServer);

void BM_PlanResolveExplicit(benchmark::State& state) {
  core::ConsistentHashRing ring(64);
  ring.add_server(0);
  ring.add_server(1);
  core::Plan plan;
  const auto channels = make_channels(static_cast<int>(state.range(0)));
  for (const Channel& c : channels) {
    core::PlanEntry entry;
    entry.servers = {0};
    entry.version = 1;
    plan.set_entry(c, entry);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.resolve(channels[i++ % channels.size()], ring));
  }
}
BENCHMARK(BM_PlanResolveExplicit)->Arg(64)->Arg(1024);

void BM_PlanResolveFallback(benchmark::State& state) {
  core::ConsistentHashRing ring(64);
  for (ServerId s = 0; s < 4; ++s) ring.add_server(s);
  core::Plan plan;  // empty: everything falls back to the ring
  const auto channels = make_channels(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.resolve(channels[i++ & 1023], ring));
  }
}
BENCHMARK(BM_PlanResolveFallback);

void BM_PlanResolveView(benchmark::State& state) {
  // The dispatcher's per-publication path: resolve by interned id, no
  // PlanEntry copy, ring consulted only on fallback misses.
  core::ConsistentHashRing ring(64);
  ring.add_server(0);
  ring.add_server(1);
  core::Plan plan;
  const auto channels = make_channels(static_cast<int>(state.range(0)));
  for (const Channel& c : channels) {
    core::PlanEntry entry;
    entry.servers = {0};
    entry.version = 1;
    plan.set_entry(c, entry);
  }
  std::vector<ChannelId> ids;
  ids.reserve(channels.size());
  for (const Channel& c : channels) ids.push_back(intern_channel(c));
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % ids.size();
    benchmark::DoNotOptimize(plan.resolve_view(ids[k], channels[k], ring).primary());
  }
}
BENCHMARK(BM_PlanResolveView)->Arg(64)->Arg(1024);

void BM_ChannelIntern(benchmark::State& state) {
  // Steady-state interning: every name already known, so this is the cost
  // Envelope::channel_id() pays on the first lookup of a reused channel.
  const auto channels = make_channels(1024);
  for (const Channel& c : channels) intern_channel(c);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(intern_channel(channels[i++ & 1023]));
  }
}
BENCHMARK(BM_ChannelIntern);

void BM_PlanCopy(benchmark::State& state) {
  core::Plan plan;
  for (const Channel& c : make_channels(static_cast<int>(state.range(0)))) {
    core::PlanEntry entry;
    entry.servers = {0, 1, 2};
    entry.version = 3;
    plan.set_entry(c, entry);
  }
  for (auto _ : state) {
    core::Plan copy = plan;  // what every rebalancing round does
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_PlanCopy)->Arg(64)->Arg(512)->Arg(4096);

/// Client-side dedup of fresh in-order ids, round-robin over Arg origins:
/// one publisher, or 700 interleaved ones (fig7's per-client origin count).
void BM_DedupInsert(benchmark::State& state) {
  const auto origins = static_cast<std::uint64_t>(state.range(0));
  SeenIds dedup;
  std::uint64_t origin = 0;
  std::uint64_t seq = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedup.insert(MessageId{origin, seq}));
    if (++origin == origins) {
      origin = 0;
      ++seq;
    }
  }
}
BENCHMARK(BM_DedupInsert)->Arg(1)->Arg(700);

void BM_HistogramRecord(benchmark::State& state) {
  metrics::Histogram histogram;
  Rng rng(1);
  for (auto _ : state) {
    histogram.record(static_cast<std::int64_t>(rng.uniform(100, 400000)));
  }
  benchmark::DoNotOptimize(histogram.percentile(99));
}
BENCHMARK(BM_HistogramRecord);

void BM_GlobMatch(benchmark::State& state) {
  const std::string pattern = "tile:*:7";
  const std::string channel = "tile:1234:7";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ps::PubSubServer::glob_match(pattern, channel));
  }
}
BENCHMARK(BM_GlobMatch);

void BM_SimulatorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    int fired = 0;
    state.ResumeTiming();
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_at(i, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorThroughput);

void BM_SimulatorCancel(benchmark::State& state) {
  // Timers armed and cancelled before firing: the PeriodicTask / timeout
  // pattern, where most scheduled events never execute.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(10'000);
    state.ResumeTiming();
    for (int i = 0; i < 10'000; ++i) ids.push_back(sim.schedule_at(i, [] {}));
    for (const sim::EventId& id : ids) sim.cancel(id);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorCancel);

// Server config with drains and buffers opened wide: the benchmarks below
// measure the fan-out machinery, not the congestion model.
ps::PubSubServer::Config unconstrained_server_config() {
  ps::PubSubServer::Config config;
  config.conn_drain_bytes_per_sec = 1e12;
  config.infra_drain_bytes_per_sec = 1e12;
  config.conn_output_buffer_limit = std::size_t{1} << 40;
  config.max_egress_backlog = seconds(1e6);
  return config;
}

ps::EnvelopePtr make_bench_envelope(const Channel& channel, std::uint64_t seq) {
  auto env = ps::make_envelope();
  env->id = MessageId{1, seq};
  env->kind = ps::MsgKind::kData;
  env->channel = channel;
  env->payload_bytes = 128;
  env->publisher = 1;
  env->channel_seq = seq;
  return env;
}

void BM_PublishFanout(benchmark::State& state) {
  // One publication fanned out to N subscriber connections through the full
  // server path: recipient collection, CPU accounting, per-connection drain
  // modelling and delivery scheduling, then the deliveries themselves.
  const auto subs = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::FixedLatencyModel>(millis(1), millis(1)),
                       Rng(7));
  const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  ps::PubSubServer server(sim, network, server_node, unconstrained_server_config());

  std::uint64_t got = 0;
  for (std::size_t i = 0; i < subs; ++i) {
    const NodeId cn = network.add_node({net::NodeKind::kClient, 1e9});
    const ps::ConnId c =
        server.open_connection(cn, [&got](const ps::EnvelopePtr&) { ++got; }, nullptr);
    server.handle_subscribe(c, "arena");
  }
  const ps::ConnId pub =
      server.open_connection(network.add_node({net::NodeKind::kClient, 1e9}), nullptr, nullptr);

  auto env = ps::make_envelope();
  env->id = MessageId{1, 1};
  env->kind = ps::MsgKind::kData;
  env->channel = "arena";
  env->payload_bytes = 200;
  env->publisher = 1;

  for (auto _ : state) {
    server.handle_publish(pub, env);
    sim.run();
  }
  benchmark::DoNotOptimize(got);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(subs));
}
BENCHMARK(BM_PublishFanout)->Arg(16)->Arg(256);

void BM_FanoutDense(benchmark::State& state) {
  // The cache-conscious fan-out core: N subscribers on ONE channel, packed 16
  // connections per client node. Past 64 subscribers the SubscriberSet runs
  // in bitmap mode, and the per-destination FanoutBatch sees 16-long
  // same-destination runs instead of alternating node lookups.
  const auto subs = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::FixedLatencyModel>(millis(1), millis(1)),
                       Rng(7));
  const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  ps::PubSubServer server(sim, network, server_node, unconstrained_server_config());

  std::uint64_t got = 0;
  NodeId cn = kInvalidNode;
  for (std::size_t i = 0; i < subs; ++i) {
    if (i % 16 == 0) cn = network.add_node({net::NodeKind::kClient, 1e9});
    const ps::ConnId c =
        server.open_connection(cn, [&got](const ps::EnvelopePtr&) { ++got; }, nullptr);
    server.handle_subscribe(c, "fan:dense");
  }
  const ps::ConnId pub =
      server.open_connection(network.add_node({net::NodeKind::kClient, 1e9}), nullptr, nullptr);

  std::uint64_t seq = 0;
  for (auto _ : state) {
    server.handle_publish(pub, make_bench_envelope("fan:dense", ++seq));
    sim.run();
  }
  benchmark::DoNotOptimize(got);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(subs));
}
BENCHMARK(BM_FanoutDense)->Arg(64)->Arg(1024);

void BM_FanoutSparseChannels(benchmark::State& state) {
  // Many small channels, publishes round-robined across them: per-publish
  // cost is dominated by the id-indexed ChannelHot lookup and fan-out setup,
  // not the subscriber walk. This is the workload shape where the old
  // per-channel hash probe paid two cache misses before the first delivery.
  constexpr std::size_t kChannels = 256;
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::FixedLatencyModel>(millis(1), millis(1)),
                       Rng(7));
  const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  ps::PubSubServer server(sim, network, server_node, unconstrained_server_config());

  std::vector<Channel> channels;
  channels.reserve(kChannels);
  for (std::size_t i = 0; i < kChannels; ++i) channels.push_back("sp:" + std::to_string(i));
  std::uint64_t got = 0;
  const NodeId cn = network.add_node({net::NodeKind::kClient, 1e9});
  for (const Channel& ch : channels) {
    for (int s = 0; s < 2; ++s) {
      const ps::ConnId c =
          server.open_connection(cn, [&got](const ps::EnvelopePtr&) { ++got; }, nullptr);
      server.handle_subscribe(c, ch);
    }
  }
  const ps::ConnId pub =
      server.open_connection(network.add_node({net::NodeKind::kClient, 1e9}), nullptr, nullptr);

  constexpr int kBatch = 64;
  std::uint64_t seq = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      server.handle_publish(pub, make_bench_envelope(channels[next++ % kChannels], ++seq));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(got);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_FanoutSparseChannels);

void BM_FanoutChurn(benchmark::State& state) {
  // The control-plane half of the fan-out table: membership oscillating
  // across the promote/demote thresholds plus a channel that empties to a
  // tombstoned slot and revives. Steady-state churn reuses slab slots and
  // retained capacities; nothing here should touch the allocator.
  constexpr std::size_t kConns = 96;  // crosses the 64-subscriber promote line
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::FixedLatencyModel>(millis(1), millis(1)),
                       Rng(7));
  const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  ps::PubSubServer server(sim, network, server_node, unconstrained_server_config());

  const NodeId cn = network.add_node({net::NodeKind::kClient, 1e9});
  std::vector<ps::ConnId> conns;
  conns.reserve(kConns);
  for (std::size_t i = 0; i < kConns; ++i) {
    conns.push_back(server.open_connection(cn, nullptr, nullptr));
  }
  std::int64_t ops = 0;
  for (auto _ : state) {
    for (ps::ConnId c : conns) server.handle_subscribe(c, "fan:osc");  // -> bitmap
    for (std::size_t i = 4; i < kConns; ++i) {
      server.handle_unsubscribe(conns[i], "fan:osc");  // -> vector (hysteresis)
    }
    for (std::size_t i = 1; i < 4; ++i) {
      server.handle_unsubscribe(conns[i], "fan:osc");
    }
    server.handle_unsubscribe(conns[0], "fan:osc");  // empty: tombstoned slot
    ops += static_cast<std::int64_t>(2 * kConns);
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_FanoutChurn);

void BM_FanoutPatternScan(benchmark::State& state) {
  // P live PSUBSCRIBE connections consulted on every publish. All but one
  // pattern miss the published channel; the server's first-byte bucket index
  // never even visits them (the misses all start with 't', the published
  // channel with 'a'), so cost should stay flat as P grows — the 512-pattern
  // point guards exactly that. The one hit keeps the delivery path honest.
  const auto pats = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::Network network(sim, std::make_unique<net::FixedLatencyModel>(millis(1), millis(1)),
                       Rng(7));
  const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e12});
  ps::PubSubServer server(sim, network, server_node, unconstrained_server_config());

  std::uint64_t got = 0;
  const NodeId cn = network.add_node({net::NodeKind::kClient, 1e9});
  for (std::size_t i = 0; i + 1 < pats; ++i) {
    const ps::ConnId c =
        server.open_connection(cn, [&got](const ps::EnvelopePtr&) { ++got; }, nullptr);
    server.handle_psubscribe(c, "tile:" + std::to_string(i) + ":*");  // misses "arena:*"
  }
  const ps::ConnId hit =
      server.open_connection(cn, [&got](const ps::EnvelopePtr&) { ++got; }, nullptr);
  server.handle_psubscribe(hit, "arena:*");
  const ps::ConnId pub =
      server.open_connection(network.add_node({net::NodeKind::kClient, 1e9}), nullptr, nullptr);

  constexpr int kBatch = 64;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      server.handle_publish(pub, make_bench_envelope("arena:7", ++seq));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(got);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_FanoutPatternScan)->Arg(8)->Arg(64)->Arg(512);

void BM_MessagePathSubstrate(benchmark::State& state) {
  // Steady-state publish -> deliver through the substrate client stubs: a
  // RemoteConnection publisher sends over the simulated wire, the server
  // fans out to N RemoteConnection subscribers, deliveries arrive at the
  // client side. Exercises the full per-message machinery (envelope
  // construction, command transport callbacks, fan-out, delivery callbacks)
  // without the Dynamoth routing layer on top.
  const auto subs = static_cast<std::size_t>(state.range(0));
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

  std::uint64_t got = 0;
  std::vector<std::unique_ptr<ps::RemoteConnection>> conns;
  for (std::size_t i = 0; i < subs; ++i) {
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
  for (auto _ : state) {
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
  }
  benchmark::DoNotOptimize(got);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_MessagePathSubstrate)->Arg(1)->Arg(16)->Arg(64);

void BM_MessagePathE2E(benchmark::State& state) {
  // The paper's steady-state data plane end to end: a DynamothClient
  // publisher routes through its local plan, the command crosses the wire,
  // the server (with colocated LLA + dispatcher observers) fans out, and N
  // DynamothClient subscribers dedup and deliver to their handlers.
  const auto subs = static_cast<std::size_t>(state.range(0));
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
  harness::Cluster cluster(cluster_config);
  sim::Simulator& sim = cluster.sim();

  std::uint64_t got = 0;
  for (std::size_t i = 0; i < subs; ++i) {
    cluster.add_client().subscribe("arena", [&got](const ps::EnvelopePtr&) { ++got; });
  }
  core::DynamothClient& pub = cluster.add_client();
  sim.run_for(seconds(2));  // settle subscriptions + first LLA windows

  constexpr int kBatch = 64;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) pub.publish("arena", 128);
    sim.run_for(millis(200));
  }
  benchmark::DoNotOptimize(got);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_MessagePathE2E)->Arg(1)->Arg(16)->Arg(64);

void BM_ScaleWeightedFanout(benchmark::State& state) {
  // A cohort subscriber of weight N: one weighted wire delivery stands in
  // for N member deliveries. Per-publish work is O(1) in N, so modeled
  // deliveries/s (items) should grow ~linearly with the arg.
  const auto weight = static_cast<std::uint32_t>(state.range(0));
  harness::ClusterConfig cluster_config;
  cluster_config.seed = 13;
  cluster_config.initial_servers = 1;
  cluster_config.fixed_latency = true;
  cluster_config.fixed_latency_value = millis(5);
  cluster_config.server_capacity = 1e15;
  cluster_config.server_nic_headroom = 1.0;
  cluster_config.client_egress = 1e15;
  cluster_config.pubsub.conn_drain_bytes_per_sec = 1e15;
  cluster_config.pubsub.infra_drain_bytes_per_sec = 1e15;
  cluster_config.pubsub.conn_output_buffer_limit = std::size_t{1} << 40;
  cluster_config.pubsub.max_egress_backlog = seconds(1e6);
  harness::Cluster cluster(cluster_config);

  core::DynamothClient::Config sub_config;
  sub_config.multiplicity = weight;
  std::uint64_t got = 0;
  cluster.add_client(sub_config).subscribe("arena",
                                           [&got](const ps::EnvelopePtr&) { ++got; });
  core::DynamothClient& pub = cluster.add_client();
  cluster.sim().run_for(seconds(2));  // settle subscriptions + LLA windows

  constexpr int kBatch = 64;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) pub.publish("arena", 128);
    cluster.sim().run_for(millis(200));
  }
  benchmark::DoNotOptimize(got);
  state.SetItemsProcessed(state.iterations() * kBatch * weight);
}
BENCHMARK(BM_ScaleWeightedFanout)->Arg(1)->Arg(100)->Arg(10'000);

void BM_ScaleCohortGame(benchmark::State& state) {
  // End-to-end cohort-mode game run (tile cohorts + migration + balancer)
  // at a fixed population: 10 simulated seconds per iteration. Wall cost
  // tracks aggregate channel traffic, not the modeled member count — items
  // are modeled user-seconds.
  const auto users = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    mammoth::exp::GameExperimentConfig config = mammoth::exp::default_game_experiment();
    config.seed = 77;
    config.balancer = mammoth::exp::BalancerKind::kDynamoth;
    config.schedule = {{seconds(0), 1200}};
    config.duration = seconds(10);
    config.sample_interval = seconds(5);
    mammoth::exp::scale_population(config, static_cast<double>(users) / 1200.0);
    const mammoth::exp::GameExperimentResult result = run_game_experiment(config);
    benchmark::DoNotOptimize(result.executed_events);
  }
  state.SetItemsProcessed(state.iterations() * users * 10);
}
BENCHMARK(BM_ScaleCohortGame)->Arg(1'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

/// Minimal shard for engine-overhead benches: a periodic local event every
/// `tick` keeps the min-next reduction from fast-forwarding whole epochs
/// away, so the measured cost is the barrier + drain machinery itself.
class TickingShard : public sim::Shard {
 public:
  explicit TickingShard(SimTime tick) : task_(sim_, tick, [this] { ++ticks_; }) {
    task_.start();
  }
  sim::Simulator& simulator() override { return sim_; }
  void on_boundary(std::size_t /*src*/, const sim::BoundaryEvent& ev) override {
    sim_.schedule_at(ev.at, [this] { ++received_; });
  }
  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  sim::Simulator sim_;
  std::uint64_t ticks_ = 0;
  std::uint64_t received_ = 0;
  sim::PeriodicTask task_;
};

void BM_ParallelEpochOverhead(benchmark::State& state) {
  // Pure synchronization cost: K shards, each with one local event per
  // lookahead window, so every epoch does real (tiny) work and the wall
  // cost is dominated by drain -> barrier -> reduce -> run -> barrier.
  // Items are epochs completed.
  const auto shards = static_cast<std::size_t>(state.range(0));
  std::uint64_t epochs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      sim::ShardedEngineConfig cfg;
      cfg.shards = shards;
      cfg.lookahead = millis(10);
      sim::ShardedEngine engine(cfg);
      engine.build(
          [](std::size_t) { return std::make_unique<TickingShard>(millis(10)); });
      state.ResumeTiming();
      engine.run_until(seconds(20));
      epochs += engine.stats().epochs;
      benchmark::DoNotOptimize(engine.stats().epochs);
      state.PauseTiming();
      // Engine teardown (thread joins) happens here, outside the timed region.
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(epochs));
}
BENCHMARK(BM_ParallelEpochOverhead)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ParallelBoundaryRelay(benchmark::State& state) {
  // Cross-shard messaging throughput: each shard posts one boundary event
  // per tick to its ring neighbour. Items are boundary events merged.
  const std::size_t shards = 2;
  std::uint64_t posted = 0;
  struct RelayShard : sim::Shard {
    sim::Simulator sim;
    sim::ShardedEngine* engine = nullptr;
    std::size_t id = 0;
    sim::PeriodicTask task{sim, millis(5), [this] {
                             engine->post(id, (id + 1) % 2,
                                          {sim.now() + millis(5), 1, 0, 0});
                           }};
    sim::Simulator& simulator() override { return sim; }
    void on_boundary(std::size_t, const sim::BoundaryEvent& ev) override {
      sim.schedule_at(ev.at, [] {});
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    {
      sim::ShardedEngineConfig cfg;
      cfg.shards = shards;
      cfg.lookahead = millis(5);
      sim::ShardedEngine engine(cfg);
      engine.build([&engine](std::size_t i) -> std::unique_ptr<sim::Shard> {
        auto shard = std::make_unique<RelayShard>();
        shard->engine = &engine;
        shard->id = i;
        shard->task.start();
        return shard;
      });
      state.ResumeTiming();
      engine.run_until(seconds(20));
      posted += engine.stats().boundary_events;
      benchmark::DoNotOptimize(engine.stats().boundary_events);
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(posted));
}
BENCHMARK(BM_ParallelBoundaryRelay)->Unit(benchmark::kMillisecond);

void BM_ParallelShardedGame(benchmark::State& state) {
  // End-to-end block-parallel cohort game: 10 sim-seconds at 10^4 modeled
  // users, K = range(0) regions. On a multi-core runner wall time drops
  // with K; items are modeled user-seconds (same normalization as
  // BM_ScaleCohortGame so the two series are comparable).
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::size_t users = 10'000;
  for (auto _ : state) {
    mammoth::exp::GameExperimentConfig config = mammoth::exp::default_game_experiment();
    config.seed = 77;
    config.balancer = mammoth::exp::BalancerKind::kDynamoth;
    config.schedule = {{seconds(0), 1200}};
    config.duration = seconds(10);
    config.sample_interval = seconds(5);
    mammoth::exp::scale_population(config, static_cast<double>(users) / 1200.0);
    mammoth::exp::ShardOptions options;
    options.shards = shards;
    const mammoth::exp::ShardedGameResult result =
        mammoth::exp::run_sharded_game_experiment(config, options);
    benchmark::DoNotOptimize(result.merged.executed_events);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(users) * 10);
}
BENCHMARK(BM_ParallelShardedGame)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  // The common pattern: events that schedule follow-up events.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    std::int64_t count = 0;
    std::function<void()> chain = [&] {
      if (++count < 10'000) sim.schedule_after(10, chain);
    };
    state.ResumeTiming();
    sim.schedule_after(0, chain);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorSelfScheduling);

}  // namespace

BENCHMARK_MAIN();
