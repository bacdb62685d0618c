#include "harness/flashcrowd.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "fault/injector.h"
#include "harness/fault_adapter.h"
#include "pubsub/remote_connection.h"
#include "sim/simulator.h"

namespace dynamoth::harness {
namespace {

struct SubscriberState {
  core::DynamothClient* client = nullptr;
  // Distinct channel sequences seen, per channel (one publisher per channel,
  // so channel_seq alone identifies a publication).
  std::map<Channel, std::set<std::uint64_t>> seen;
  std::uint64_t handled = 0;  // raw handler invocations, dups included
};

/// One publisher's self-rescheduling publish loop. A PeriodicTask has a
/// fixed interval; the spike needs the interval re-derived from the spike
/// schedule at every firing, so the loop reschedules itself.
struct PublishLoop {
  sim::Simulator* sim = nullptr;
  core::DynamothClient* client = nullptr;
  Channel channel;
  std::size_t index = 0;
  std::size_t bytes = 0;
  SimTime base_interval = 0;
  SimTime traffic_start = 0;
  const FlashCrowdSchedule* spikes = nullptr;
  bool running = false;

  void fire() {
    if (!running) return;
    client->publish(channel, bytes);
    schedule_next();
  }

  void schedule_next() {
    const double factor = spikes->factor_at(index, sim->now() - traffic_start);
    auto interval = static_cast<SimTime>(static_cast<double>(base_interval) / factor);
    // Floor relative to the base rate: a runaway factor cannot collapse the
    // interval to zero and wedge the event loop.
    interval = std::max<SimTime>(interval, base_interval / 200);
    sim->schedule_after(interval, [this] { fire(); });
  }
};

std::uint64_t delivered_unique(
    const std::vector<std::unique_ptr<SubscriberState>>& subs) {
  std::uint64_t total = 0;
  for (const auto& sub : subs) {
    for (const auto& [_, seqs] : sub->seen) total += seqs.size();
  }
  return total;
}

std::uint64_t handled_total(const std::vector<std::unique_ptr<SubscriberState>>& subs) {
  std::uint64_t total = 0;
  for (const auto& sub : subs) total += sub->handled;
  return total;
}

}  // namespace

// ---- FlashCrowdSchedule ----

FlashCrowdSchedule& FlashCrowdSchedule::spike(SimTime at, std::size_t channel,
                                              double factor, SimTime ramp, SimTime hold,
                                              SimTime decay, std::size_t join) {
  SpikeEvent e;
  e.at = at;
  e.channel = channel;
  e.publish_factor = factor;
  e.ramp = ramp;
  e.hold = hold;
  e.decay = decay;
  e.join_subscribers = join;
  events.push_back(e);
  return *this;
}

double FlashCrowdSchedule::factor_at(std::size_t channel, SimTime t) const {
  double factor = 1.0;
  for (const SpikeEvent& e : events) {
    if (e.channel != channel) continue;
    const SimTime rel = t - e.at;
    if (rel < 0 || rel >= e.ramp + e.hold + e.decay) continue;
    double f;
    if (rel < e.ramp) {
      f = e.ramp > 0 ? 1.0 + (e.publish_factor - 1.0) * static_cast<double>(rel) /
                                 static_cast<double>(e.ramp)
                     : e.publish_factor;
    } else if (rel < e.ramp + e.hold) {
      f = e.publish_factor;
    } else {
      const SimTime into = rel - e.ramp - e.hold;
      f = e.decay > 0 ? e.publish_factor - (e.publish_factor - 1.0) *
                                               static_cast<double>(into) /
                                               static_cast<double>(e.decay)
                      : 1.0;
    }
    factor = std::max(factor, f);
  }
  return factor;
}

void FlashCrowdSchedule::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const SpikeEvent& a, const SpikeEvent& b) { return a.at < b.at; });
}

FlashCrowdSchedule FlashCrowdSchedule::random(std::uint64_t seed,
                                              const RandomParams& params,
                                              std::size_t channels) {
  FlashCrowdSchedule schedule;
  if (channels == 0) return schedule;
  Rng rng(seed);
  for (std::size_t i = 0; i < params.spikes; ++i) {
    SpikeEvent e;
    e.at = static_cast<SimTime>(rng.uniform(0, static_cast<double>(params.horizon)));
    e.channel = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(channels) - 1));
    e.publish_factor = rng.uniform(params.min_factor, params.max_factor);
    e.ramp = rng.uniform_int(params.min_ramp, params.max_ramp);
    e.hold = rng.uniform_int(params.min_hold, params.max_hold);
    e.decay = rng.uniform_int(params.min_ramp, params.max_hold);
    e.join_subscribers = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(params.max_join)));
    schedule.events.push_back(e);
  }
  schedule.sort();
  return schedule;
}

// ---- runner ----

FlashCrowdResult run_flashcrowd(const FlashCrowdConfig& config) {
  ClusterConfig cluster_config = config.cluster;
  cluster_config.seed = config.seed;
  cluster_config.initial_servers = FlashCrowdConfig::kServers;
  Cluster cluster(cluster_config);
  sim::Simulator& sim = cluster.sim();
  Rng rng = cluster.fork_rng("flashcrowd");

  core::DynamothLoadBalancer::Config lb_config;
  lb_config.t_wait = FlashCrowdConfig::kTWait;
  lb_config.base.detect_failures = true;
  lb_config.base.detector.timeout = FlashCrowdConfig::kDetectorTimeout;
  lb_config.all_subs_threshold = FlashCrowdConfig::kAllSubsThreshold;
  lb_config.publication_threshold = FlashCrowdConfig::kPublicationThreshold;
  lb_config.all_pubs_threshold = FlashCrowdConfig::kAllPubsThreshold;
  lb_config.subscriber_threshold = FlashCrowdConfig::kSubscriberThreshold;
  lb_config.max_servers = FlashCrowdConfig::kMaxServers;
  auto& lb = cluster.use_dynamoth(lb_config);

  FlashCrowdResult result;  // declared before clients: handlers record into it

  std::vector<Channel> channels;
  for (std::size_t i = 0; i < FlashCrowdConfig::kChannels; ++i) {
    channels.push_back("fc:" + std::to_string(i));
  }

  auto client_config = [&](bool publisher) {
    core::DynamothClient::Config cc;
    cc.sweep_interval = seconds(1);
    cc.reconnect_delay = millis(200);
    cc.entry_timeout = seconds(600);  // outages must not expire entries
    cc.resubscribe_keepalive = true;
    if (publisher) {
      cc.max_pending_publishes = 4096;
      cc.republish_window = seconds(15);
    }
    return cc;
  };

  sim::Simulator* sim_ptr = &sim;
  auto make_handler = [&result, sim_ptr](SubscriberState* raw) {
    return [raw, sim_ptr, &result](const ps::EnvelopePtr& env) {
      ++raw->handled;
      raw->seen[env->channel].insert(env->channel_seq);
      result.delivery_us.record(sim_ptr->now() - env->publish_time);
    };
  };

  // The arm under test: wildcard listeners covering the whole family.
  std::vector<std::unique_ptr<SubscriberState>> pattern_subs;
  for (std::size_t i = 0; i < FlashCrowdConfig::kPatternSubscribers; ++i) {
    auto sub = std::make_unique<SubscriberState>();
    sub->client = &cluster.add_client(client_config(false));
    sub->client->psubscribe("fc:*", make_handler(sub.get()));
    pattern_subs.push_back(std::move(sub));
  }

  // The reference arm: the same coverage, spelled out channel by channel.
  std::vector<std::unique_ptr<SubscriberState>> explicit_subs;
  for (std::size_t i = 0; i < FlashCrowdConfig::kExplicitSubscribers; ++i) {
    auto sub = std::make_unique<SubscriberState>();
    sub->client = &cluster.add_client(client_config(false));
    for (const Channel& c : channels) sub->client->subscribe(c, make_handler(sub.get()));
    explicit_subs.push_back(std::move(sub));
  }

  std::vector<core::DynamothClient*> publishers;
  for (std::size_t i = 0; i < FlashCrowdConfig::kChannels; ++i) {
    publishers.push_back(&cluster.add_client(client_config(true)));
  }

  // Spike joiners (created mid-run) and the plan they absorb on arrival.
  std::vector<std::unique_ptr<SubscriberState>> crowd_subs;
  core::PlanPtr latest_plan;

  // ---- eager plan propagation ----
  lb.set_plan_listener([&](const core::PlanPtr& plan, core::RebalanceKind) {
    latest_plan = plan;
    for (const auto& [channel, entry] : plan->entries()) {
      for (auto& sub : pattern_subs) sub->client->absorb_entry(channel, entry);
      for (auto& sub : explicit_subs) sub->client->absorb_entry(channel, entry);
      for (auto& sub : crowd_subs) sub->client->absorb_entry(channel, entry);
      for (auto* pub : publishers) pub->absorb_entry(channel, entry);
    }
  });

  // ---- raw substrate arm (the pre-fix behaviour) ----
  // One PSUBSCRIBE pinned to the first server, no plan awareness: exactly
  // what the substrate alone offered before this PR. Every publication the
  // balancer homes elsewhere is a silent miss.
  std::map<Channel, std::set<std::uint64_t>> raw_seen;
  net::NodeConfig infra;
  infra.kind = net::NodeKind::kInfrastructure;
  infra.egress_bytes_per_sec = 10e6;
  const NodeId raw_node = cluster.network().add_node(infra);
  ps::RemoteConnection raw_conn(
      sim, cluster.network(), raw_node, cluster.server(cluster.server_ids().front()),
      [&raw_seen](const ps::EnvelopePtr& env) {
        if (env->kind != ps::MsgKind::kData) return;
        raw_seen[env->channel].insert(env->channel_seq);
      },
      [](ps::CloseReason) {});
  raw_conn.psubscribe("fc:*");

  // ---- metrics ----
  obs::MetricsRegistry& reg = result.metrics;
  auto published_c = reg.counter("published");
  auto pattern_c = reg.counter("pattern_delivered");
  auto explicit_c = reg.counter("explicit_delivered");
  auto crowd_c = reg.counter("crowd_delivered");
  auto raw_c = reg.counter("raw_delivered");
  auto expanded_c = reg.counter("client.patterns_expanded");
  auto pattern_inv_c = reg.counter("client.pattern_deliveries");
  auto drops_c = reg.counter("client.connection_drops");
  auto republish_c = reg.counter("client.republishes");
  auto plans_c = reg.counter("lb.plans_generated");
  auto repl_c = reg.counter("lb.replications_started");
  auto emergency_c = reg.counter("lb.emergency_rebalances");
  auto faults_c = reg.counter("faults.applied");
  auto servers_g = reg.gauge("active_servers");
  auto factor_g = reg.gauge("spike_factor");

  // ---- faults ----
  ClusterFaultAdapter adapter(cluster);
  fault::FaultInjector injector(sim, adapter, config.faults, rng.fork("inject"));

  SimTime traffic_start = 0;

  auto refresh_metrics = [&] {
    core::DynamothClient::Stats totals;
    for (const auto& sub : pattern_subs) totals += sub->client->stats();
    for (const auto& sub : explicit_subs) totals += sub->client->stats();
    for (const auto& sub : crowd_subs) totals += sub->client->stats();
    for (const auto* pub : publishers) totals += pub->stats();

    published_c.set(totals.published);
    pattern_c.set(delivered_unique(pattern_subs));
    explicit_c.set(delivered_unique(explicit_subs));
    crowd_c.set(delivered_unique(crowd_subs));
    std::uint64_t raw = 0;
    for (const auto& [_, seqs] : raw_seen) raw += seqs.size();
    raw_c.set(raw);
    expanded_c.set(totals.patterns_expanded);
    pattern_inv_c.set(totals.pattern_deliveries);
    drops_c.set(totals.connection_drops);
    republish_c.set(totals.republishes);
    plans_c.set(lb.stats().plans_generated);
    repl_c.set(lb.stats().replications_started);
    emergency_c.set(lb.stats().emergency_rebalances);
    faults_c.set(injector.log().size());
    const auto active = static_cast<std::uint64_t>(cluster.active_servers());
    servers_g.set(static_cast<double>(active));
    result.peak_servers = std::max(result.peak_servers, active);
    double factor = 1.0;
    for (std::size_t i = 0; i < FlashCrowdConfig::kChannels; ++i) {
      factor = std::max(factor, config.spikes.factor_at(i, sim.now() - traffic_start));
    }
    factor_g.set(factor);
    return totals;
  };

  // ---- run ----
  sim.run_for(FlashCrowdConfig::kSettle);
  traffic_start = sim.now();

  std::vector<std::unique_ptr<PublishLoop>> traffic;
  for (std::size_t i = 0; i < FlashCrowdConfig::kChannels; ++i) {
    auto loop = std::make_unique<PublishLoop>();
    loop->sim = &sim;
    loop->client = publishers[i];
    loop->channel = channels[i];
    loop->index = i;
    loop->bytes = FlashCrowdConfig::kPayloadBytes;
    loop->base_interval = FlashCrowdConfig::kBasePublishInterval;
    loop->traffic_start = traffic_start;
    loop->spikes = &config.spikes;
    traffic.push_back(std::move(loop));
  }
  // Stagger starts so publishers do not all burst on the same instant.
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    sim.schedule_after(millis(3) * static_cast<SimTime>(i), [t = traffic[i].get()] {
      t->running = true;
      t->fire();
    });
  }

  // Spike joiners: fresh clients subscribing explicitly to the hot channel,
  // spread over the ramp (a crowd arrives over seconds, not at one instant).
  // Bundled behind one pointer: simulator callbacks carry 48 inline capture
  // bytes, not a closure over half the harness.
  struct JoinCtx {
    Cluster* cluster = nullptr;
    sim::Simulator* sim = nullptr;
    FlashCrowdResult* result = nullptr;
    std::vector<std::unique_ptr<SubscriberState>>* crowd = nullptr;
    core::PlanPtr* latest_plan = nullptr;
    const std::vector<Channel>* channels = nullptr;
    core::DynamothClient::Config joiner_config;
  };
  JoinCtx join_ctx;
  join_ctx.cluster = &cluster;
  join_ctx.sim = &sim;
  join_ctx.result = &result;
  join_ctx.crowd = &crowd_subs;
  join_ctx.latest_plan = &latest_plan;
  join_ctx.channels = &channels;
  join_ctx.joiner_config = client_config(false);
  for (const SpikeEvent& e : config.spikes.events) {
    if (e.join_subscribers == 0 || e.channel >= channels.size()) continue;
    const SimTime spread =
        e.join_subscribers > 1
            ? std::max<SimTime>(e.ramp, millis(10)) / static_cast<SimTime>(e.join_subscribers)
            : 0;
    for (std::size_t j = 0; j < e.join_subscribers; ++j) {
      sim.schedule_after(e.at + spread * static_cast<SimTime>(j),
                         [ctx = &join_ctx, hot = e.channel] {
                           auto sub = std::make_unique<SubscriberState>();
                           sub->client = &ctx->cluster->add_client(ctx->joiner_config);
                           if (*ctx->latest_plan) {
                             for (const auto& [channel, entry] :
                                  (*ctx->latest_plan)->entries()) {
                               sub->client->absorb_entry(channel, entry);
                             }
                           }
                           SubscriberState* raw = sub.get();
                           sub->client->subscribe(
                               (*ctx->channels)[hot],
                               [raw, sim = ctx->sim, res = ctx->result](
                                   const ps::EnvelopePtr& env) {
                                 ++raw->handled;
                                 raw->seen[env->channel].insert(env->channel_seq);
                                 res->delivery_us.record(sim->now() - env->publish_time);
                               });
                           ctx->crowd->push_back(std::move(sub));
                         });
    }
  }

  sim::PeriodicTask windower(sim, FlashCrowdConfig::kWindow, [&] {
    refresh_metrics();
    reg.end_window(sim.now());
  });
  windower.start();

  injector.arm();
  sim.run_for(config.duration);
  for (auto& loop : traffic) loop->running = false;
  sim.run_for(config.drain);
  windower.stop();

  // ---- results ----
  result.client_totals = refresh_metrics();
  reg.end_window(sim.now());

  for (const auto* pub : publishers) result.published += pub->stats().published;
  result.pattern_delivered_unique = delivered_unique(pattern_subs);
  result.explicit_delivered_unique = delivered_unique(explicit_subs);
  result.crowd_delivered_unique = delivered_unique(crowd_subs);
  result.pattern_duplicates = handled_total(pattern_subs) - result.pattern_delivered_unique;
  result.explicit_duplicates =
      handled_total(explicit_subs) - result.explicit_delivered_unique;
  for (const auto& sub : pattern_subs) {
    result.patterns_expanded += sub->client->stats().patterns_expanded;
  }

  // Equivalence: a publication every explicit subscriber received was
  // deliverable, so a pattern subscriber missing it is a pattern-path bug
  // (messages lost at a crashed server drop out of the intersection and are
  // charged to neither arm).
  std::map<Channel, std::set<std::uint64_t>> deliverable;
  if (!explicit_subs.empty()) {
    deliverable = explicit_subs.front()->seen;
    for (std::size_t i = 1; i < explicit_subs.size(); ++i) {
      for (auto& [channel, seqs] : deliverable) {
        const auto it = explicit_subs[i]->seen.find(channel);
        if (it == explicit_subs[i]->seen.end()) {
          seqs.clear();
          continue;
        }
        std::set<std::uint64_t> kept;
        std::set_intersection(seqs.begin(), seqs.end(), it->second.begin(),
                              it->second.end(), std::inserter(kept, kept.begin()));
        seqs = std::move(kept);
      }
    }
  }
  for (const auto& sub : pattern_subs) {
    for (const auto& [channel, seqs] : deliverable) {
      const auto it = sub->seen.find(channel);
      for (const std::uint64_t seq : seqs) {
        if (it == sub->seen.end() || !it->second.contains(seq)) ++result.pattern_missing;
      }
    }
  }

  for (const auto& [_, seqs] : raw_seen) result.raw_received += seqs.size();
  result.raw_missed = result.published - result.raw_received;
  raw_conn.close();

  result.lb_stats = lb.stats();
  std::ostringstream audit;
  lb.audit().write_timeline(audit);
  result.audit_timeline = audit.str();
  return result;
}

}  // namespace dynamoth::harness
