#include "harness/failover.h"

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "harness/cluster.h"
#include "harness/fault_adapter.h"
#include "reliability/replay_service.h"
#include "sim/simulator.h"

namespace dynamoth::harness {
namespace {

struct SubscriberState {
  core::DynamothClient* client = nullptr;
  std::unique_ptr<rel::ReliableSubscriber> reliable;
  // Distinct channel sequences seen, per channel (one publisher per channel,
  // so channel_seq alone identifies a publication).
  std::map<Channel, std::set<std::uint64_t>> seen;
  std::uint64_t handled = 0;  // raw handler invocations, dups included
};

}  // namespace

FailoverResult run_failover(const FailoverConfig& config) {
  ClusterConfig cluster_config;
  cluster_config.seed = config.seed;
  cluster_config.initial_servers = FailoverConfig::kServers;
  Cluster cluster(cluster_config);
  sim::Simulator& sim = cluster.sim();
  Rng rng = cluster.fork_rng("failover");

  core::DynamothLoadBalancer::Config lb_config;
  lb_config.t_wait = FailoverConfig::kTWait;
  lb_config.base.detect_failures = true;
  lb_config.base.detector.timeout = config.detector_timeout;
  // Replication decisions would entangle loss accounting with dedup paths;
  // the failover figures study crash recovery, not replication.
  lb_config.enable_replication = false;
  lb_config.max_servers = FailoverConfig::kServers;
  lb_config.placement = config.placement;
  auto& lb = cluster.use_dynamoth(lb_config);

  FailoverResult result;  // declared before clients: handlers record into it

  // ---- clients ----
  std::vector<Channel> channels;
  for (std::size_t i = 0; i < FailoverConfig::kChannels; ++i) {
    channels.push_back("game" + std::to_string(i));
  }

  auto client_config = [&](bool publisher) {
    core::DynamothClient::Config cc;
    cc.sweep_interval = seconds(1);
    cc.reconnect_delay = millis(200);
    cc.entry_timeout = seconds(600);  // outages must not expire entries
    cc.resubscribe_keepalive = true;  // zombie subscriptions get reset
    if (publisher) {
      cc.max_pending_publishes = 4096;
      // Retransmit the unacknowledged tail whenever a channel is re-homed;
      // the window must cover fault onset -> detection -> plan absorption.
      cc.republish_window = seconds(15);
    }
    return cc;
  };

  std::vector<std::unique_ptr<SubscriberState>> subs;
  rel::ReliableSubscriber::Config rel_config;
  rel_config.retry_interval = seconds(2);
  rel_config.max_retries = 100;  // outlive multi-second outages
  for (std::size_t i = 0; i < FailoverConfig::kSubscribers; ++i) {
    auto sub = std::make_unique<SubscriberState>();
    sub->client = &cluster.add_client(client_config(false));
    if (config.reliability) {
      sub->reliable =
          std::make_unique<rel::ReliableSubscriber>(sim, *sub->client, rel_config);
    }
    SubscriberState* raw = sub.get();
    for (const Channel& c : channels) {
      auto handler = [raw, c, &sim, &result](const ps::EnvelopePtr& env) {
        ++raw->handled;
        raw->seen[c].insert(env->channel_seq);
        result.delivery_us.record(sim.now() - env->publish_time);
      };
      if (sub->reliable) {
        sub->reliable->subscribe(c, handler);
      } else {
        sub->client->subscribe(c, handler);
      }
    }
    subs.push_back(std::move(sub));
  }

  std::vector<core::DynamothClient*> publishers;
  for (std::size_t i = 0; i < FailoverConfig::kChannels; ++i) {
    publishers.push_back(&cluster.add_client(client_config(true)));
  }

  // Replay service on its own infrastructure node (with reliability off it
  // still runs — covering costs nothing and keeps both arms symmetric in
  // fleet shape — but nobody requests replays).
  net::NodeConfig infra;
  infra.kind = net::NodeKind::kInfrastructure;
  infra.egress_bytes_per_sec = 10e6;
  core::DynamothClient svc_client(sim, cluster.network(), cluster.registry(),
                                  cluster.base_ring(), cluster.network().add_node(infra),
                                  910'000, client_config(false), rng.fork("svc"));
  rel::ReplayService::Config svc_config;
  svc_config.history_per_channel = 16384;
  rel::ReplayService service(sim, svc_client, svc_config);
  service.start();
  for (const Channel& c : channels) service.cover(c);

  // ---- eager plan propagation ----
  lb.set_plan_listener([&](const core::PlanPtr& plan, core::RebalanceKind) {
    for (const auto& [channel, entry] : plan->entries()) {
      for (auto& sub : subs) sub->client->absorb_entry(channel, entry);
      for (auto* pub : publishers) pub->absorb_entry(channel, entry);
      svc_client.absorb_entry(channel, entry);
    }
  });

  // ---- metrics ----
  obs::MetricsRegistry& reg = result.metrics;
  auto published_c = reg.counter("published");
  auto delivered_c = reg.counter("delivered");
  auto duplicates_c = reg.counter("duplicates");
  auto drops_c = reg.counter("client.connection_drops");
  auto fallback_c = reg.counter("client.fallback_resubscribes");
  auto refused_c = reg.counter("client.refused_publishes");
  auto flushed_c = reg.counter("client.pending_flushed");
  auto pdropped_c = reg.counter("client.publishes_dropped");
  auto republish_c = reg.counter("client.republishes");
  auto suspected_c = reg.counter("lb.suspected");
  auto rejoined_c = reg.counter("lb.rejoined");
  auto emergency_c = reg.counter("lb.emergency_rebalances");
  auto faults_c = reg.counter("faults.applied");
  auto rel_gaps_c = reg.counter("rel.gaps_detected");
  auto rel_recovered_c = reg.counter("rel.recovered");
  auto rel_gaveup_c = reg.counter("rel.gave_up");
  auto servers_g = reg.gauge("active_servers");

  // ---- faults ----
  ClusterFaultAdapter adapter(cluster);
  fault::FaultInjector injector(sim, adapter, config.schedule, rng.fork("inject"));

  auto refresh_metrics = [&] {
    std::uint64_t pub_total = 0;
    core::DynamothClient::Stats totals;
    std::uint64_t delivered = 0;
    std::uint64_t handled = 0;
    for (const auto& sub : subs) {
      totals += sub->client->stats();
      for (const auto& [_, seqs] : sub->seen) delivered += seqs.size();
      handled += sub->handled;
    }
    for (const auto* pub : publishers) {
      totals += pub->stats();
      pub_total += pub->stats().published;
    }
    published_c.set(pub_total);
    delivered_c.set(delivered);
    duplicates_c.set(handled - delivered);
    drops_c.set(totals.connection_drops);
    fallback_c.set(totals.fallback_resubscribes);
    refused_c.set(totals.refused_publishes);
    flushed_c.set(totals.pending_flushed);
    pdropped_c.set(totals.publishes_dropped);
    republish_c.set(totals.republishes);
    std::uint64_t suspected = 0;
    std::uint64_t rejoined = 0;
    for (const auto& ev : lb.liveness_events()) {
      if (ev.kind == core::BalancerBase::LivenessEvent::Kind::kSuspected) ++suspected;
      else ++rejoined;
    }
    suspected_c.set(suspected);
    rejoined_c.set(rejoined);
    emergency_c.set(lb.stats().emergency_rebalances);
    faults_c.set(injector.log().size());
    if (config.reliability) {
      rel::ReliableSubscriber::Stats rel_totals;
      for (const auto& sub : subs) rel_totals += sub->reliable->stats();
      rel_gaps_c.set(rel_totals.gaps_detected);
      rel_recovered_c.set(rel_totals.recovered);
      rel_gaveup_c.set(rel_totals.gave_up);
    }
    servers_g.set(static_cast<double>(cluster.active_servers()));
    return totals;
  };

  // ---- run ----
  sim.run_for(FailoverConfig::kSettle);

  std::vector<std::unique_ptr<sim::PeriodicTask>> traffic;
  for (std::size_t i = 0; i < FailoverConfig::kChannels; ++i) {
    auto task = std::make_unique<sim::PeriodicTask>(
        sim, FailoverConfig::kPublishInterval, [pub = publishers[i], c = channels[i]] {
          pub->publish(c, FailoverConfig::kPayloadBytes);
        });
    traffic.push_back(std::move(task));
  }
  // Stagger starts so publishers do not all burst on the same instant.
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    sim.schedule_after(millis(3) * static_cast<SimTime>(i),
                       [t = traffic[i].get()] { t->start(); });
  }

  sim::PeriodicTask windower(sim, FailoverConfig::kWindow, [&] {
    refresh_metrics();
    reg.end_window(sim.now());
  });
  windower.start();

  const SimTime fault_delay = std::min(config.fault_delay, config.duration);
  if (fault_delay > 0) sim.run_for(fault_delay);
  injector.arm();
  sim.run_for(config.duration - fault_delay);
  for (auto& task : traffic) task->stop();
  sim.run_for(config.drain);
  windower.stop();

  // ---- results ----
  result.client_totals = refresh_metrics();
  reg.end_window(sim.now());

  std::uint64_t published = 0;
  for (const auto* pub : publishers) published += pub->stats().published;
  result.published = published;
  result.expected = published * FailoverConfig::kSubscribers;
  std::uint64_t delivered = 0;
  std::uint64_t handled = 0;
  for (const auto& sub : subs) {
    for (const auto& [_, seqs] : sub->seen) delivered += seqs.size();
    handled += sub->handled;
  }
  result.delivered_unique = delivered;
  result.lost = result.expected - delivered;
  result.duplicates = handled - delivered;

  result.liveness = lb.liveness_events();
  result.faults = injector.log();
  result.fault_stats = injector.stats();
  result.lb_stats = lb.stats();
  if (config.reliability) {
    for (const auto& sub : subs) result.reliability_totals += sub->reliable->stats();
  }
  std::ostringstream audit;
  lb.audit().write_timeline(audit);
  result.audit_timeline = audit.str();

  // ---- detection & recovery ----
  result.first_fault = injector.first_fault_time();
  if (result.first_fault >= 0) {
    for (const auto& ev : result.liveness) {
      if (ev.kind == core::BalancerBase::LivenessEvent::Kind::kSuspected &&
          ev.time >= result.first_fault) {
        result.first_suspicion = ev.time;
        break;
      }
    }
    if (result.first_suspicion >= 0) {
      result.detection_latency = result.first_suspicion - result.first_fault;
    }

    // Pre-fault delivery rate: mean over windows fully before the fault.
    double pre_sum = 0;
    std::size_t pre_n = 0;
    const double fault_s = to_seconds(result.first_fault);
    for (std::size_t row = 0; row < reg.windows(); ++row) {
      const double end_s = reg.window_value(row, "t_s");
      const double delivered_w = reg.window_value(row, "delivered");
      if (end_s <= fault_s) {
        // Skip the warm-up window where subscriptions were still placing.
        if (delivered_w > 0) {
          pre_sum += delivered_w;
          ++pre_n;
        }
        continue;
      }
      if (pre_n == 0) break;
      const double pre_rate = pre_sum / static_cast<double>(pre_n);
      result.pre_fault_rate = pre_rate;
      const SimTime anchor =
          result.first_suspicion >= 0 ? result.first_suspicion : result.first_fault;
      if (end_s >= to_seconds(anchor) && delivered_w >= 0.8 * pre_rate) {
        result.recovery_time = static_cast<SimTime>(end_s * 1e6);
        result.recovery_latency = result.recovery_time - result.first_fault;
        break;
      }
    }
  }
  return result;
}

}  // namespace dynamoth::harness
