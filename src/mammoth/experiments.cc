#include "mammoth/experiments.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/rng.h"

namespace dynamoth::mammoth::exp {

const char* to_string(BalancerKind kind) {
  switch (kind) {
    case BalancerKind::kDynamoth:
      return "dynamoth";
    case BalancerKind::kConsistentHashing:
      return "consistent-hashing";
    case BalancerKind::kNone:
      return "none";
  }
  return "?";
}

GameExperimentConfig default_game_experiment() {
  GameExperimentConfig config;
  config.cluster.initial_servers = 1;
  config.cluster.server_capacity = 1.8e6;       // T_i (DESIGN.md section 5)
  config.cluster.server_nic_headroom = 1.15;    // Redis fails near LR 1.15
  config.cluster.cloud.spawn_delay = seconds(5);

  config.game.world_size = 1200.0;
  config.game.tiles_per_side = 12;              // 144 tile channels (RGame grid)
  config.game.player.updates_per_sec = 3.0;     // paper V-D
  config.game.player.payload_bytes = 400;  // state update; makes egress
                                           // bandwidth (not CPU) the binding
                                           // resource, as the paper observes
  config.game.player.speed = 40.0;
  config.game.player.hotspot_bias = 0.25;       // towns/quest hubs: the tile
                                                // popularity skew the macro
                                                // balancer exploits
  config.game.client.entry_timeout = seconds(180);  // players revisit tiles;
                                                    // caching entries longer cuts
                                                    // hash-fallback rediscoveries

  config.dynamoth.t_wait = seconds(15);
  config.dynamoth.max_servers = 8;              // paper: up to 8 Redis servers
  return config;
}

void scale_population(GameExperimentConfig& config, double scale) {
  DYN_CHECK(scale > 0);
  if (scale == 1.0) return;
  for (PopulationPoint& point : config.schedule) {
    point.players = static_cast<std::size_t>(static_cast<double>(point.players) * scale + 0.5);
  }
  config.game.cohort.enabled = true;
  config.cluster.server_capacity *= scale * scale;
  config.cluster.pubsub.cpu_publish_cost_us /= scale;
  config.cluster.pubsub.cpu_delivery_cost_us /= scale * scale;
  config.cluster.client_egress *= scale;
  config.cluster.pubsub.conn_drain_bytes_per_sec *= scale;
  config.cluster.pubsub.infra_drain_bytes_per_sec *= scale;
  config.cluster.pubsub.conn_output_buffer_limit = static_cast<std::size_t>(
      static_cast<double>(config.cluster.pubsub.conn_output_buffer_limit) * scale);
}

namespace {

/// Balancer selection side effect of construction: registers the balancer
/// with the cluster and returns the base pointer the sampler reads stats
/// through (null for BalancerKind::kNone).
core::BalancerBase* make_balancer(harness::Cluster& cluster, const GameExperimentConfig& config) {
  switch (config.balancer) {
    case BalancerKind::kDynamoth:
      return &cluster.use_dynamoth(config.dynamoth);
    case BalancerKind::kConsistentHashing: {
      // The paper's comparator (V-D): same thresholds, pacing and fleet cap,
      // but ring growth as the only remedy and no channel replication.
      core::DynamothLoadBalancer::Config hashing = config.dynamoth;
      hashing.placement.kind = placement::PolicyKind::kHashing;
      hashing.enable_replication = false;
      return &cluster.use_dynamoth(hashing);
    }
    case BalancerKind::kNone:
      break;
  }
  return nullptr;
}

harness::ClusterConfig cluster_config_for(const GameExperimentConfig& config) {
  harness::ClusterConfig cluster_config = config.cluster;
  cluster_config.seed = config.seed;
  return cluster_config;
}

/// Piecewise-linear interpolation of the population schedule at time t.
std::size_t target_population(const std::vector<PopulationPoint>& schedule, SimTime t) {
  if (schedule.empty()) return 0;
  if (t <= schedule.front().at) return schedule.front().players;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (t > schedule[i].at) continue;
    const PopulationPoint& a = schedule[i - 1];
    const PopulationPoint& b = schedule[i];
    const double f = static_cast<double>(t - a.at) / static_cast<double>(b.at - a.at);
    const double players = static_cast<double>(a.players) +
                           f * (static_cast<double>(b.players) - static_cast<double>(a.players));
    return static_cast<std::size_t>(players + 0.5);
  }
  return schedule.back().players;
}

}  // namespace

GameExperimentRun::GameExperimentRun(const GameExperimentConfig& config)
    : config_(config),
      rng_draws_start_(Rng::total_draws()),
      cluster_(cluster_config_for(config_)),
      balancer_(make_balancer(cluster_, config_)),
      probe_(result_.metrics, "rtt_us"),
      game_(cluster_, config_.game, &probe_),
      // Population controller: follow the schedule each second.
      population_(cluster_.sim(), seconds(1),
                  [this] {
                    game_.set_population(
                        target_population(config_.schedule, cluster_.sim().now()));
                  }),
      // Registry-backed accumulators: cumulative counters mirror the
      // external totals; the sampler derives window rates from the handle
      // values instead of hand-rolled "last_x" locals. Registering
      // everything up front keeps the window CSV's column set stable.
      msgs_c_(result_.metrics.counter("infra_msgs")),
      rebalances_c_(result_.metrics.counter("rebalances")),
      players_g_(result_.metrics.gauge("players")),
      servers_g_(result_.metrics.gauge("servers")),
      avg_lr_g_(result_.metrics.gauge("avg_lr")),
      max_lr_g_(result_.metrics.gauge("max_lr")),
      rt_g_(result_.metrics.gauge("rt_ms")),
      sampler_(cluster_.sim(), config_.sample_interval, [this] { sample(); }) {
  DYN_CHECK(!config_.schedule.empty());
  population_.start_after(0);
  sampler_.start();
}

void GameExperimentRun::sample() {
  const double t = to_seconds(cluster_.sim().now());
  const std::uint64_t msgs = cluster_.network().total_infrastructure_messages();
  const double msg_rate =
      static_cast<double>(msgs - msgs_c_.value()) / to_seconds(config_.sample_interval);
  msgs_c_.set(msgs);

  double rt = probe_.window_mean_ms();
  if (probe_.window_count() == 0) rt = last_rt_;  // carry forward quiet windows
  last_rt_ = rt;
  rt_g_.set(rt);
  probe_.window_reset();

  double avg_lr = 0, max_lr = 0;
  std::size_t rebalances = 0;
  if (balancer_ != nullptr) {
    avg_lr = balancer_->average_load_ratio();
    max_lr = balancer_->max_load_ratio().second;
    rebalances = balancer_->events().size() - rebalances_c_.value();
    rebalances_c_.set(balancer_->events().size());
  }
  avg_lr_g_.set(avg_lr);
  max_lr_g_.set(max_lr);

  const auto players = static_cast<double>(game_.active_players());
  const auto servers = static_cast<double>(cluster_.active_servers());
  players_g_.set(players);
  servers_g_.set(servers);
  result_.series.add_row({t, players, msg_rate, servers, rt, avg_lr, max_lr,
                          static_cast<double>(rebalances)});
  if (rt > 0 && rt <= config_.rt_threshold_ms) {
    result_.max_players_ok = std::max(result_.max_players_ok, players);
  }
  result_.peak_servers = std::max(result_.peak_servers, servers);

  if (config_.record_metrics_windows) result_.metrics.end_window(cluster_.sim().now());
}

GameExperimentResult GameExperimentRun::finish() {
  DYN_CHECK(!finished_);
  finished_ = true;
  population_.stop();
  sampler_.stop();
  if (balancer_ != nullptr) {
    result_.events = balancer_->events();
    result_.audit = balancer_->audit();
  }
  result_.rtt_us = probe_.histogram();
  result_.delivery_latency_us = game_.delivery_latency();
  result_.server_hours = cluster_.cloud().server_hours(cluster_.sim().now());
  result_.static_fleet_hours =
      core::Cloud::static_fleet_hours(config_.dynamoth.max_servers, cluster_.sim().now());
  result_.total_updates = game_.total_updates_published();
  result_.executed_events = cluster_.sim().executed_events();
  result_.rng_draws = Rng::total_draws() - rng_draws_start_;
  result_.connection_drops = game_.total_connection_drops();
  result_.metrics.counter("connection_drops").set(result_.connection_drops);
  result_.metrics.counter("total_updates").set(result_.total_updates);
  return std::move(result_);
}

GameExperimentResult run_game_experiment(const GameExperimentConfig& config) {
  GameExperimentRun run(config);
  run.run_until(config.duration);
  return run.finish();
}

}  // namespace dynamoth::mammoth::exp
