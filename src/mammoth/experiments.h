// Shared driver for the paper's RGame experiments (Figures 5, 6, 7 and the
// ablations): runs a full cluster + balancer + game population following a
// piecewise-linear join/leave schedule, sampling the time series the figures
// plot.
#pragma once

#include <cstdint>
#include <vector>

#include "core/load_balancer.h"
#include "harness/cluster.h"
#include "harness/probes.h"
#include "mammoth/game.h"
#include "metrics/histogram.h"
#include "metrics/series.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"

namespace dynamoth::mammoth::exp {

enum class BalancerKind { kDynamoth, kConsistentHashing, kNone };

[[nodiscard]] const char* to_string(BalancerKind kind);

/// Piecewise-linear population target: the player count ramps linearly from
/// the previous point to `players` at time `at`.
struct PopulationPoint {
  SimTime at = 0;
  std::size_t players = 0;
};

struct GameExperimentConfig {
  std::uint64_t seed = 42;
  BalancerKind balancer = BalancerKind::kDynamoth;
  harness::ClusterConfig cluster;  // initial_servers, capacities, latency model...
  GameConfig game;
  /// Balancer config of both balancing kinds: kConsistentHashing runs it
  /// with the hashing placement policy and replication off.
  core::DynamothLoadBalancer::Config dynamoth;

  std::vector<PopulationPoint> schedule;  // must be time-sorted
  SimTime duration = seconds(480);
  SimTime sample_interval = seconds(5);
  /// Playing quality bound (paper V-D: "optimal if the average response
  /// time remains below 150 ms").
  double rt_threshold_ms = 150.0;

  /// Close a metrics-registry window every sample_interval (one CSV row per
  /// sample in result.metrics). Off by default: the registry still
  /// accumulates, it just keeps no window table. Must not perturb the run —
  /// the determinism guard compares runs with this on and off.
  bool record_metrics_windows = false;
};

struct GameExperimentResult {
  metrics::Series series{std::vector<std::string>{
      "t_s", "players", "msgs_per_s", "servers", "rt_ms", "avg_lr", "max_lr", "rebalances"}};
  std::vector<core::RebalanceEvent> events;
  metrics::Histogram rtt_us;          // every response-time sample of the run
  /// Per-member one-way delivery latency (cohort mode only; empty in
  /// individual mode). fig_scale reports p99 over this population.
  metrics::Histogram delivery_latency_us;
  double max_players_ok = 0;          // largest sampled population with rt <= threshold
  double peak_servers = 0;
  std::uint64_t total_updates = 0;    // publications by players
  std::uint64_t connection_drops = 0;
  std::uint64_t control_bytes = 0;    // balancer-node egress (plan traffic)
  double server_hours = 0;            // rented server-hours (cost model)
  double static_fleet_hours = 0;      // a static fleet of max_servers
  /// Total simulator events executed over the run; a cheap fingerprint of
  /// the whole event sequence, used by the determinism guard test.
  std::uint64_t executed_events = 0;
  /// RNG draws consumed by the run (process-wide delta); with
  /// executed_events, pins the exact stochastic trajectory.
  std::uint64_t rng_draws = 0;
  /// The run's metrics registry (rtt histogram, rate counters, LR gauges;
  /// window rows when record_metrics_windows was set).
  obs::MetricsRegistry metrics;
  /// The balancer's rebalance audit log (empty for BalancerKind::kNone).
  obs::RebalanceAuditLog audit;
};

/// Builds a default config matching the paper's Experiment 2/3 setup scaled
/// to simulator constants (see DESIGN.md section 5).
[[nodiscard]] GameExperimentConfig default_game_experiment();

/// Population-scale knob (the figure binaries' --users flag): multiplies
/// every schedule point by `scale`, switches the game to cohort mode, and
/// rescales the per-server resource model so the run keeps the original
/// figure's load-ratio trajectory at scale x the population:
///  - per-tile message rate grows as scale^2 (scale x members each hearing
///    scale x publications), so server capacity grows scale^2 and the
///    per-delivery CPU cost shrinks scale^2 (publish cost: scale^1);
///  - each connection now aggregates a whole tile at scale x the traffic, so
///    client egress, connection drain rate, output-buffer limit, and the
///    infra drain rate all grow scale x.
/// scale == 1.0 is the identity: the config is untouched (individual mode,
/// bit-identical runs). See DESIGN.md section 13.
void scale_population(GameExperimentConfig& config, double scale);

[[nodiscard]] GameExperimentResult run_game_experiment(const GameExperimentConfig& config);

/// One live game-experiment world: everything run_game_experiment builds,
/// held open so a driver can step it incrementally — the figure binaries
/// step it in one run_until(duration), the block-parallel engine (DESIGN.md
/// section 15) steps one of these per shard in lockstep epochs.
///
/// Construction order, RNG usage, and metric registration order are exactly
/// run_game_experiment's (that function IS construct + run_until(duration) +
/// finish()), so the K = 1 sharded run is byte-identical to the classic
/// driver — the determinism guard asserts it.
class GameExperimentRun {
 public:
  explicit GameExperimentRun(const GameExperimentConfig& config);

  GameExperimentRun(const GameExperimentRun&) = delete;
  GameExperimentRun& operator=(const GameExperimentRun&) = delete;

  [[nodiscard]] harness::Cluster& cluster() { return cluster_; }
  [[nodiscard]] Game& game() { return game_; }
  [[nodiscard]] sim::Simulator& sim() { return cluster_.sim(); }
  [[nodiscard]] const GameExperimentConfig& config() const { return config_; }

  /// Advances the world; chunked calls are event-for-event identical to one
  /// big call (Simulator::run_until chunk transparency).
  void run_until(SimTime t) { cluster_.sim().run_until(t); }

  /// Stops the periodic tasks and assembles the result. Call exactly once,
  /// after the final run_until.
  [[nodiscard]] GameExperimentResult finish();

 private:
  void sample();

  // Declaration order mirrors run_game_experiment's construction order —
  // member init runs top to bottom, preserving the RNG draw sequence and
  // the registry's column order.
  GameExperimentConfig config_;
  std::uint64_t rng_draws_start_;
  harness::Cluster cluster_;
  core::BalancerBase* balancer_ = nullptr;
  GameExperimentResult result_;
  harness::ResponseProbe probe_;
  Game game_;
  sim::PeriodicTask population_;
  obs::MetricsRegistry::Counter msgs_c_;
  obs::MetricsRegistry::Counter rebalances_c_;
  obs::MetricsRegistry::Gauge players_g_;
  obs::MetricsRegistry::Gauge servers_g_;
  obs::MetricsRegistry::Gauge avg_lr_g_;
  obs::MetricsRegistry::Gauge max_lr_g_;
  obs::MetricsRegistry::Gauge rt_g_;
  double last_rt_ = 0;
  sim::PeriodicTask sampler_;
  bool finished_ = false;
};

}  // namespace dynamoth::mammoth::exp
