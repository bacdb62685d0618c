// RGame session manager: owns the world and a dynamic population of AI
// players (each with its own Dynamoth client), exposing the join/leave
// control the scalability (Fig 5) and elasticity (Fig 7) experiments script.
//
// Two population models share this interface:
//  - Individual mode (default): one Player + DynamothClient per user — the
//    original model, bit-identical to before cohort mode existed.
//  - Cohort mode (config.cohort.enabled): one cohort::Cohort per tile drives
//    all members located there through a single multiplicity-weighted
//    client. set_population apportions members across tiles by the same
//    density profile individual players converge to (uniform blended with
//    hotspot mass), and a periodic migration task moves members between
//    neighbouring tiles at the configured crossing rate — aggregate
//    random-waypoint churn at O(tiles), not O(members), per second.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cohort/cohort.h"
#include "harness/cluster.h"
#include "harness/probes.h"
#include "mammoth/player.h"
#include "mammoth/world.h"
#include "metrics/histogram.h"

namespace dynamoth::mammoth {

/// Aggregate population model (see file comment). Off by default; when
/// enabled the Game spawns no Player objects at all.
struct CohortModeConfig {
  bool enabled = false;
};

/// Tile-grid partition for block-parallel simulation (DESIGN.md section 15):
/// each shard runs one Game instance that owns a subset of tiles. The
/// default (one region owning everything) leaves every code path — including
/// the migration RNG draw sequence — identical to the unsharded engine.
struct RegionConfig {
  std::uint32_t region = 0;   // which region this Game instance simulates
  std::uint32_t regions = 1;  // total regions in the federation
  /// Tile index -> owning region. Empty means "this instance owns all
  /// tiles" (the unsharded layout). Cohort mode only.
  std::vector<std::uint32_t> tile_owner;
};

struct GameConfig {
  double world_size = 1200.0;
  int tiles_per_side = 12;  // 144 tile channels
  PlayerConfig player;
  core::DynamothClient::Config client;
  CohortModeConfig cohort;
  RegionConfig region;
};

/// Stationary tile-density profile cohort mode apportions members by:
/// uniform mass blended with hotspot mass at the player AI's hotspot bias —
/// the same skew individual random-waypoint players converge to, in closed
/// form. Exposed for the block-parallel tile->region assigner, which
/// balances regions by cumulative weight. Sums to 1.
[[nodiscard]] std::vector<double> stationary_tile_weights(const GameConfig& config);

class Game {
 public:
  Game(harness::Cluster& cluster, GameConfig config, harness::ResponseProbe* probe);

  Game(const Game&) = delete;
  Game& operator=(const Game&) = delete;

  /// Adjusts the live player count: joins new players or makes the most
  /// recently joined ones leave (individual mode), or re-apportions tile
  /// cohort sizes (cohort mode).
  void set_population(std::size_t n);

  [[nodiscard]] std::size_t active_players() const { return active_; }
  [[nodiscard]] std::size_t total_players_created() const { return players_.size(); }
  [[nodiscard]] const World& world() const { return world_; }
  [[nodiscard]] Player& player(std::size_t i) { return *players_.at(i); }
  [[nodiscard]] bool cohort_mode() const { return config_.cohort.enabled; }
  /// Cohort for tile index (y * tiles_per_side + x); null when that tile has
  /// never held members (cohort mode only).
  [[nodiscard]] cohort::Cohort* tile_cohort(std::size_t idx) {
    return idx < cohorts_.size() ? cohorts_[idx].get() : nullptr;
  }
  /// Per-member one-way delivery latency population (cohort mode; empty in
  /// individual mode). fig_scale reports p99 over this.
  [[nodiscard]] const metrics::Histogram& delivery_latency() const { return delivery_latency_; }

  // ---- block-parallel federation (DESIGN.md section 15) ----
  /// Receives migration outflow bound for a tile this instance does NOT own
  /// (set by the sharded experiment driver; it ships the members over the
  /// inter-region gateway). Unset, cross-region walks stay home — but with
  /// the default RegionConfig every tile is owned and the sink is never
  /// consulted, so unsharded runs are untouched.
  using MigrationSink = std::function<void(std::size_t tile_idx, std::uint32_t count)>;
  void set_migration_sink(MigrationSink sink) { migration_sink_ = std::move(sink); }

  /// Inbound migration from a peer region: adds `count` members to owned
  /// tile `idx` (cohort mode only).
  void add_members(std::size_t idx, std::uint32_t count);

  /// True when this instance simulates tile `idx` (always, outside
  /// block-parallel mode).
  [[nodiscard]] bool owns_tile(std::size_t idx) const {
    return config_.region.tile_owner.empty() || config_.region.tile_owner[idx] == config_.region.region;
  }

  [[nodiscard]] std::uint64_t total_updates_published() const;
  [[nodiscard]] std::uint64_t total_updates_received() const;
  [[nodiscard]] std::uint64_t total_tile_crossings() const;
  /// Connection drops across every client the game owns, mode-agnostic.
  [[nodiscard]] std::uint64_t total_connection_drops() const;

 private:
  void set_population_individual(std::size_t n);
  void set_population_cohort(std::size_t n);
  /// Largest-remainder apportionment of `n` members over tile_weights_.
  [[nodiscard]] std::vector<std::uint32_t> apportion(std::size_t n) const;
  /// Lazily creates (and starts) the cohort for tile index `idx`.
  cohort::Cohort& cohort_for(std::size_t idx);
  /// One aggregate migration step: expected per-tile outflows move to
  /// neighbouring tiles, O(tiles) regardless of population.
  void migrate();

  harness::Cluster& cluster_;
  GameConfig config_;
  World world_;
  harness::ResponseProbe* probe_;
  std::vector<std::unique_ptr<Player>> players_;
  std::size_t active_ = 0;

  // ---- cohort mode ----
  std::vector<double> tile_weights_;  // stationary density profile, sums to 1
  std::vector<std::unique_ptr<cohort::Cohort>> cohorts_;  // by tile index
  metrics::Histogram delivery_latency_;
  std::vector<double> migration_credit_;  // fractional outflow per tile
  std::uint64_t cohort_crossings_ = 0;
  Rng migration_rng_;
  MigrationSink migration_sink_;
  sim::PeriodicTask migration_;
};

}  // namespace dynamoth::mammoth
