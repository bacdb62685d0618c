// Block-parallel game experiments (DESIGN.md section 15): the RGame world is
// partitioned into regions — contiguous tile bands balanced by stationary
// density — and each region runs as a complete sub-cluster (its own
// Simulator, Network, balancer fleet and cohort population) on its own
// sim::ShardedEngine shard. Regions are coupled only through an
// inter-region gateway:
//
//  - Migration: a member whose aggregate random-walk step crosses a region
//    border leaves its shard, occupies the gateway's egress port, and
//    arrives at the owning region one inter-region delay later (the engine
//    lookahead) as a BoundaryEvent.
//  - Boundary AoI (opt-in): publications in a tile adjacent to a region
//    border are relayed, once per second in aggregate, to the neighbouring
//    region's edge tiles — members there hear them at gateway latency.
//
// K = 1 spawns no threads, no gateway, and no region map: it is the classic
// run_game_experiment byte for byte (the determinism guard asserts it).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "mammoth/experiments.h"
#include "sim/sharded_engine.h"

namespace dynamoth::mammoth::exp {

/// Tile -> region map for the block-parallel partitioner: contiguous
/// row-major bands cut so cumulative stationary weight is balanced across
/// regions — each shard gets an equal share of the population (and with it,
/// of the event load). Returns tile_weights.size() entries in [0, regions);
/// every region owns at least one tile.
[[nodiscard]] std::vector<std::uint32_t> band_shard_assignment(
    const std::vector<double>& tile_weights, std::size_t regions);

struct ShardOptions {
  /// Region / shard / worker-thread count. 1 = classic single-threaded run.
  std::size_t shards = 1;
  /// Arm the boundary-AoI relay. Off by default so --shards scaling sweeps
  /// measure pure engine speedup on an unchanged workload.
  bool boundary_aoi = false;
};

struct ShardedGameResult {
  /// Cross-region merge: series rows aligned by timestamp (players, msgs,
  /// servers, rebalances summed; rt weighted by players; avg_lr weighted by
  /// servers; max_lr maxed), histograms merged, scalar totals summed,
  /// max_players_ok / peak_servers recomputed from the merged series.
  /// events is the time-sorted concatenation; metrics and audit stay
  /// per-shard (see per_shard).
  GameExperimentResult merged;
  std::vector<GameExperimentResult> per_shard;
  sim::ShardedEngine::Stats engine;
};

/// Runs config under `options.shards` block-parallel regions. Cohort mode
/// required for shards > 1 (region filtering is an apportionment property).
/// Each region gets its share of the balancer's max_servers fleet (either
/// BalancerKind runs config.dynamoth): the shares sum to the unsharded fleet,
/// and no region gets fewer than one server.
/// Deterministic for a fixed (config.seed, options.shards).
[[nodiscard]] ShardedGameResult run_sharded_game_experiment(const GameExperimentConfig& config,
                                                            const ShardOptions& options);

}  // namespace dynamoth::mammoth::exp
