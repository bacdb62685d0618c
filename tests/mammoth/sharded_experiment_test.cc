// Tests for the block-parallel game-experiment driver (DESIGN.md section
// 15): K = 1 byte-identity with the classic driver, (seed, K) determinism,
// population partitioning, cross-region migration, and the boundary-AoI
// relay.
#include "mammoth/sharded_experiment.h"

#include <gtest/gtest.h>

#include <numeric>

namespace dynamoth::mammoth::exp {
namespace {

GameExperimentConfig cohort_config() {
  GameExperimentConfig config = default_game_experiment();
  config.seed = 77;
  config.cluster.fixed_latency = true;
  config.cluster.fixed_latency_value = millis(15);
  config.game.tiles_per_side = 6;  // 36 tiles
  config.game.world_size = 600;
  config.game.cohort.enabled = true;
  config.schedule = {
      {seconds(0), 200}, {seconds(20), 800}, {seconds(35), 800}, {seconds(40), 400}};
  config.duration = seconds(50);
  config.sample_interval = seconds(5);
  return config;
}

void expect_identical(const GameExperimentResult& a, const GameExperimentResult& b) {
  ASSERT_EQ(a.series.rows(), b.series.rows());
  for (std::size_t r = 0; r < a.series.rows(); ++r) {
    for (std::size_t c = 0; c < a.series.columns().size(); ++c) {
      EXPECT_DOUBLE_EQ(a.series.value(r, c), b.series.value(r, c)) << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.rng_draws, b.rng_draws);
  EXPECT_EQ(a.total_updates, b.total_updates);
  EXPECT_EQ(a.connection_drops, b.connection_drops);
  EXPECT_EQ(a.rtt_us.count(), b.rtt_us.count());
  EXPECT_DOUBLE_EQ(a.rtt_us.sum(), b.rtt_us.sum());
  EXPECT_EQ(a.delivery_latency_us.count(), b.delivery_latency_us.count());
  EXPECT_DOUBLE_EQ(a.delivery_latency_us.sum(), b.delivery_latency_us.sum());
  EXPECT_DOUBLE_EQ(a.server_hours, b.server_hours);
  EXPECT_DOUBLE_EQ(a.max_players_ok, b.max_players_ok);
  EXPECT_DOUBLE_EQ(a.peak_servers, b.peak_servers);
}

// The acceptance bar for the whole subsystem: one shard through the sharded
// driver is the classic driver, bit for bit — same series cells, same event
// count, same RNG draw count, same histogram mass.
TEST(ShardedGameExperiment, SingleShardIsByteIdenticalToClassicDriver) {
  const GameExperimentConfig config = cohort_config();
  const GameExperimentResult classic = run_game_experiment(config);
  const ShardedGameResult sharded = run_sharded_game_experiment(config, ShardOptions{});
  ASSERT_EQ(sharded.per_shard.size(), 1u);
  expect_identical(classic, sharded.merged);
  expect_identical(classic, sharded.per_shard[0]);
}

// Individual (non-cohort) mode must also pass through unchanged at K = 1 —
// the region machinery only engages for cohort-mode partitions.
TEST(ShardedGameExperiment, SingleShardIndividualModeMatchesClassic) {
  GameExperimentConfig config = cohort_config();
  config.game.cohort.enabled = false;
  config.schedule = {{seconds(0), 10}, {seconds(20), 30}};
  config.duration = seconds(30);
  const GameExperimentResult classic = run_game_experiment(config);
  const ShardedGameResult sharded = run_sharded_game_experiment(config, ShardOptions{});
  expect_identical(classic, sharded.merged);
}

TEST(ShardedGameExperiment, FixedSeedAndShardCountIsBitReproducible) {
  const GameExperimentConfig config = cohort_config();
  ShardOptions options;
  options.shards = 3;
  const ShardedGameResult a = run_sharded_game_experiment(config, options);
  const ShardedGameResult b = run_sharded_game_experiment(config, options);
  expect_identical(a.merged, b.merged);
  for (std::size_t i = 0; i < a.per_shard.size(); ++i) {
    expect_identical(a.per_shard[i], b.per_shard[i]);
  }
  EXPECT_EQ(a.engine.epochs, b.engine.epochs);
  EXPECT_EQ(a.engine.boundary_events, b.engine.boundary_events);
  EXPECT_GT(a.engine.epochs, 0u);
}

TEST(ShardedGameExperiment, RegionsPartitionThePopulation) {
  const GameExperimentConfig config = cohort_config();
  ShardOptions options;
  options.shards = 2;
  const ShardedGameResult result = run_sharded_game_experiment(config, options);
  ASSERT_EQ(result.per_shard.size(), 2u);

  const std::size_t players_col = result.merged.series.column_index("players");
  // Every region carries live members, and regional populations sum to the
  // global schedule (within the handful of members in gateway flight).
  for (std::size_t r = 0; r < result.merged.series.rows(); ++r) {
    double sum = 0;
    for (const GameExperimentResult& p : result.per_shard) {
      EXPECT_GT(p.series.value(r, players_col), 0.0) << "row " << r;
      sum += p.series.value(r, players_col);
    }
    EXPECT_DOUBLE_EQ(result.merged.series.value(r, players_col), sum);
  }
  // t=25s sample, inside the 20-35s hold at 800: the full scheduled
  // population across both regions. (The sampler fires before the same-tick
  // population update, so only a row strictly inside a hold reads the
  // plateau value.)
  EXPECT_NEAR(result.merged.series.value(4, players_col), 800.0, 20.0);
}

TEST(ShardedGameExperiment, MigrationCrossesRegionBoundaries) {
  const GameExperimentConfig config = cohort_config();
  ShardOptions options;
  options.shards = 2;
  const ShardedGameResult result = run_sharded_game_experiment(config, options);
  // Aggregate random-walk churn at 0.15 crossings/member/s over a banded
  // 6x6 world must push members across the band border via the gateway.
  EXPECT_GT(result.engine.boundary_events, 0u);
  EXPECT_GT(result.engine.epochs, 1u);
}

TEST(ShardedGameExperiment, BoundaryAoiRelayAddsRemoteDeliveries) {
  const GameExperimentConfig config = cohort_config();
  ShardOptions off;
  off.shards = 2;
  ShardOptions on = off;
  on.boundary_aoi = true;
  const ShardedGameResult without = run_sharded_game_experiment(config, off);
  const ShardedGameResult with = run_sharded_game_experiment(config, on);
  // Relayed publications expand into per-member delivery-latency entries on
  // the far side of the border; everything else about the workload is
  // unchanged, so the delta is exactly the relay's contribution.
  EXPECT_GT(with.merged.delivery_latency_us.count(), without.merged.delivery_latency_us.count());
  EXPECT_GT(with.engine.boundary_events, without.engine.boundary_events);
}

TEST(BandShardAssigner, CoversEveryRegionAndBalancesWeight) {
  GameExperimentConfig config = cohort_config();
  const std::vector<double> weights = stationary_tile_weights(config.game);
  for (const std::size_t regions : {2u, 3u, 4u}) {
    const std::vector<std::uint32_t> owner = band_shard_assignment(weights, regions);
    ASSERT_EQ(owner.size(), weights.size());
    std::vector<double> mass(regions, 0.0);
    for (std::size_t t = 0; t < owner.size(); ++t) {
      ASSERT_LT(owner[t], regions);
      // Contiguous row-major bands: region ids never decrease.
      if (t > 0) {
        EXPECT_GE(owner[t], owner[t - 1]);
      }
      mass[owner[t]] += weights[t];
    }
    const double total = std::accumulate(mass.begin(), mass.end(), 0.0);
    for (std::size_t r = 0; r < regions; ++r) {
      EXPECT_GT(mass[r], 0.0) << "region " << r << " owns no weight";
      // No region hoards the population: each within 2.5x of the fair share
      // (the grid is coarse, so perfect splits are not attainable).
      EXPECT_LT(mass[r], 2.5 * total / static_cast<double>(regions));
    }
  }
}

}  // namespace
}  // namespace dynamoth::mammoth::exp
