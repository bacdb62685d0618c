// Tests for the shared game-experiment driver used by the figure benches.
#include "mammoth/experiments.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace.h"

namespace dynamoth::mammoth::exp {
namespace {

GameExperimentConfig small_config(BalancerKind kind) {
  GameExperimentConfig config = default_game_experiment();
  config.seed = 55;
  config.balancer = kind;
  config.cluster.fixed_latency = true;
  config.cluster.fixed_latency_value = millis(15);
  config.game.tiles_per_side = 4;
  config.game.world_size = 400;
  config.schedule = {{seconds(0), 10}, {seconds(20), 40}, {seconds(40), 20}};
  config.duration = seconds(50);
  config.sample_interval = seconds(5);
  return config;
}

TEST(GameExperiment, SeriesHasExpectedShape) {
  const GameExperimentResult result = run_game_experiment(small_config(BalancerKind::kDynamoth));
  EXPECT_EQ(result.series.rows(), 10u);  // 50s / 5s samples
  // Columns exist (column_index aborts otherwise).
  for (const char* col :
       {"t_s", "players", "msgs_per_s", "servers", "rt_ms", "avg_lr", "max_lr", "rebalances"}) {
    EXPECT_GE(result.series.column_index(col), 0u);
  }
  EXPECT_GT(result.total_updates, 0u);
  EXPECT_GT(result.rtt_us.count(), 0u);
}

TEST(GameExperiment, PopulationFollowsSchedule) {
  const GameExperimentResult result = run_game_experiment(small_config(BalancerKind::kNone));
  const auto players = [&](std::size_t row) {
    return result.series.value(row, result.series.column_index("players"));
  };
  // t=5: ramping 10 -> 40 over [0,20]: expect ~17-18.
  EXPECT_GT(players(0), 10.0);
  EXPECT_LT(players(0), 30.0);
  // t=20: plateau of the first ramp.
  EXPECT_NEAR(players(3), 40.0, 2.0);
  // t=40+: ramped back down to 20.
  EXPECT_NEAR(players(8), 20.0, 2.0);
}

TEST(GameExperiment, ThresholdTracksQualifyingPopulations) {
  GameExperimentConfig config = small_config(BalancerKind::kNone);
  config.rt_threshold_ms = 10'000;  // everything qualifies
  const GameExperimentResult all = run_game_experiment(config);
  EXPECT_NEAR(all.max_players_ok, 40.0, 2.0);

  config.rt_threshold_ms = 0.001;  // nothing qualifies
  const GameExperimentResult none = run_game_experiment(config);
  EXPECT_EQ(none.max_players_ok, 0.0);
}

TEST(GameExperiment, DeterministicAcrossRuns) {
  const GameExperimentResult a = run_game_experiment(small_config(BalancerKind::kDynamoth));
  const GameExperimentResult b = run_game_experiment(small_config(BalancerKind::kDynamoth));
  ASSERT_EQ(a.series.rows(), b.series.rows());
  for (std::size_t r = 0; r < a.series.rows(); ++r) {
    for (std::size_t c = 0; c < a.series.columns().size(); ++c) {
      EXPECT_DOUBLE_EQ(a.series.value(r, c), b.series.value(r, c)) << r << "," << c;
    }
  }
  EXPECT_EQ(a.total_updates, b.total_updates);
}

// Guard for the event-engine/fan-out hot path: a shortened Figure-5
// scenario must produce bit-identical CSV output and execute exactly the
// same number of simulator events when run twice in the same process. This
// catches any nondeterminism introduced by unordered containers or interned
// channel ids (the second run sees a pre-populated ChannelTable, so id
// values differ from the first run's cold table — results must not). Both
// balancing kinds run: the comparator's ring-growth plans must not depend on
// id values either.
TEST(GameExperiment, Fig5ScenarioIsBitwiseDeterministic) {
  for (BalancerKind kind : {BalancerKind::kDynamoth, BalancerKind::kConsistentHashing}) {
    SCOPED_TRACE(to_string(kind));
    GameExperimentConfig config = default_game_experiment();
    config.seed = 77;
    config.balancer = kind;
    config.schedule = {{seconds(0), 120}, {seconds(10), 120}, {seconds(60), 400}};
    config.duration = seconds(70);
    config.sample_interval = seconds(10);

    const GameExperimentResult a = run_game_experiment(config);
    const GameExperimentResult b = run_game_experiment(config);

    std::ostringstream csv_a, csv_b;
    a.series.print_csv(csv_a);
    b.series.print_csv(csv_b);
    EXPECT_EQ(csv_a.str(), csv_b.str());
    EXPECT_EQ(a.executed_events, b.executed_events);
    EXPECT_GT(a.executed_events, 0u);
    EXPECT_EQ(a.total_updates, b.total_updates);
    EXPECT_EQ(a.connection_drops, b.connection_drops);
    EXPECT_EQ(a.events.size(), b.events.size());
    EXPECT_FALSE(a.events.empty());  // the balancer did publish plans
  }
}

// Determinism under observation: enabling the trace recorder and per-window
// metrics must not perturb the simulation. Observability reads sim state, it
// never feeds back into it — same CSV, same executed-event count, same
// number of RNG draws with tracing+metrics on as with both off.
TEST(GameExperiment, ObservationDoesNotPerturbSimulation) {
  GameExperimentConfig config = default_game_experiment();
  config.seed = 77;
  config.balancer = BalancerKind::kDynamoth;
  config.schedule = {{seconds(0), 120}, {seconds(10), 120}, {seconds(60), 400}};
  config.duration = seconds(70);
  config.sample_interval = seconds(10);

  const GameExperimentResult plain = run_game_experiment(config);

  obs::trace().clear();
  obs::trace().set_enabled(true);
  GameExperimentConfig observed_config = config;
  observed_config.record_metrics_windows = true;
  const GameExperimentResult observed = run_game_experiment(observed_config);
  obs::trace().set_enabled(false);

  std::ostringstream csv_plain, csv_observed;
  plain.series.print_csv(csv_plain);
  observed.series.print_csv(csv_observed);
  EXPECT_EQ(csv_plain.str(), csv_observed.str());
  EXPECT_EQ(plain.executed_events, observed.executed_events);
  EXPECT_EQ(plain.rng_draws, observed.rng_draws);
  EXPECT_GT(plain.rng_draws, 0u);
  EXPECT_EQ(plain.total_updates, observed.total_updates);
  EXPECT_EQ(plain.connection_drops, observed.connection_drops);

  // The observed run actually observed something.
  EXPECT_GT(obs::trace().recorded(), 0u);
  EXPECT_GT(observed.metrics.windows(), 0u);
  // One audit record per emitted plan (spawn-only rounds add extra
  // plan_id==0 records on top).
  std::size_t with_plan = 0;
  for (const obs::RebalanceRecord& record : observed.audit.records()) {
    if (record.plan_id != 0) ++with_plan;
  }
  EXPECT_EQ(with_plan, observed.events.size());
  obs::trace().clear();
}

TEST(GameExperiment, AuditLogExplainsEachRebalance) {
  GameExperimentConfig config = default_game_experiment();
  config.seed = 77;
  config.balancer = BalancerKind::kDynamoth;
  config.schedule = {{seconds(0), 120}, {seconds(10), 120}, {seconds(60), 400}};
  config.duration = seconds(70);
  config.sample_interval = seconds(10);

  const GameExperimentResult result = run_game_experiment(config);
  ASSERT_GT(result.audit.total(), 0u);
  for (const obs::RebalanceRecord& record : result.audit.records()) {
    EXPECT_FALSE(record.kind.empty());
    EXPECT_GT(record.active_servers, 0u);
    if (record.plan_id != 0) {
      // Every emitted plan names at least one trigger or channel move.
      EXPECT_TRUE(!record.triggers.empty() || !record.moves.empty());
      for (const obs::ChannelMove& move : record.moves) {
        EXPECT_FALSE(move.channel.empty());
        EXPECT_FALSE(move.to.empty());
        EXPECT_GT(move.version, 0u);
      }
    }
  }
}

TEST(GameExperiment, BalancerKindNames) {
  EXPECT_STREQ(to_string(BalancerKind::kDynamoth), "dynamoth");
  EXPECT_STREQ(to_string(BalancerKind::kConsistentHashing), "consistent-hashing");
  EXPECT_STREQ(to_string(BalancerKind::kNone), "none");
}

}  // namespace
}  // namespace dynamoth::mammoth::exp
