// Property test for the bounded-load invariant (ISSUE 7): after every
// rebalance round, no server's assigned load exceeds its (1+epsilon) bound —
// (1+eps) x fair share of the measured load, capacity-weighted — unless the
// policy itself flagged overflow (fleet undersized for one channel).
//
// The workload is a seeded Figure-5-style churn replay against FakeRoundOps:
// the channel population ramps 20 -> 120 with a plateau and a steep climb,
// rates jitter per round with a heavy-tailed hot-spot mix, then the ramp
// reverses so scale-down drains the rented servers again.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "placement/bounded_load.h"
#include "fake_round_ops.h"

namespace dynamoth::placement {
namespace {

using test::FakeRoundOps;

// Fig-5-like population curve over [0,1): ramp, plateau, steep climb, decay.
int population(double phase) {
  if (phase < 0.25) return 20 + static_cast<int>(phase / 0.25 * 40);  // 20 -> 60
  if (phase < 0.45) return 60;                                       // plateau
  if (phase < 0.70) return 60 + static_cast<int>((phase - 0.45) / 0.25 * 60);  // -> 120
  return 120 - static_cast<int>((phase - 0.70) / 0.30 * 100);  // drain to 20
}

struct ChurnResult {
  int rounds_checked = 0;
  int overflow_rounds = 0;
  int spawned = 0;
};

// Drives `rounds` seeded churn rounds and asserts the bound after each one.
ChurnResult run_churn(BoundedLoadPolicy& policy, FakeRoundOps& ops, std::uint32_t seed,
                      int rounds, double epsilon, bool equal_capacity) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  ChurnResult result;
  ServerId next_spawn = 100;
  int max_seen = 0;
  std::size_t prev_spawns = 0;

  for (int round = 0; round < rounds; ++round) {
    const double phase = static_cast<double>(round) / rounds;
    const int channels = population(phase);
    for (int c = 0; c < channels; ++c) {
      // Every 7th tile is a hot spot (quadrant boundary in the game map).
      const double base = (c % 7 == 0) ? 400.0 : 120.0;
      ops.offer("tile:" + std::to_string(c), base * jitter(rng));
    }
    for (int c = channels; c < max_seen; ++c) {
      ops.clear_channel("tile:" + std::to_string(c));  // population shrank
    }
    max_seen = std::max(max_seen, channels);

    ops.allow_spawn(next_spawn, equal_capacity ? 10'000.0 : 5'000.0);
    ops.reset_round();
    policy.system_rebalance(ops, /*scale_down_allowed=*/true);
    if (ops.spawns() > prev_spawns) {
      prev_spawns = ops.spawns();
      ++next_spawn;
      ++result.spawned;
    }

    const auto& stats = policy.last_round();
    if (stats.ran) {
      ++result.rounds_checked;
      if (stats.overflow) {
        ++result.overflow_rounds;
      } else {
        for (const auto& [server, assigned] : stats.assigned) {
          EXPECT_LE(assigned, stats.cap.at(server) + 1e-6)
              << "round " << round << ": server " << server << " exceeds its cap ("
              << assigned << " > " << stats.cap.at(server) << ")";
        }
        if (equal_capacity) {
          // With a homogeneous fleet the cap IS (1+eps) x average load.
          const double avg = stats.total_load / static_cast<double>(stats.assigned.size());
          for (const auto& [server, assigned] : stats.assigned) {
            EXPECT_LE(assigned, (1.0 + epsilon) * avg + 1e-6)
                << "round " << round << ": server " << server;
          }
        }
      }
    }
  }
  return result;
}

TEST(BoundedLoadProperty, BoundHoldsUnderSeededFig5ChurnEqualCapacity) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  config.bounded_epsilon = 0.25;
  BoundedLoadPolicy policy(config);

  FakeRoundOps ops;
  for (ServerId s = 1; s <= 4; ++s) ops.add_server(s, 10'000, /*on_base_ring=*/true);

  const ChurnResult r = run_churn(policy, ops, /*seed=*/20150629, /*rounds=*/160,
                                  config.bounded_epsilon, /*equal_capacity=*/true);
  EXPECT_GT(r.rounds_checked, 150);  // the bound was actually exercised
  // Overflow is the documented escape hatch, not the steady state.
  EXPECT_LT(r.overflow_rounds, r.rounds_checked / 4);
}

TEST(BoundedLoadProperty, BoundHoldsWithHeterogeneousCapacities) {
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;
  config.bounded_epsilon = 0.10;  // tighter bound, more forwarding
  BoundedLoadPolicy policy(config);

  FakeRoundOps ops;
  ops.add_server(1, 20'000, true);
  ops.add_server(2, 20'000, true);
  ops.add_server(3, 5'000, true);  // small box: must not get a full share
  ops.add_server(4, 5'000, true);

  const ChurnResult r = run_churn(policy, ops, /*seed=*/4242, /*rounds=*/120,
                                  config.bounded_epsilon, /*equal_capacity=*/false);
  EXPECT_GT(r.rounds_checked, 110);
}

TEST(BoundedLoadProperty, ChurnReplayIsDeterministic) {
  // Two independent policies replaying the same seed must make identical
  // placements — the policy may depend only on names, ids and load numbers.
  PolicyConfig config;
  config.kind = PolicyKind::kBoundedLoad;

  std::vector<std::string> timelines[2];
  for (int run = 0; run < 2; ++run) {
    BoundedLoadPolicy policy(config);
    FakeRoundOps ops;
    for (ServerId s = 1; s <= 4; ++s) ops.add_server(s, 10'000, true);
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> jitter(0.5, 1.5);
    for (int round = 0; round < 40; ++round) {
      for (int c = 0; c < 50; ++c) {
        ops.offer("tile:" + std::to_string(c), ((c % 7 == 0) ? 900.0 : 120.0) * jitter(rng));
      }
      ops.reset_round();
      policy.system_rebalance(ops, true);
      for (const auto& move : ops.moves()) {
        timelines[run].push_back(std::to_string(round) + ":" + move.channel + "->" +
                                 std::to_string(move.to.front()));
      }
    }
  }
  EXPECT_EQ(timelines[0], timelines[1]);
}

}  // namespace
}  // namespace dynamoth::placement
