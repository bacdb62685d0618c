// Figure 5 — Experiment 2: client scalability, Dynamoth vs consistent
// hashing.
//
// Paper setup (V-D): players join over time (~120 up to an attempted 1200),
// each publishing 3 state updates/second on its tile channel; up to 8 Redis
// servers. Figure 5a plots the player ramp, 5b total outgoing messages/s and
// active servers, 5c average response time with rebalance markers.
//
// Expected shape: Dynamoth sustains ~60% more players below the 150 ms
// quality bound than consistent hashing, reuses its server pool before
// spawning, and holds average response time near a low baseline with short
// spikes at rebalances; consistent hashing overloads early because servers
// shed 1/N of their channels regardless of load.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <utility>

#include "mammoth/experiments.h"
#include "mammoth/sharded_experiment.h"

namespace {

using namespace dynamoth;
using mammoth::exp::BalancerKind;
using mammoth::exp::GameExperimentConfig;
using mammoth::exp::GameExperimentResult;

/// --shards K: route through the block-parallel engine (DESIGN.md section
/// 15). K = 1 takes the classic single-threaded path, bit-identical to runs
/// before the knob existed.
GameExperimentResult run_with_shards(const GameExperimentConfig& config, std::size_t shards) {
  if (shards <= 1) return run_game_experiment(config);
  mammoth::exp::ShardOptions options;
  options.shards = shards;
  mammoth::exp::ShardedGameResult result = run_sharded_game_experiment(config, options);
  return std::move(result.merged);
}

GameExperimentConfig base_config() {
  GameExperimentConfig config = mammoth::exp::default_game_experiment();
  config.seed = 77;
  // Time-compressed version of the paper's ramp: 120 players at t=0,
  // linear join up to 1200 attempted players by t=420 s.
  config.schedule = {{seconds(0), 120}, {seconds(60), 120}, {seconds(420), 1200}};
  config.duration = seconds(480);
  config.sample_interval = seconds(10);
  config.record_metrics_windows = true;
  return config;
}

void print_run(const char* name, const GameExperimentResult& result) {
  std::printf("\n-- %s --\n", name);
  result.series.print_table(std::cout);
  std::printf("rebalances: %zu | peak servers: %.0f | max players with rt<=150ms: %.0f\n",
              result.events.size(), result.peak_servers, result.max_players_ok);
  std::printf("overall rt: mean %.1f ms, p50 %.1f ms, p99 %.1f ms | connection drops: %llu\n",
              result.rtt_us.mean() / 1000.0,
              static_cast<double>(result.rtt_us.percentile(50)) / 1000.0,
              static_cast<double>(result.rtt_us.percentile(99)) / 1000.0,
              static_cast<unsigned long long>(result.connection_drops));
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--users N] [--shards K]\n"
               "  --users N    attempted players (default 1200, the paper setup)\n"
               "  --shards K   block-parallel regions (default 1)\n",
               argv0);
}

/// Parses a whole-string positive integer into `out`; false otherwise
/// (strtoull would accept "-1" and wrap it to ULLONG_MAX).
bool parse_positive(const char* v, std::size_t& out) {
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n <= 0) return false;
  out = static_cast<std::size_t>(n);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // --users N: replay the same experiment with N attempted players instead
  // of the paper's 1200 — cohort mode + resource rescaling keep the figure's
  // shape (see mammoth::exp::scale_population). Default is the paper setup,
  // bit-identical to runs before the knob existed.
  // --shards K: run each experiment under K block-parallel regions (cohort
  // mode required; forced on when K > 1).
  std::size_t users = 1200;
  std::size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    std::size_t* target = nullptr;
    if (std::strcmp(argv[i], "--users") == 0) target = &users;
    if (std::strcmp(argv[i], "--shards") == 0) target = &shards;
    if (target == nullptr) continue;
    if (i + 1 >= argc || !parse_positive(argv[i + 1], *target)) {
      std::fprintf(stderr, "%s needs a positive number\n", argv[i]);
      usage(argv[0]);
      return 1;
    }
    ++i;
  }
  const double scale = static_cast<double>(users) / 1200.0;

  std::printf("== Figure 5: client scalability — Dynamoth vs consistent hashing ==\n");
  std::printf("   player ramp %zu -> %zu @ 3 updates/s, up to 8 pub/sub servers%s\n",
              static_cast<std::size_t>(120 * scale + 0.5), users,
              scale != 1.0 ? " [cohort mode]" : "");

  GameExperimentConfig dynamoth_config = base_config();
  scale_population(dynamoth_config, scale);
  if (shards > 1) dynamoth_config.game.cohort.enabled = true;
  dynamoth_config.balancer = BalancerKind::kDynamoth;
  const GameExperimentResult dyn = run_with_shards(dynamoth_config, shards);
  print_run("Dynamoth (Fig 5a/5b/5c series)", dyn);
  dyn.series.save_csv("fig5_dynamoth.csv");
  dyn.metrics.save_windows_csv("fig5_dynamoth_metrics.csv");

  std::printf("\n-- Dynamoth rebalance audit timeline --\n");
  dyn.audit.write_timeline(std::cout);

  GameExperimentConfig hash_config = base_config();
  scale_population(hash_config, scale);
  if (shards > 1) hash_config.game.cohort.enabled = true;
  hash_config.balancer = BalancerKind::kConsistentHashing;
  const GameExperimentResult hash = run_with_shards(hash_config, shards);
  print_run("Consistent hashing (Fig 5a/5b/5c series)", hash);
  hash.series.save_csv("fig5_hashing.csv");

  std::printf("\n== Headline (paper: Dynamoth handles ~60%% more players on the same servers) ==\n");
  std::printf("dynamoth  max players below 150 ms: %.0f\n", dyn.max_players_ok);
  std::printf("hashing   max players below 150 ms: %.0f\n", hash.max_players_ok);
  if (hash.max_players_ok > 0) {
    std::printf("improvement: %+.0f%%\n",
                100.0 * (dyn.max_players_ok / hash.max_players_ok - 1.0));
  }
  std::printf("(series saved to fig5_dynamoth.csv / fig5_hashing.csv)\n");
  return 0;
}
