// simctl: command-line experiment runner.
//
// Runs the RGame workload on a cluster balanced by Dynamoth, by the paper's
// consistent-hashing comparator (the Dynamoth balancer with the hashing
// placement policy and replication off), or by nothing, with every knob on
// the command line, printing the sampled time series and a summary. Outside
// fig5_scalability this is the only way to run the comparator. Handy for
// exploring configurations beyond the canned benches.
//
//   $ ./simctl --balancer=dynamoth --players=600 --duration=300 --seed=7
//   $ ./simctl --balancer=hashing --players=400 --servers=4 --csv=out.csv
//
// --players, --servers, --capacity, --duration and --ramp must be positive
// numbers; anything else prints the usage and exits 1.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "mammoth/experiments.h"

namespace {

using namespace dynamoth;
namespace exp = mammoth::exp;

struct Options {
  std::string balancer = "dynamoth";  // dynamoth | hashing | none
  std::uint64_t seed = 42;
  std::size_t players = 400;
  std::size_t max_servers = 8;
  double capacity_mbps = 1.8;     // advertised T_i in MB/s
  long duration_s = 300;
  long ramp_s = 120;
  std::string csv;                // optional CSV output path
  bool cpu_aware = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --balancer=dynamoth|hashing|none   balancing policy (default dynamoth)\n"
      "  --players=N                        plateau population (default 400)\n"
      "  --ramp=SECONDS                     join ramp length (default 120)\n"
      "  --duration=SECONDS                 total run (default 300)\n"
      "  --servers=N                        max fleet size (default 8)\n"
      "  --capacity=MBPS                    advertised T_i per server (default 1.8)\n"
      "  --cpu-aware                        enable CPU-aware balancing\n"
      "  --seed=N                           RNG seed (default 42)\n"
      "  --csv=PATH                         also write the series as CSV\n",
      argv0);
}

/// Parses a whole-string positive integer into `out`; false otherwise.
template <typename T>
bool parse_positive(const char* v, T& out) {
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n <= 0) return false;
  out = static_cast<T>(n);
  return true;
}

/// Parses a whole-string positive finite number into `out`; false otherwise.
bool parse_positive(const char* v, double& out) {
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(x) || x <= 0) return false;
  out = x;
  return true;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix) : nullptr;
    };
    bool ok = true;
    if (const char* v = value("--balancer=")) {
      options.balancer = v;
    } else if (const char* v = value("--players=")) {
      ok = parse_positive(v, options.players);
    } else if (const char* v = value("--ramp=")) {
      ok = parse_positive(v, options.ramp_s);
    } else if (const char* v = value("--duration=")) {
      ok = parse_positive(v, options.duration_s);
    } else if (const char* v = value("--servers=")) {
      ok = parse_positive(v, options.max_servers);
    } else if (const char* v = value("--capacity=")) {
      ok = parse_positive(v, options.capacity_mbps);
    } else if (const char* v = value("--seed=")) {
      options.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char* v = value("--csv=")) {
      options.csv = v;
    } else if (arg == "--cpu-aware") {
      options.cpu_aware = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "not a positive number: %s\n", arg.c_str());
      usage(argv[0]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return 1;

  exp::GameExperimentConfig config = exp::default_game_experiment();
  config.seed = options.seed;
  if (options.balancer == "dynamoth") {
    config.balancer = exp::BalancerKind::kDynamoth;
  } else if (options.balancer == "hashing") {
    config.balancer = exp::BalancerKind::kConsistentHashing;
  } else if (options.balancer == "none") {
    config.balancer = exp::BalancerKind::kNone;
  } else {
    std::fprintf(stderr, "unknown balancer: %s\n", options.balancer.c_str());
    return 1;
  }
  config.cluster.server_capacity = options.capacity_mbps * 1e6;
  config.dynamoth.max_servers = options.max_servers;
  config.dynamoth.cpu_aware = options.cpu_aware;
  config.schedule = {{seconds(0), options.players / 10},
                     {seconds(static_cast<double>(options.ramp_s)), options.players}};
  config.duration = seconds(static_cast<double>(options.duration_s));
  config.sample_interval = seconds(10);

  std::printf("simctl: %s, %zu players over %lds, <=%zu servers @ %.1f MB/s, seed %llu\n\n",
              to_string(config.balancer), options.players, options.ramp_s,
              options.max_servers, options.capacity_mbps,
              static_cast<unsigned long long>(options.seed));

  const exp::GameExperimentResult result = run_game_experiment(config);
  result.series.print_table(std::cout);
  if (!options.csv.empty() && result.series.save_csv(options.csv)) {
    std::printf("\n(series saved to %s)\n", options.csv.c_str());
  }

  std::printf("\nsummary: rt mean %.1f ms / p99 %.1f ms | peak servers %.0f | "
              "max players <=150ms: %.0f | rebalances %zu | %.2f server-hours\n",
              result.rtt_us.mean() / 1000.0,
              static_cast<double>(result.rtt_us.percentile(99)) / 1000.0,
              result.peak_servers, result.max_players_ok, result.events.size(),
              result.server_hours);
  return 0;
}
