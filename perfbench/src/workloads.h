// The benchmark's four workloads, each driven through Dynamoth's public
// APIs (mammoth::exp::GameExperimentRun / run_sharded_game_experiment, and
// harness::Cluster with DynamothClients the benchmark drives itself).
//
// A Run is one live instance of a workload. Construction plus run_until(0)
// is the set-up (deployment built up to its first timed event); the timed
// part is run_until(duration()); finish() assembles the modeled outcome.
// Stepping in chunks is event-for-event identical to one call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "tracer.h"

namespace perfbench {

/// Response-time bound of the paper (V-D): a late or lost echo/delivery
/// misses it.
inline constexpr double kSloMs = 150.0;

/// Pins the exact stochastic trajectory of a run.
struct Fingerprint {
  std::uint64_t events = 0;     // simulator events executed
  std::uint64_t rng_draws = 0;  // dynamoth::Rng draws consumed
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// What Dynamoth's users would see (modeled, in simulated time).
struct Outcome {
  Fingerprint fingerprint;
  double rt_p50_ms = 0;
  double rt_p90_ms = 0;
  double rt_p99_ms = 0;
  double lost_frac = 0;
  double slo_miss_frac = 0;
  double players_ok = 0;
  double rate_ok_per_s = 0;
  double server_hours = 0;
  std::uint64_t expected = 0;      // expected echoes / deliveries
  std::uint64_t publications = 0;  // publish operations the run issued
  /// Correctness-check failures found while running; empty when correct.
  std::vector<std::string> failures;
  /// fig7 gate only: the sampled series, in the fig7_elasticity.csv format.
  std::string series_csv;
  /// Free-form per-step breakdown (hot_channel), printed to stderr.
  std::string detail;
};

class Run {
 public:
  virtual ~Run() = default;
  [[nodiscard]] virtual dynamoth::SimTime duration() const = 0;
  /// Sim-time step of the traced run; 0 = the run cannot be stepped and
  /// runs in one run_until(duration()) call.
  [[nodiscard]] virtual dynamoth::SimTime chunk() const = 0;
  virtual void run_until(dynamoth::SimTime t) = 0;
  /// Per-layer counters as of now (traced run; called at chunk boundaries,
  /// so running maxima are sampled there). `host_run_s` is the host time
  /// spent inside run_until so far.
  [[nodiscard]] virtual Counters counters(double host_run_s) = 0;
  virtual Outcome finish() = 0;
};

struct WorkloadSpec {
  std::string name;  // BENCHMARK.json and README.md say why each was chosen
  /// Builds a run; `tiny` shrinks it to a smoke-test size. `tracer` (may be
  /// null) receives spans around the client calls the workload makes.
  std::unique_ptr<Run> (*make)(std::uint64_t seed, bool tiny, Tracer* tracer);
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

/// The per-layer metric names and units every traced run reports, in
/// order, and why a metric does not apply to a workload ("" = applies).
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();
[[nodiscard]] std::string not_applicable(const std::string& workload, const std::string& metric);

/// fig7's configuration at `seed` (seed 99 reproduces fig7_elasticity.csv).
[[nodiscard]] std::unique_ptr<Run> make_fig7_run(std::uint64_t seed);

}  // namespace perfbench
