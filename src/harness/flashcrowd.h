// Flash-crowd experiment: a channel's popularity spikes ~100x within
// seconds (an esports final, a breaking-news topic) while wildcard
// (PSUBSCRIBE) listeners cover the whole channel family. The spike pushes
// the hot channel across the Algorithm 1 replication thresholds and drags
// the system-level rebalancer along; the harness checks that pattern
// subscribers see exactly the messages explicit subscribers see through
// every plan change — the silent cross-server miss this PR fixes.
//
// Spike shapes are declarative data in the style of fault::FaultSchedule:
// plain structs with fluent builders, printable, seedable, and replayed
// bit-identically (the repo-wide determinism invariant). A raw substrate
// PSUBSCRIBE arm (one server, no plan awareness — the pre-fix behaviour)
// runs alongside to quantify how many publications the old path missed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/load_balancer.h"
#include "fault/schedule.h"
#include "harness/cluster.h"
#include "metrics/histogram.h"
#include "obs/metrics_registry.h"

namespace dynamoth::harness {

/// One popularity spike on one channel: the publish rate ramps linearly
/// from 1x to `publish_factor`, holds, then decays back, while
/// `join_subscribers` fresh clients pile onto the channel during the ramp.
struct SpikeEvent {
  SimTime at = 0;                  // relative to traffic start
  std::size_t channel = 0;         // index into the workload's channel list
  double publish_factor = 100.0;   // peak publish-rate multiplier
  SimTime ramp = seconds(3);       // 1x -> peak
  SimTime hold = seconds(10);      // at peak
  SimTime decay = seconds(8);      // peak -> 1x
  std::size_t join_subscribers = 0;  // explicit joiners, spread over the ramp
};

struct FlashCrowdSchedule {
  std::vector<SpikeEvent> events;

  // ---- fluent builders for hand-written scenarios ----
  FlashCrowdSchedule& spike(SimTime at, std::size_t channel, double factor,
                            SimTime ramp = seconds(3), SimTime hold = seconds(10),
                            SimTime decay = seconds(8), std::size_t join = 0);

  /// Publish-rate multiplier for `channel` at time `t` (relative to traffic
  /// start): the max over all spikes covering the instant, 1.0 outside any.
  [[nodiscard]] double factor_at(std::size_t channel, SimTime t) const;

  /// Orders events by time (stable: equal-time events keep insertion order).
  void sort();

  struct RandomParams {
    SimTime horizon = seconds(60);  // spikes start in [0, horizon]
    std::size_t spikes = 2;
    double min_factor = 50.0;
    double max_factor = 150.0;
    SimTime min_ramp = seconds(1);
    SimTime max_ramp = seconds(5);
    SimTime min_hold = seconds(5);
    SimTime max_hold = seconds(15);
    std::size_t max_join = 8;
  };

  /// Seeded random schedule over `channels` channels: same (seed, params,
  /// channels) -> identical events.
  [[nodiscard]] static FlashCrowdSchedule random(std::uint64_t seed,
                                                 const RandomParams& params,
                                                 std::size_t channels);
};

struct FlashCrowdConfig {
  std::uint64_t seed = 1;
  std::size_t servers = 4;         // initial fleet; the spike may grow it
  std::size_t max_servers = 6;
  std::size_t channels = 8;        // "fc:0" ... "fc:<n-1>", one publisher each
  /// Wildcard clients; each psubscribes "fc:*" and must match the explicit
  /// arm message-for-message.
  std::size_t pattern_subscribers = 2;
  /// Plain clients; each subscribes to every channel explicitly (the
  /// reference arm for the equivalence check).
  std::size_t explicit_subscribers = 2;
  /// Run the pre-fix arm too: one raw substrate PSUBSCRIBE pinned to the
  /// first server, counting the publications it silently misses.
  bool raw_psubscribe_arm = true;

  SimTime base_publish_interval = millis(100);  // per channel, off-spike
  std::size_t payload_bytes = 200;

  SimTime settle = seconds(2);     // subscriptions placed before traffic
  SimTime duration = seconds(60);  // traffic (spikes are relative to its start)
  SimTime drain = seconds(20);     // quiesce after traffic stops
  SimTime window = seconds(1);     // metrics window

  FlashCrowdSchedule spikes;
  /// Optional faults layered on top (crash-during-spike arms). Armed
  /// `fault_delay` after traffic starts, like the failover harness.
  fault::FaultSchedule faults;
  SimTime fault_delay = 0;

  SimTime t_wait = seconds(5);     // short rounds: spikes outpace 15s
  SimTime detector_timeout = seconds(4);
  bool enable_replication = true;  // the spike is built to trip Algorithm 1
  /// Algorithm 1 thresholds, scaled down to this harness's client counts
  /// (the paper's defaults assume thousands of real subscribers). With one
  /// publisher per channel and a handful of subscribers, a ~50x spike takes
  /// the hot channel to ~500 pubs/s against ~10 listeners — past these,
  /// while staying under the NIC line rate (a saturating spike would turn
  /// the equivalence check into a measurement of best-effort drop luck).
  double all_subs_threshold = 30;     // publications per subscriber /s
  double publication_threshold = 150; // min publications/s
  double all_pubs_threshold = 90;     // subscribers per publication /s
  double subscriber_threshold = 250;  // min subscribers

  ClusterConfig cluster;  // seed/initial_servers overwritten
};

struct FlashCrowdResult {
  obs::MetricsRegistry metrics;  // one row per window

  /// Publish-to-deliver latency (us), pattern and explicit arms combined.
  metrics::Histogram delivery_us;

  std::uint64_t published = 0;
  /// Distinct (channel, seq) pairs delivered, summed over the arm's clients.
  std::uint64_t pattern_delivered_unique = 0;
  std::uint64_t explicit_delivered_unique = 0;
  std::uint64_t crowd_delivered_unique = 0;  // spike joiners, hot channel only
  std::uint64_t pattern_duplicates = 0;      // handler calls beyond unique
  std::uint64_t explicit_duplicates = 0;

  /// Publications every explicit subscriber received but some pattern
  /// subscriber did not — deliverable messages a wildcard listener missed.
  /// Nonzero means the plan-aware pattern path failed; the bench exits
  /// nonzero on it.
  std::uint64_t pattern_missing = 0;

  /// Raw substrate arm: publications it saw vs. silently missed (the
  /// pre-fix single-server PSUBSCRIBE behaviour). Zero when disabled.
  std::uint64_t raw_received = 0;
  std::uint64_t raw_missed = 0;

  std::uint64_t patterns_expanded = 0;  // client-side pattern -> channel
  std::uint64_t peak_servers = 0;
  core::DynamothLoadBalancer::Stats lb_stats;
  core::DynamothClient::Stats client_totals;  // summed over all clients
  std::string audit_timeline;  // human-readable rebalance audit dump
};

FlashCrowdResult run_flashcrowd(const FlashCrowdConfig& config);

}  // namespace dynamoth::harness
