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
  static constexpr std::size_t kServers = 4;  // initial fleet; the spike may grow it
  static constexpr std::size_t kMaxServers = 6;
  /// "fc:0" ... "fc:<n-1>", one publisher each.
  static constexpr std::size_t kChannels = 8;
  /// Wildcard clients; each psubscribes "fc:*" and must match the explicit
  /// arm message-for-message.
  static constexpr std::size_t kPatternSubscribers = 2;
  /// Plain clients; each subscribes to every channel explicitly (the
  /// reference arm for the equivalence check).
  static constexpr std::size_t kExplicitSubscribers = 2;

  static constexpr SimTime kBasePublishInterval = millis(100);  // per channel, off-spike
  static constexpr std::size_t kPayloadBytes = 200;
  static constexpr SimTime kSettle = seconds(2);  // subscriptions placed before traffic
  static constexpr SimTime kWindow = seconds(1);  // metrics window

  static constexpr SimTime kTWait = seconds(5);  // short rounds: spikes outpace 15s
  static constexpr SimTime kDetectorTimeout = seconds(4);
  /// Algorithm 1 thresholds, scaled down to this harness's client counts
  /// (the paper's defaults assume thousands of real subscribers). With one
  /// publisher per channel and a handful of subscribers, a ~50x spike takes
  /// the hot channel to ~500 pubs/s against ~10 listeners — past these,
  /// while staying under the NIC line rate (a saturating spike would turn
  /// the equivalence check into a measurement of best-effort drop luck).
  /// Replication stays on (the balancer's default): the spike is built to
  /// trip Algorithm 1.
  static constexpr double kAllSubsThreshold = 30;       // publications per subscriber /s
  static constexpr double kPublicationThreshold = 150;  // min publications/s
  static constexpr double kAllPubsThreshold = 90;       // subscribers per publication /s
  static constexpr double kSubscriberThreshold = 250;   // min subscribers

  std::uint64_t seed = 1;
  SimTime duration = seconds(60);  // traffic (spikes are relative to its start)
  SimTime drain = seconds(20);     // quiesce after traffic stops

  FlashCrowdSchedule spikes;
  /// Optional faults layered on top (crash-during-spike arms), armed when
  /// traffic starts.
  fault::FaultSchedule faults;

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
  /// pre-fix single-server PSUBSCRIBE behaviour).
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
