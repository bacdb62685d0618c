// Failover experiment: a fixed pub/sub workload runs while a declarative
// fault schedule crashes servers, drops links and partitions the fleet;
// the harness measures how fast the control plane notices (detection
// latency), how fast delivery comes back (recovery latency), and how many
// publications were permanently lost — with and without the replay-based
// reliability layer.
//
// Plans are propagated eagerly to every client here (the balancer's plan
// listener feeds absorb_entry): the lazy SWITCH/wrong-server protocol
// cannot re-home a channel whose only owner is dead, because there is no
// live server left to send the correction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/balancer_base.h"
#include "core/client.h"
#include "core/load_balancer.h"
#include "fault/injector.h"
#include "metrics/histogram.h"
#include "placement/policy.h"
#include "fault/schedule.h"
#include "obs/metrics_registry.h"
#include "reliability/reliable_subscriber.h"

namespace dynamoth::harness {

struct FailoverConfig {
  static constexpr std::size_t kServers = 4;  // all consistent-hash ring members
  static constexpr std::size_t kChannels = 6;
  static constexpr std::size_t kSubscribers = 3;  // clients; each subscribes to every channel
  static constexpr SimTime kPublishInterval = millis(100);  // per channel (one publisher each)
  static constexpr std::size_t kPayloadBytes = 200;
  static constexpr SimTime kSettle = seconds(2);  // subscriptions placed before traffic
  static constexpr SimTime kWindow = seconds(1);  // metrics window
  static constexpr SimTime kTWait = seconds(15);

  std::uint64_t seed = 1;
  SimTime duration = seconds(60); // traffic (faults are armed at its start)
  SimTime drain = seconds(25);    // quiesce: replay retries, late windows

  /// Wrap every subscriber in the gap-detecting replay layer.
  bool reliability = false;

  /// Every server is crashable, ring members included: with eager plan
  /// propagation the emergency rebalance can re-home ring-resolved
  /// channels, so ring crashes are survivable here.
  fault::FaultSchedule schedule;
  /// Injector arm time relative to traffic start. Schedules with faults
  /// near t=0 should leave a few seconds so every subscriber establishes
  /// its per-publisher sequence baseline first (gap detection is relative
  /// to the first message seen).
  SimTime fault_delay = 0;

  SimTime detector_timeout = seconds(4);

  /// Placement policy for the system-level rebalance slot (and the
  /// emergency re-home path the crash schedule exercises).
  placement::PolicyConfig placement;
};

struct FailoverResult {
  obs::MetricsRegistry metrics;  // one row per window (delivered, faults, ...)

  /// Publish-to-deliver latency (us) of every handler invocation, across all
  /// subscribers — the tail shows how long re-homed channels stalled.
  metrics::Histogram delivery_us;

  std::uint64_t published = 0;
  std::uint64_t expected = 0;           // published x subscribers
  std::uint64_t delivered_unique = 0;   // distinct (subscriber, channel, seq)
  std::uint64_t lost = 0;               // expected - delivered_unique
  std::uint64_t duplicates = 0;         // handler invocations beyond unique

  SimTime first_fault = -1;       // injector's first non-reversal event
  SimTime first_suspicion = -1;   // detector's first kSuspected at/after it
  SimTime detection_latency = -1;
  /// End of the first window at/after the suspicion whose delivery rate is
  /// back to >= 80% of the pre-fault mean (and the latency from the fault).
  SimTime recovery_time = -1;
  SimTime recovery_latency = -1;
  double pre_fault_rate = 0;  // delivered per window before the first fault

  std::vector<core::BalancerBase::LivenessEvent> liveness;
  std::vector<fault::FaultInjector::Applied> faults;
  fault::FaultInjector::Stats fault_stats;
  core::DynamothLoadBalancer::Stats lb_stats;
  core::DynamothClient::Stats client_totals;       // summed over all clients
  rel::ReliableSubscriber::Stats reliability_totals;  // zero when disabled
  std::string audit_timeline;  // human-readable rebalance audit dump
};

FailoverResult run_failover(const FailoverConfig& config);

}  // namespace dynamoth::harness
