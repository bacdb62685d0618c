// Heartbeat-based failure detector for the control plane.
//
// The paper assumes pub/sub servers never fail (fault tolerance is Section
// VII future work); this subsystem supplies the missing liveness machinery.
// LLA reports double as heartbeats: every server already emits one report
// per second directly to the balancer node, so the balancer can watch the
// inter-arrival process with no extra traffic.
//
// Two detection modes:
//  - fixed timeout (default): a server is suspected once it has been silent
//    longer than `timeout` — simple, predictable detection latency;
//  - phi-accrual (Hayashibara et al.): the silence is scored against the
//    observed inter-arrival distribution (normal approximation), and the
//    server is suspected when phi = -log10 P(silence >= t) crosses
//    `phi_threshold` — adapts to jittery report paths.
//
// The detector is pure bookkeeping over (server, time) pairs: it never
// touches the network or the simulator, so it sits below core/ in the
// dependency order and is unit-testable with synthetic clocks.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <vector>

#include "common/types.h"

namespace dynamoth::fault {

class FailureDetector {
 public:
  struct Config {
    /// Fixed-timeout mode: suspect after this much silence.
    SimTime timeout = seconds(5);

    /// Phi-accrual mode: suspect when phi crosses `phi_threshold` instead
    /// of using the fixed timeout. Falls back to the timeout until enough
    /// inter-arrival samples (>= 3) have been observed.
    bool phi_accrual = false;
    double phi_threshold = 8.0;
  };

  FailureDetector() : FailureDetector(Config{}) {}
  explicit FailureDetector(Config config) : config_(config) {}

  /// Starts monitoring `server`. The watch time counts as an implicit first
  /// heartbeat, so a fresh server gets a full grace period before suspicion.
  void watch(ServerId server, SimTime now);
  /// Stops monitoring (server released, crashed and handled, ...).
  void forget(ServerId server);
  [[nodiscard]] bool watching(ServerId server) const { return watched_.contains(server); }

  /// Records a liveness beacon (an LLA report arrival).
  void heartbeat(ServerId server, SimTime now);

  /// Silence so far: time since the last heartbeat (or watch).
  [[nodiscard]] SimTime silence(ServerId server, SimTime now) const;
  /// Phi-accrual suspicion level; 0 when not watched or just heard from.
  [[nodiscard]] double phi(ServerId server, SimTime now) const;
  [[nodiscard]] bool suspected(ServerId server, SimTime now) const;
  /// All currently suspected servers, ascending id (deterministic order).
  [[nodiscard]] std::vector<ServerId> suspects(SimTime now) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t watched_count() const { return watched_.size(); }

 private:
  struct State {
    SimTime last = 0;                  // last heartbeat (or watch) time
    std::deque<SimTime> intervals;     // recent inter-arrival samples
  };

  Config config_;
  std::map<ServerId, State> watched_;  // ordered: deterministic iteration
};

}  // namespace dynamoth::fault
