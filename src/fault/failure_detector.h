// Heartbeat-based failure detector for the control plane.
//
// The paper assumes pub/sub servers never fail (fault tolerance is Section
// VII future work); this subsystem supplies the missing liveness machinery.
// LLA reports double as heartbeats: every server already emits one report
// per second directly to the balancer node, so the balancer can watch the
// inter-arrival process with no extra traffic.
//
// Detection is a fixed timeout: a server is suspected once it has been
// silent longer than `timeout` — simple, predictable detection latency.
//
// The detector is pure bookkeeping over (server, time) pairs: it never
// touches the network or the simulator, so it sits below core/ in the
// dependency order and is unit-testable with synthetic clocks.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "common/types.h"

namespace dynamoth::fault {

class FailureDetector {
 public:
  struct Config {
    /// Suspect after this much silence.
    SimTime timeout = seconds(5);
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
  [[nodiscard]] bool suspected(ServerId server, SimTime now) const;
  /// All currently suspected servers, ascending id (deterministic order).
  [[nodiscard]] std::vector<ServerId> suspects(SimTime now) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t watched_count() const { return watched_.size(); }

 private:
  Config config_;
  /// Last heartbeat (or watch) time per server; ordered: deterministic
  /// iteration.
  std::map<ServerId, SimTime> watched_;
};

}  // namespace dynamoth::fault
