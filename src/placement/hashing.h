// The paper's comparator (V-D): plain consistent hashing as the placement
// policy.
//
// "consistent hashing can not take individual server loads into account when
// a rebalancing occurs. Servers shed 1/N of their load to a newly deployed
// server, irrespective of their current load. ... Furthermore, this technique
// has to spawn a new server every time a rebalancing occurs."
//
// When any server's estimated load ratio reaches lr_high, a server is rented.
// When it joins the roster, the internal ring grows and every known channel
// is mapped to its ring owner. No load-aware migration and no scale-down;
// the comparator runs with Algorithm 1 replication off. Plans propagate
// through the identical lazy client/dispatcher machinery, so the comparison
// isolates the balancing policy.
#pragma once

#include "placement/policy.h"

namespace dynamoth::placement {

class HashingPolicy final : public PlacementPolicy {
 public:
  /// Virtual nodes per server on the internal ring. A handful of virtual
  /// identifiers gives the newcomer chunky, load-oblivious arcs, so "highly
  /// loaded servers do not lose significant load and tend to overload again
  /// soon" (paper V-D); 2 makes the comparator saturate near the paper's
  /// observed ~625 players.
  static constexpr int kRingVirtualNodes = 2;

  HashingPolicy() : ring_(kRingVirtualNodes) {}

  [[nodiscard]] const char* name() const override { return "hashing"; }

  /// Ring growth when the roster gained a server since the last round,
  /// otherwise a spawn request when some server is past lr_high. Never
  /// drains, whatever `scale_down_allowed` says.
  void system_rebalance(RoundOps& ops, bool scale_down_allowed) override;

  [[nodiscard]] const core::ConsistentHashRing& ring() const { return ring_; }

 private:
  /// Maps every known channel (plan entries plus the channels in each
  /// roster server's latest LLA report) to its ring owner.
  void remap(RoundOps& ops, const std::vector<ServerId>& roster);

  core::ConsistentHashRing ring_;
};

}  // namespace dynamoth::placement
