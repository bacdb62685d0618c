// Consistent hashing with bounded loads (Mirrokni, Thorup, Zadimoghaddam,
// arXiv:1608.01350): every channel hashes onto a ring, but no server may hold
// more than (1+epsilon) times its fair share of the measured load. A channel
// whose ring owner is at capacity forwards clockwise to the next server with
// room — the "forwarding chain". Compared with the paper's greedy Algorithm 2
// this trades a little per-round work for much lower plan churn: placements
// are sticky (hash-derived) and only spill when a bin genuinely fills up.
#pragma once

#include <map>
#include <vector>

#include "placement/policy.h"

namespace dynamoth::placement {

class BoundedLoadPolicy final : public PlacementPolicy {
 public:
  explicit BoundedLoadPolicy(const PolicyConfig& config);

  [[nodiscard]] const char* name() const override { return "bounded-load"; }
  [[nodiscard]] std::string params() const override;

  void system_rebalance(RoundOps& ops, bool scale_down_allowed) override;
  [[nodiscard]] ServerId emergency_home(RoundOps& ops, const Channel& channel) override;

  /// Post-round assignment snapshot, for the bounded-load invariant property
  /// test: unless `overflow` is set, assigned[s] <= cap[s] for every server.
  struct RoundStats {
    bool ran = false;       // an assignment round completed (load was measured)
    bool overflow = false;  // some channel fit nowhere under the cap
    double total_load = 0;  // bytes/s across single-owner channels placed
    std::map<ServerId, double> cap;       // per-server cap, bytes/s
    std::map<ServerId, double> assigned;  // post-round load per server, bytes/s
  };
  [[nodiscard]] const RoundStats& last_round() const { return last_round_; }

 private:
  /// Make the internal ring's membership match `members`.
  void sync_ring(const std::vector<ServerId>& members);

  /// Virtual nodes per server on the internal ring.
  static constexpr int kRingVirtualNodes = 64;

  double epsilon_;
  core::ConsistentHashRing ring_;
  RoundStats last_round_;
};

}  // namespace dynamoth::placement
