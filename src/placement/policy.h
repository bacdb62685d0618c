// Placement policies: the system-level slot of the load balancer.
//
// Dynamoth's Algorithm 2 (greedy busiest-channel migration off the most
// loaded server) is one point in a large placement design space. This
// subsystem extracts the decision — given per-server channel loads, the
// current plan and the server roster, which channel lives where — behind a
// PlacementPolicy interface with three implementations: the paper's greedy
// policy (the default), consistent hashing with bounded loads, and the
// paper's plain consistent-hashing comparator. All feed the same balancer
// round, the same audit log, and the same emergency-rebalance path.
//
// Determinism contract: a policy may only depend on channel *names*, server
// ids, and the load numbers it is handed — never on interned ChannelIds,
// whose numeric values vary between processes (interning order).
// Policies run on the control plane (inside a balancer decision round); they
// may allocate there, but nothing they retain may allocate on the per-message
// path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/balancer_base.h"  // RebalanceKind
#include "core/consistent_hash.h"
#include "core/plan.h"

namespace dynamoth::placement {

enum class PolicyKind : std::uint8_t {
  kGreedy,       // the paper's Algorithm 2, extracted verbatim (default)
  kBoundedLoad,  // consistent hashing with bounded loads (Mirrokni et al.)
  kHashing,      // plain consistent hashing: the paper's comparator (V-D)
};

/// "greedy" / "bounded-load" / "hashing"; also the policy's name() and audit
/// label.
[[nodiscard]] const char* to_string(PolicyKind kind);

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kGreedy;

  /// Bounded-load: per-server cap is (1+epsilon) * (total load / servers),
  /// scaled by the server's share of fleet capacity when capacities differ.
  double bounded_epsilon = 0.25;
};

/// Thresholds the balancer round runs under; shared by every policy so a
/// policy swap compares placement logic, not tuning.
struct Limits {
  double lr_high = 0.85;
  double lr_safe = 0.70;
  double lr_low = 0.35;
  bool cpu_aware = false;
  double cpu_high = 0.85;
  double cpu_safe = 0.70;
  std::size_t min_servers = 1;
};

/// One channel's aggregated load. Ordered by name (stable across
/// processes), never by id.
struct ChannelLoad {
  const Channel* name = nullptr;  // valid for the round
  /// Summed across servers. Includes pattern-driven fan-out: the LLA
  /// attributes deliveries to wildcard (PSUBSCRIBE) listeners to the matched
  /// channel's bytes_out, so placement policies see that load without any
  /// pattern awareness of their own (DESIGN.md section 14).
  double bytes_per_sec = 0;
};

/// The balancer-side view of one decision round: id-indexed load state,
/// the plan being edited, the roster, and the mutations a policy may make.
/// All mutations flow through apply()/request_spawn()/begin_drain() so every
/// policy feeds the same audit log and fleet machinery.
class RoundOps {
 public:
  virtual ~RoundOps() = default;

  // ---- inputs ----
  [[nodiscard]] virtual const Limits& limits() const = 0;
  [[nodiscard]] virtual const core::Plan& plan() const = 0;
  [[nodiscard]] virtual const core::ConsistentHashRing& base_ring() const = 0;
  /// Servers with load data this round (capacity known). Key set == roster.
  [[nodiscard]] virtual const std::map<ServerId, double>& capacity() const = 0;
  /// Estimated egress bytes/s per server; mutated by apply() as load moves.
  [[nodiscard]] virtual const std::map<ServerId, double>& est_out() const = 0;
  [[nodiscard]] virtual double est_lr(ServerId server) const = 0;
  [[nodiscard]] virtual double est_cpu(ServerId server) const = 0;
  /// Normalized pressure: max(LR/lr_high, cpu/cpu_high when cpu-aware).
  [[nodiscard]] virtual double pressure(ServerId server) const = 0;
  /// Per-channel egress bytes/s measured on `server` (name-ordered).
  [[nodiscard]] virtual const std::map<Channel, double>& rates(ServerId server) const = 0;
  /// Per-channel CPU core-fraction on `server` (cpu-aware rounds only).
  [[nodiscard]] virtual const std::map<Channel, double>& cpu_rates(ServerId server) const = 0;
  /// Eligible placement targets (live, not retiring/releasing), least
  /// pressured first, excluding `exclude`; id-ordered tie break.
  [[nodiscard]] virtual std::vector<ServerId> servers_by_load(
      const std::set<ServerId>& exclude) const = 0;
  /// Attached servers, ascending id, including ones without a report yet
  /// (the roster the paper's outer migration guard is bounded by).
  [[nodiscard]] virtual std::vector<ServerId> roster() const = 0;
  /// Channels named in `server`'s latest LLA report (name-ordered; empty
  /// when it has none). Pointers are valid for the round.
  [[nodiscard]] virtual std::vector<const Channel*> reported_channels(ServerId server) const = 0;

  /// Flat load vector: every channel with measured load this round, summed
  /// across servers, name-ordered. Replicated channels (explicit entries
  /// with >1 server) are included; policies that only re-home single-owner
  /// channels must filter via plan().
  [[nodiscard]] virtual std::vector<ChannelLoad> channel_loads() const = 0;

  // ---- mutations ----
  /// Re-places one channel: updates the plan entry, shifts its estimated
  /// load onto the new owners, and records the move (with `reason`) in the
  /// round's audit record.
  virtual void apply(const Channel& channel, const core::PlanEntry& entry,
                     std::string reason) = 0;
  /// Records one threshold crossing in the audit record.
  virtual void add_trigger(std::string reason, ServerId server, double value,
                           double threshold) = 0;
  virtual void set_kind(core::RebalanceKind kind) = 0;
  virtual void note_migration() = 0;
  /// Asks the cloud for one server (subject to max_servers and a pending
  /// spawn); returns true when actually requested, and records it.
  virtual bool request_spawn() = 0;
  /// Retires `victim` and schedules its release after the drain delay. The
  /// caller must already have moved every channel off it.
  virtual void begin_drain(ServerId victim) = 0;
};

/// A placement policy: fills the system-level rebalance slot (the paper's
/// Algorithm 2 position) and chooses emergency homes for channels orphaned
/// by a failed server. Constructed once per balancer; may keep state across
/// rounds (the ring-based policies keep their internal rings).
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// Self-describing parameter string for the audit log, e.g. "eps=0.25".
  /// Empty when the policy has no tunables.
  [[nodiscard]] virtual std::string params() const { return {}; }

  /// One system-level rebalance: relieve overloaded servers (migrate, or
  /// request a spawn when stuck) and, when `scale_down_allowed` and the
  /// fleet is idle, drain a server toward release.
  virtual void system_rebalance(RoundOps& ops, bool scale_down_allowed) = 0;

  /// Emergency path: a live home for `channel`, orphaned by a server the
  /// failure detector killed. Default: the least-pressured eligible server
  /// (kInvalidServer when none exists).
  [[nodiscard]] virtual ServerId emergency_home(RoundOps& ops, const Channel& channel);
};

/// Builds the configured policy. Never returns null.
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_policy(const PolicyConfig& config);

}  // namespace dynamoth::placement
