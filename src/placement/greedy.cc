#include "placement/greedy.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

namespace dynamoth::placement {

void GreedyPolicy::system_rebalance(RoundOps& ops, bool scale_down_allowed) {
  overloaded_ = false;
  high_load(ops);
  // Scale-down has lower priority (paper III-B): never in the same round as
  // a high-load migration, and never in a forced (fresh-server) round.
  if (scale_down_allowed && !overloaded_) low_load(ops);
}

void GreedyPolicy::high_load(RoundOps& ops) {
  const Limits& limits = ops.limits();
  // Algorithm 2. Bounded by a migration budget to stay O(channels).
  std::set<Channel> moved_this_round;
  int outer_guard = static_cast<int>(ops.roster().size()) + 2;

  while (outer_guard-- > 0) {
    // (H_max) = most pressured server (bandwidth LR, and CPU when enabled).
    ServerId h_max = kInvalidServer;
    double p_max = -1;
    for (const auto& [id, _] : ops.capacity()) {
      const double p = ops.pressure(id);
      if (p > p_max) {
        h_max = id;
        p_max = p;
      }
    }
    // pressure >= 1 means past lr_high (or cpu_high).
    if (h_max == kInvalidServer || p_max < 1.0) return;
    overloaded_ = true;
    ops.set_kind(core::RebalanceKind::kHighLoad);
    const bool cpu_bound =
        limits.cpu_aware &&
        ops.est_cpu(h_max) / limits.cpu_high > ops.est_lr(h_max) / limits.lr_high;
    ops.add_trigger(cpu_bound ? "CPU >= cpu_high" : "LR >= lr_high", h_max,
                    cpu_bound ? ops.est_cpu(h_max) : ops.est_lr(h_max),
                    cpu_bound ? limits.cpu_high : limits.lr_high);

    bool stuck = false;
    while (ops.est_lr(h_max) >= limits.lr_safe ||
           (limits.cpu_aware && ops.est_cpu(h_max) >= limits.cpu_safe)) {
      // Busiest migratable channel on H_max, by the binding dimension.
      // Replicated channels are the micro balancer's business; control
      // channels never appear in plans.
      const auto& rates = cpu_bound ? ops.cpu_rates(h_max) : ops.rates(h_max);
      Channel busiest;
      double busiest_rate = 0;
      for (const auto& [channel, rate] : rates) {
        if (moved_this_round.contains(channel)) continue;
        const core::PlanEntry entry = ops.plan().resolve(channel, ops.base_ring());
        if (entry.mode != core::ReplicationMode::kNone) continue;
        if (rate > busiest_rate) {
          busiest = channel;
          busiest_rate = rate;
        }
      }
      if (busiest.empty()) {
        stuck = true;
        break;
      }
      const double busiest_bytes =
          ops.rates(h_max).contains(busiest) ? ops.rates(h_max).at(busiest) : 0.0;
      const double busiest_cpu =
          limits.cpu_aware && ops.cpu_rates(h_max).contains(busiest)
              ? ops.cpu_rates(h_max).at(busiest)
              : 0.0;

      // (H_min) = least pressured server.
      const std::vector<ServerId> order = ops.servers_by_load({h_max});
      if (order.empty()) {
        stuck = true;
        break;
      }
      const ServerId h_min = order.front();
      const double target_lr_after = (ops.est_out().at(h_min) + busiest_bytes) /
                                     std::max(ops.capacity().at(h_min), 1.0);
      const double target_cpu_after = ops.est_cpu(h_min) + busiest_cpu;
      const bool target_unsafe =
          (target_lr_after >= limits.lr_safe &&
           ops.est_out().at(h_min) + busiest_bytes >= ops.est_out().at(h_max)) ||
          (limits.cpu_aware && target_cpu_after >= limits.cpu_safe &&
           target_cpu_after >= ops.est_cpu(h_max));
      if (target_unsafe) {
        // Moving it would just shift the hot spot.
        stuck = true;
        break;
      }

      core::PlanEntry entry;
      entry.servers = {h_min};
      entry.mode = core::ReplicationMode::kNone;
      entry.version = ops.plan().resolve(busiest, ops.base_ring()).version + 1;
      char why[80];
      std::snprintf(why, sizeof why, "busiest %s channel on overloaded server %u",
                    cpu_bound ? "cpu" : "egress", h_max);
      ops.apply(busiest, entry, why);
      moved_this_round.insert(busiest);
      ops.note_migration();
    }

    if (stuck) {
      // Migrations alone cannot relieve the hot spot: rent a server.
      ops.request_spawn();
      return;
    }
  }
}

void GreedyPolicy::low_load(RoundOps& ops) {
  const Limits& limits = ops.limits();
  const std::vector<ServerId> order = ops.servers_by_load({});
  if (order.size() <= limits.min_servers) return;

  // Global average estimated load ratio.
  double avg = 0;
  for (ServerId s : order) avg += ops.est_lr(s);
  avg /= static_cast<double>(order.size());
  if (avg >= limits.lr_low) return;

  // Never release a ring member: consistent-hash fallback must keep
  // resolving to a live server (base servers host "plan 0" traffic).
  ServerId victim = kInvalidServer;
  for (ServerId s : order) {
    if (!ops.base_ring().contains(s)) {
      victim = s;
      break;
    }
  }
  if (victim == kInvalidServer) return;
  ops.add_trigger("avg LR < lr_low", victim, avg, limits.lr_low);

  // Drain: move every channel off the victim while targets stay safe.
  // Collect first (apply() mutates the victim's rate map).
  std::vector<std::pair<Channel, double>> load;
  for (const auto& [channel, rate] : ops.rates(victim)) load.emplace_back(channel, rate);
  std::sort(load.begin(), load.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  // Also channels mapped to the victim with zero traffic this window.
  for (const auto& [channel, entry] : ops.plan().entries()) {
    if (entry.owns(victim) && !ops.rates(victim).contains(channel)) {
      load.emplace_back(channel, 0.0);
    }
  }

  bool all_moved = true;
  for (const auto& [channel, rate] : load) {
    const core::PlanEntry current = ops.plan().resolve(channel, ops.base_ring());
    if (!current.owns(victim)) continue;

    if (current.mode != core::ReplicationMode::kNone && current.servers.size() > 2) {
      // Shrink the replica set away from the victim.
      core::PlanEntry entry = current;
      std::erase(entry.servers, victim);
      entry.version = current.version + 1;
      char why[64];
      std::snprintf(why, sizeof why, "shrink replicas off draining server %u", victim);
      ops.apply(channel, entry, why);
      ops.set_kind(core::RebalanceKind::kLowLoad);
      continue;
    }

    const std::vector<ServerId> targets = ops.servers_by_load({victim});
    if (targets.empty()) {
      all_moved = false;
      break;
    }
    const ServerId target = targets.front();
    const double after =
        (ops.est_out().at(target) + rate) / std::max(ops.capacity().at(target), 1.0);
    if (after >= limits.lr_safe) {
      all_moved = false;  // would overload the rest; try again later
      break;
    }
    core::PlanEntry entry = current;
    entry.servers = {target};
    entry.mode = core::ReplicationMode::kNone;
    entry.version = current.version + 1;
    char why[64];
    std::snprintf(why, sizeof why, "drain underloaded server %u", victim);
    ops.apply(channel, entry, why);
    ops.set_kind(core::RebalanceKind::kLowLoad);
    ops.note_migration();
  }

  if (all_moved) {
    // Nothing maps to the victim in the new plan; release after a drain
    // period so forwarding and stale clients settle.
    ops.set_kind(core::RebalanceKind::kLowLoad);
    ops.begin_drain(victim);
  }
}

}  // namespace dynamoth::placement
