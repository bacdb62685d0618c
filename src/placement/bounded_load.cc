#include "placement/bounded_load.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace dynamoth::placement {
namespace {

// One single-owner channel under (re)placement this round.
struct Item {
  const Channel* name = nullptr;
  double rate = 0;            // bytes/s, summed across servers
  ServerId home = kInvalidServer;  // currently resolved owner
  std::uint64_t version = 0;  // resolved entry version
};

// Heaviest first; name breaks ties so rounds are process-independent.
bool heavier(const Item& a, const Item& b) {
  if (a.rate != b.rate) return a.rate > b.rate;
  return *a.name < *b.name;
}

}  // namespace

BoundedLoadPolicy::BoundedLoadPolicy(const PolicyConfig& config)
    : epsilon_(config.bounded_epsilon), ring_(kRingVirtualNodes) {}

std::string BoundedLoadPolicy::params() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "eps=%.2f,vnodes=%d", epsilon_,
                ring_.virtual_nodes_per_server());
  return buf;
}

void BoundedLoadPolicy::sync_ring(const std::vector<ServerId>& members) {
  const std::set<ServerId> want(members.begin(), members.end());
  // Copy: remove_server mutates the set we would be iterating.
  const std::set<ServerId> have = ring_.servers();
  for (ServerId s : have) {
    if (!want.contains(s)) ring_.remove_server(s);
  }
  for (ServerId s : members) ring_.add_server(s);
}

void BoundedLoadPolicy::system_rebalance(RoundOps& ops, bool scale_down_allowed) {
  const Limits& limits = ops.limits();
  last_round_ = RoundStats{};

  const std::vector<ServerId> order = ops.servers_by_load({});
  if (order.empty()) return;
  sync_ring(order);
  const std::set<ServerId> eligible(order.begin(), order.end());

  // ---- gather single-owner channels and their current homes ----
  std::vector<Item> items;
  double total_load = 0;
  for (const ChannelLoad& cl : ops.channel_loads()) {
    const core::PlanEntry entry = ops.plan().resolve(*cl.name, ops.base_ring());
    // Replicated channels are the micro balancer's business (Algorithm 1).
    if (entry.mode != core::ReplicationMode::kNone) continue;
    items.push_back(Item{cl.name, cl.bytes_per_sec, entry.servers.front(), entry.version});
    total_load += cl.bytes_per_sec;
  }

  double cap_total = 0;
  for (ServerId s : order) cap_total += std::max(ops.capacity().at(s), 1.0);

  // Per-server bound: (1+eps) x fair share of the measured load, where a
  // server's fair share is proportional to its advertised capacity.
  std::map<ServerId, double> cap;
  std::map<ServerId, double> assigned;
  for (ServerId s : order) {
    cap[s] = (1.0 + epsilon_) * total_load * std::max(ops.capacity().at(s), 1.0) / cap_total;
    assigned[s] = 0;
  }

  std::vector<Item> to_place;  // evicted or homed on an ineligible server
  if (total_load > 0) {
    // Charge every channel to its current home; anything resolving to a
    // server we cannot place on (retiring, draining, gone) must move.
    std::map<ServerId, std::vector<Item>> by_home;
    for (const Item& it : items) {
      if (!eligible.contains(it.home)) {
        to_place.push_back(it);
        continue;
      }
      assigned[it.home] += it.rate;
      by_home[it.home].push_back(it);
    }

    // Enforce the bound: evict busiest-first from every over-cap server.
    for (auto& [s, owned] : by_home) {
      if (assigned[s] <= cap[s]) continue;
      std::sort(owned.begin(), owned.end(), heavier);
      for (const Item& it : owned) {
        if (assigned[s] <= cap[s]) break;
        assigned[s] -= it.rate;
        to_place.push_back(it);
      }
    }

    // Re-place: walk the forwarding chain from each channel's hash point and
    // take the first bin with room. Heaviest channels place first (they are
    // the hardest to fit).
    std::sort(to_place.begin(), to_place.end(), heavier);
    bool moved_any = false;
    for (const Item& it : to_place) {
      ServerId target = kInvalidServer;
      for (ServerId s : ring_.successors(*it.name)) {
        if (assigned[s] + it.rate <= cap[s]) {
          target = s;
          break;
        }
      }
      if (target == kInvalidServer) {
        // No bin has room: the fleet is undersized for this load. Fall back
        // to the least-filled bin (relative to capacity) and flag overflow.
        last_round_.overflow = true;
        double best = -1;
        for (ServerId s : order) {
          const double fill = assigned[s] / std::max(ops.capacity().at(s), 1.0);
          if (target == kInvalidServer || fill < best) {
            target = s;
            best = fill;
          }
        }
      }
      assigned[target] += it.rate;
      if (target == it.home) continue;  // eviction resolved in place
      core::PlanEntry entry;
      entry.servers = {target};
      entry.mode = core::ReplicationMode::kNone;
      entry.version = it.version + 1;
      char why[96];
      std::snprintf(why, sizeof why, "bounded-load: forward off %s server %u",
                    eligible.contains(it.home) ? "over-cap" : "ineligible", it.home);
      ops.apply(*it.name, entry, why);
      ops.note_migration();
      moved_any = true;
    }
    if (moved_any) ops.set_kind(core::RebalanceKind::kHashing);

    last_round_.ran = true;
    last_round_.total_load = total_load;
    last_round_.cap = cap;
    last_round_.assigned = assigned;
  }

  // ---- overload: the bound is relative; absolute pressure still rules ----
  ServerId hot = kInvalidServer;
  double p_max = -1;
  for (ServerId s : order) {
    const double p = ops.pressure(s);
    if (p > p_max) {
      hot = s;
      p_max = p;
    }
  }
  // Overflow of the *relative* bound only justifies renting a server when it
  // reflects a genuine absolute shortage (some server pushed past lr_safe).
  // On an over-provisioned fleet any skew "overflows" the shrunken caps, and
  // spawning there starts a spiral: more servers -> smaller fair shares ->
  // more overflow. The fallback placement already handled the channel.
  const bool capacity_short =
      last_round_.overflow && p_max * limits.lr_high >= limits.lr_safe;
  if (p_max >= 1.0 || capacity_short) {
    ops.set_kind(core::RebalanceKind::kHighLoad);
    if (capacity_short) {
      ops.add_trigger("bounded-load cap overflow", hot, assigned[hot], cap[hot]);
    } else {
      ops.add_trigger("LR >= lr_high", hot, ops.est_lr(hot), limits.lr_high);
    }
    ops.request_spawn();
    return;
  }

  // ---- scale-down: same gate as the paper's low-load rule ----
  if (!scale_down_allowed || order.size() <= limits.min_servers) return;
  double avg = 0;
  for (ServerId s : order) avg += ops.est_lr(s);
  avg /= static_cast<double>(order.size());
  if (avg >= limits.lr_low) return;

  // Never release a base-ring member ("plan 0" must keep resolving).
  ServerId victim = kInvalidServer;
  for (ServerId s : order) {  // least pressured first
    if (!ops.base_ring().contains(s)) {
      victim = s;
      break;
    }
  }
  if (victim == kInvalidServer) return;

  // Drain through the same bounded walk, with the victim off the ring.
  ring_.remove_server(victim);
  std::vector<Item> drain;
  for (const Item& it : items) {
    const core::PlanEntry current = ops.plan().resolve(*it.name, ops.base_ring());
    if (current.servers.size() == 1 && current.servers.front() == victim) {
      drain.push_back(Item{it.name, it.rate, victim, current.version});
    }
  }
  // Plan entries still pin channels to the victim: ones with no traffic this
  // window, and replicated ones (skipped above). As in greedy's drain, a
  // replica set of three or more just sheds the victim; a pair collapses onto
  // a single owner. Replicated load sits outside the caps, so it walks at 0.
  std::vector<const Channel*> shrink;
  for (const auto& [channel, entry] : ops.plan().entries()) {
    if (!entry.owns(victim)) continue;
    if (entry.mode != core::ReplicationMode::kNone && entry.servers.size() > 2) {
      shrink.push_back(&channel);
      continue;
    }
    bool counted = false;
    for (const Item& it : drain) {
      if (*it.name == channel) {
        counted = true;
        break;
      }
    }
    if (!counted) drain.push_back(Item{&channel, 0.0, victim, entry.version});
  }
  std::sort(drain.begin(), drain.end(), heavier);

  bool all_moved = true;
  std::vector<std::pair<const Item*, ServerId>> moves;
  for (const Item& it : drain) {
    ServerId target = kInvalidServer;
    for (ServerId s : ring_.successors(*it.name)) {
      if (s == victim) continue;
      if (assigned[s] + it.rate <= cap[s]) {
        target = s;
        break;
      }
    }
    if (target == kInvalidServer) {
      all_moved = false;  // no room elsewhere; keep the server for now
      break;
    }
    // Greedy's safety check: never push a drain target past lr_safe.
    const double after =
        (ops.est_out().at(target) + it.rate) / std::max(ops.capacity().at(target), 1.0);
    if (after >= limits.lr_safe) {
      all_moved = false;
      break;
    }
    assigned[target] += it.rate;
    moves.emplace_back(&it, target);
  }
  if (!all_moved) {
    ring_.add_server(victim);  // aborted: restore membership
    return;
  }

  ops.add_trigger("avg LR < lr_low", victim, avg, limits.lr_low);
  for (const auto& [it, target] : moves) {
    core::PlanEntry entry;
    entry.servers = {target};
    entry.mode = core::ReplicationMode::kNone;
    entry.version = it->version + 1;
    char why[64];
    std::snprintf(why, sizeof why, "drain underloaded server %u", victim);
    ops.apply(*it->name, entry, why);
    ops.note_migration();
  }
  for (const Channel* channel : shrink) {
    core::PlanEntry entry = ops.plan().resolve(*channel, ops.base_ring());
    std::erase(entry.servers, victim);
    ++entry.version;
    char why[64];
    std::snprintf(why, sizeof why, "shrink replicas off draining server %u", victim);
    ops.apply(*channel, entry, why);
  }
  ops.set_kind(core::RebalanceKind::kLowLoad);
  ops.begin_drain(victim);
  last_round_.assigned = assigned;
}

ServerId BoundedLoadPolicy::emergency_home(RoundOps& ops, const Channel& channel) {
  // The internal ring may be stale (membership syncs on rebalance rounds),
  // so filter the walk by current eligibility.
  const std::vector<ServerId> order = ops.servers_by_load({});
  if (order.empty()) return kInvalidServer;
  const std::set<ServerId> eligible(order.begin(), order.end());
  if (!ring_.empty()) {
    for (ServerId s : ring_.successors(channel)) {
      if (eligible.contains(s)) return s;
    }
  }
  return order.front();
}

}  // namespace dynamoth::placement
