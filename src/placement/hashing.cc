#include "placement/hashing.h"

#include <algorithm>
#include <set>

namespace dynamoth::placement {

void HashingPolicy::system_rebalance(RoundOps& ops, bool scale_down_allowed) {
  (void)scale_down_allowed;
  // Ring membership follows the roster; the first round only seeds the ring.
  const std::vector<ServerId> roster = ops.roster();
  const bool seeded = !ring_.empty();
  const std::set<ServerId> have = ring_.servers();  // copy: removal mutates it
  for (ServerId s : have) {
    if (!std::binary_search(roster.begin(), roster.end(), s)) ring_.remove_server(s);
  }
  bool grew = false;
  for (ServerId s : roster) {
    if (ring_.contains(s)) continue;
    ring_.add_server(s);
    grew = seeded;
  }
  if (grew) {
    remap(ops, roster);
    return;
  }

  // The only remedy consistent hashing has: add a server to the ring.
  ServerId hot = kInvalidServer;
  double lr_max = -1;
  for (const auto& [s, _] : ops.capacity()) {
    const double lr = ops.est_lr(s);
    if (lr > lr_max) {
      hot = s;
      lr_max = lr;
    }
  }
  if (hot == kInvalidServer || lr_max < ops.limits().lr_high) return;
  ops.set_kind(core::RebalanceKind::kHashing);
  ops.add_trigger("LR >= lr_high", hot, lr_max, ops.limits().lr_high);
  ops.request_spawn();
}

void HashingPolicy::remap(RoundOps& ops, const std::vector<ServerId>& roster) {
  std::set<Channel> known;
  for (const auto& [channel, _] : ops.plan().entries()) known.insert(channel);
  for (ServerId s : roster) {
    for (const Channel* channel : ops.reported_channels(s)) known.insert(*channel);
  }

  bool moved = false;
  for (const Channel& channel : known) {
    const ServerId target = ring_.lookup(channel);
    const core::PlanEntry* old_entry = ops.plan().find(channel);
    if (old_entry != nullptr && old_entry->servers.size() == 1 &&
        old_entry->primary() == target) {
      continue;  // unchanged
    }
    // A channel with no explicit entry resolves via the *base* ring on
    // clients; only emit an entry when the grown ring disagrees with it.
    if (old_entry == nullptr && ops.base_ring().lookup(channel) == target) continue;
    core::PlanEntry entry;
    entry.servers = {target};
    entry.mode = core::ReplicationMode::kNone;
    entry.version = (old_entry != nullptr ? old_entry->version : 0) + 1;
    ops.apply(channel, entry, "hashing: ring grew");
    ops.note_migration();
    moved = true;
  }
  if (moved) ops.set_kind(core::RebalanceKind::kHashing);
}

}  // namespace dynamoth::placement
