// The plan: Dynamoth's channel -> pub/sub-server(s) lookup table.
//
// "a more elaborate version of a lookup table where the keys are the channels
// and the values are the list of servers that should be used for each
// channel" (paper II-A). Entries carry the replication mode decided by
// channel-level balancing and a per-entry version used for lazy propagation:
// clients stamp publications with the version of the entry they used, letting
// dispatchers detect stale publishers and repair delivery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/channel_table.h"
#include "common/types.h"
#include "core/consistent_hash.h"

namespace dynamoth::core {

/// Channel replication schemes (paper II-B, Figure 2).
enum class ReplicationMode : std::uint8_t {
  kNone,            // single server owns the channel
  kAllSubscribers,  // subscribers subscribe everywhere; publishers pick one
  kAllPublishers,   // publishers publish everywhere; subscribers pick one
};

[[nodiscard]] const char* to_string(ReplicationMode mode);

/// Upper bound on an Algorithm 1 replica set, so on any entry's server list
/// (the fleet size caps it too).
inline constexpr std::size_t kMaxReplicas = 8;

struct PlanEntry {
  std::vector<ServerId> servers;  // owners, never empty for a valid entry
  ReplicationMode mode = ReplicationMode::kNone;
  /// Monotonically increasing per-channel; bumped whenever servers/mode
  /// change. Version 0 is reserved for consistent-hash fallback entries.
  std::uint64_t version = 0;

  [[nodiscard]] bool owns(ServerId server) const;
  [[nodiscard]] ServerId primary() const { return servers.front(); }

  friend bool operator==(const PlanEntry&, const PlanEntry&) = default;
};

/// The result of resolving one channel against a plan: either a pointer to
/// the plan's explicit entry, or the consistent-hash fallback server. Holds
/// no allocations; accessors synthesize the fallback on the fly. Valid only
/// while the plan it came from is alive.
class ResolvedEntry {
 public:
  ResolvedEntry(const PlanEntry* entry, ServerId fallback)
      : entry_(entry), fallback_(fallback) {}

  /// True when the plan maps the channel explicitly.
  [[nodiscard]] bool is_explicit() const { return entry_ != nullptr; }

  [[nodiscard]] std::span<const ServerId> servers() const {
    return entry_ ? std::span<const ServerId>(entry_->servers)
                  : std::span<const ServerId>(&fallback_, 1);
  }
  [[nodiscard]] ReplicationMode mode() const {
    return entry_ ? entry_->mode : ReplicationMode::kNone;
  }
  [[nodiscard]] std::uint64_t version() const { return entry_ ? entry_->version : 0; }
  [[nodiscard]] ServerId primary() const { return servers().front(); }
  [[nodiscard]] bool owns(ServerId server) const {
    for (ServerId s : servers()) {
      if (s == server) return true;
    }
    return false;
  }

  /// Copies out a standalone PlanEntry (allocates); for the cold paths that
  /// store or serialize the resolution.
  [[nodiscard]] PlanEntry materialize() const;

 private:
  const PlanEntry* entry_;  // null: consistent-hash fallback
  ServerId fallback_;
};

/// Immutable-after-publication global plan. The load balancer builds one,
/// freezes it into a shared_ptr<const Plan>, and broadcasts it to all
/// dispatchers; clients only ever hold per-channel PlanEntry copies.
///
/// Storage is a name-ordered std::map (deterministic iteration for plan
/// diffs, serialization and balancing decisions) plus an interned-id index
/// over the map's stable nodes, giving the per-publication dispatch path a
/// hash-of-uint32 lookup instead of a string walk.
class Plan {
 public:
  Plan() = default;
  Plan(const Plan& other) : id_(other.id_), entries_(other.entries_) { rebuild_index(); }
  Plan& operator=(const Plan& other) {
    if (this != &other) {
      id_ = other.id_;
      entries_ = other.entries_;
      rebuild_index();
    }
    return *this;
  }
  // Moving transfers the map's nodes, so the index's pointers stay valid.
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  void set_id(std::uint64_t id) { id_ = id; }

  /// Explicit entry for `channel`, or nullptr if the channel is unmapped
  /// (i.e. falls back to consistent hashing).
  [[nodiscard]] const PlanEntry* find(const Channel& channel) const;

  /// Explicit entry lookup by interned id; the no-allocation hot path.
  [[nodiscard]] const PlanEntry* find_by_id(ChannelId id) const {
    const auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }

  /// Resolves `channel` to an entry, falling back to the ring (version 0,
  /// kNone) when no explicit entry exists. Allocates a PlanEntry copy;
  /// prefer resolve_view on hot paths.
  [[nodiscard]] PlanEntry resolve(const Channel& channel, const ConsistentHashRing& ring) const;

  /// Non-allocating resolve: looks up by interned id and only consults the
  /// ring (a string hash) when the channel is unmapped.
  [[nodiscard]] ResolvedEntry resolve_view(ChannelId id, const Channel& channel,
                                           const ConsistentHashRing& ring) const {
    const PlanEntry* e = find_by_id(id);
    return ResolvedEntry(e, e ? kInvalidServer : ring.lookup(channel));
  }

  void set_entry(const Channel& channel, PlanEntry entry);
  void remove_entry(const Channel& channel);

  [[nodiscard]] const std::map<Channel, PlanEntry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Approximate serialized size, used to charge the network for plan
  /// broadcasts.
  [[nodiscard]] std::size_t wire_size() const;

 private:
  void rebuild_index();

  std::uint64_t id_ = 0;
  std::map<Channel, PlanEntry> entries_;  // ordered: deterministic iteration
  std::unordered_map<ChannelId, const PlanEntry*> by_id_;  // -> entries_ nodes
};

using PlanPtr = std::shared_ptr<const Plan>;

/// An empty "plan 0" (paper II-C): every channel falls back to the ring.
[[nodiscard]] PlanPtr make_plan_zero();

}  // namespace dynamoth::core
