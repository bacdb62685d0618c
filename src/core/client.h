// The Dynamoth client library (paper II-A, II-C, IV).
//
// Exposes a standard channel pub/sub API. Internally it maintains the
// client-specific *local plan* P(C): per-channel entries learned lazily —
// initially from consistent hashing, later from SWITCH notifications on data
// channels and wrong-server replies on the client's control channel. Entries
// expire on inactivity (paper IV-A5). Publications received through more than
// one server during reconfiguration are deduplicated by globally unique
// message id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/channel_table.h"
#include "common/rng.h"
#include "common/seen_ids.h"
#include "common/small_function.h"
#include "common/types.h"
#include "core/consistent_hash.h"
#include "core/control.h"
#include "core/plan.h"
#include "core/registry.h"
#include "net/network.h"
#include "pubsub/pattern.h"
#include "pubsub/remote_connection.h"
#include "sim/simulator.h"

namespace dynamoth::core {

class DynamothClient : private ChannelTable::Listener {
 public:
  /// Delay of the trailing unsubscribe when a subscription moves to another
  /// server, so forwards already in flight to the old one are not lost.
  static constexpr SimTime kUnsubscribeGrace = seconds(1);

  struct Config {
    SimTime entry_timeout = seconds(60);     // local-plan entry expiry
    SimTime sweep_interval = seconds(5);     // expiry check cadence
    SimTime reconnect_delay = millis(500);   // after the server dropped us

    /// Publishes that could not reach any live server wait here for the
    /// next flush (a later publish or the sweep); the oldest is dropped on
    /// overflow. Models a client library's bounded send buffer.
    std::size_t max_pending_publishes = 1024;

    /// When a channel is re-homed onto a different server set (plan push or
    /// dead-server fallback), clones of every data publish sent within this
    /// window are re-routed through the new placement: the old owner may
    /// have crashed or been cut off with the tail of the stream
    /// unacknowledged. Receivers dedup by message id, so retransmission is
    /// idempotent. 0 disables (default: healthy runs take the exact same
    /// path as before).
    SimTime republish_window = 0;

    /// Cohort multiplicity: this client stands in for `multiplicity`
    /// statistically identical clients. Every connection it opens declares
    /// the weight (before any SUBSCRIBE rides the stream), so its
    /// subscriptions count as N subscribers, deliveries to it cost N x
    /// egress, and its publications carry publisher-weight N. 1 = an
    /// ordinary individual client (default; no weight command is sent).
    std::uint32_t multiplicity = 1;

    /// Re-issue SUBSCRIBE on every sweep for channels we believe are placed.
    /// Subscribing twice is free at the server, but a *zombie* subscription
    /// (the server dropped us and the close notification was lost, e.g. to a
    /// partition) gets reset by the keepalive, which is how the client
    /// finally finds out. Off by default: healthy runs don't need the
    /// traffic; chaos experiments turn it on.
    bool resubscribe_keepalive = false;
  };

  struct Stats {
    std::uint64_t published = 0;             // publish() calls
    std::uint64_t messages_sent = 0;         // wire publications (>1 per publish
                                             // under all-publishers replication)
    std::uint64_t received = 0;              // data messages handed to handlers
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t dedup_gaps_closed = 0;     // SeenIds range-cap closures
    std::uint64_t stale_drops = 0;           // data for channels not subscribed
    std::uint64_t wrong_server_replies = 0;
    std::uint64_t switches_followed = 0;
    std::uint64_t connection_drops = 0;
    std::uint64_t entries_expired = 0;

    // Failure-related (chaos experiments chart these per window).
    std::uint64_t fallback_resubscribes = 0;  // sweep found placement dead/missing
    std::uint64_t refused_publishes = 0;      // no live server; stashed for retry
    std::uint64_t pending_flushed = 0;        // stashed publishes later sent
    std::uint64_t publishes_dropped = 0;      // stash overflowed; permanently lost
    std::uint64_t republishes = 0;            // re-home retransmissions queued

    // Pattern subscriptions (DESIGN.md section 14).
    std::uint64_t pattern_deliveries = 0;  // handler invocations through patterns
    std::uint64_t patterns_expanded = 0;   // pattern -> channel expansions

    /// Adds every counter of `other` (fleet-wide totals).
    Stats& operator+=(const Stats& other);
  };

  /// Move-only, inline up to 48 capture bytes: installing a handler does not
  /// heap-allocate (std::function would beyond 16 bytes of capture).
  using MessageHandler = SmallFunction<void(const ps::EnvelopePtr&), 48>;

  DynamothClient(sim::Simulator& sim, net::Network& network, ServerRegistry& registry,
                 std::shared_ptr<const ConsistentHashRing> base_ring, NodeId node,
                 ClientId id, Config config, Rng rng);
  ~DynamothClient();

  DynamothClient(const DynamothClient&) = delete;
  DynamothClient& operator=(const DynamothClient&) = delete;

  // ---- standard pub/sub API ----

  /// Subscribes to `channel`; `handler` runs for every publication received.
  void subscribe(const Channel& channel, MessageHandler handler);
  void unsubscribe(const Channel& channel);

  /// Plan-aware PSUBSCRIBE (DESIGN.md section 14): subscribes to every
  /// channel matching the '*' glob `pattern` via pattern-to-channel
  /// expansion. The pattern registers against the global ChannelTable
  /// directory, expands to per-channel subscriptions through the normal plan
  /// path (so each matched channel follows rebalances, replication and
  /// emergency re-homes exactly like a plain subscription), and re-expands
  /// incrementally the moment any component interns a new matching name.
  /// Control channels ("@ctl:" prefix) never match. `handler` runs once per
  /// publication on any matched channel (dedup by message id across
  /// replicas); a channel held both explicitly and via patterns invokes each
  /// handler once, Redis-style. Re-psubscribing an existing pattern replaces
  /// its handler. Handlers must not call punsubscribe() from inside a
  /// delivery.
  void psubscribe(const std::string& pattern, MessageHandler handler);
  /// Detaches the pattern from every matched channel; channels with no other
  /// interest (explicit or pattern) are unsubscribed immediately.
  void punsubscribe(const std::string& pattern);

  /// Publishes `payload_bytes` of application data on `channel` (0: the
  /// library's 128-byte default). Returns the envelope (callers use its
  /// id/publish_time for RTT measurements).
  ps::EnvelopePtr publish(const Channel& channel, std::size_t payload_bytes = 0);

  /// Publishes a caller-built control envelope (kind kControl) on `channel`
  /// through the normal plan-routing path; the library fills in the id,
  /// publisher, timestamps and entry version. Used by protocol layers such
  /// as the reliability/replay service.
  ps::EnvelopePtr publish_control(const Channel& channel,
                                  std::shared_ptr<const ps::ControlBody> body,
                                  std::size_t payload_bytes = 0);

  /// Closes every connection and stops timers.
  void shutdown();

  /// Changes the cohort multiplicity at runtime (member migration between
  /// cohorts). Every open connection is informed; future connections open at
  /// the new weight.
  void set_multiplicity(std::uint32_t multiplicity);
  [[nodiscard]] std::uint32_t multiplicity() const { return config_.multiplicity; }

  /// Adopts a plan entry pushed from outside the lazy protocol (used by the
  /// eager-propagation ablation, which broadcasts plan changes to every
  /// client instead of relying on SWITCH / wrong-server corrections).
  void absorb_entry(const Channel& channel, const PlanEntry& entry) {
    if (!shut_down_) apply_entry(channel, entry);
  }

  // ---- introspection (tests & harness) ----

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool subscribed(const Channel& channel) const;
  [[nodiscard]] bool pattern_subscribed(const std::string& pattern) const;
  /// Channels the pattern is currently expanded onto (empty when unknown).
  [[nodiscard]] std::set<Channel> pattern_channels(const std::string& pattern) const;
  /// Current local-plan entry for `channel`, or nullptr if unknown.
  [[nodiscard]] const PlanEntry* plan_entry(const Channel& channel) const;
  [[nodiscard]] std::size_t plan_size() const { return slot_count_ - free_slots_.size(); }
  /// Servers where our subscription for `channel` currently lives.
  [[nodiscard]] std::set<ServerId> subscription_servers(const Channel& channel) const;
  [[nodiscard]] bool connected_to(ServerId server) const;

 private:
  /// One registered pattern. Lives in the node-stable patterns_ map, so
  /// ChannelStates hold raw pointers to it.
  struct PatternState {
    ps::CompiledPattern compiled;
    MessageHandler handler;
    std::set<Channel> channels;  // channels this pattern is expanded onto
  };

  /// Ascending set of server ids, inline. It holds servers of one plan
  /// entry, so kMaxReplicas bounds it. Iterates in ascending order, as the
  /// std::set it replaces did: placement sends commands in this order.
  class ServerSet {
   public:
    [[nodiscard]] bool contains(ServerId s) const { return std::find(begin(), end(), s) != end(); }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] const ServerId* begin() const { return ids_; }
    [[nodiscard]] const ServerId* end() const { return ids_ + size_; }
    void insert(ServerId s);
    void erase(ServerId s);
    void clear() { size_ = 0; }

   private:
    std::uint32_t size_ = 0;
    ServerId ids_[kMaxReplicas] = {};
  };

  /// Index of a ChannelState in the channel table; stable while it lives.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xFFFF'FFFF;

  struct ChannelState {
    Channel name;  // short names sit in the string's inline buffer
    /// Interned id, learned from the first delivery on this channel (the
    /// API path never interns); kInvalidChannelId until then.
    ChannelId id = kInvalidChannelId;
    std::uint32_t name_hash = 0;
    bool live = false;              // slot holds a channel (else free-listed)
    bool subscribed = false;
    PlanEntry entry;                // current known mapping
    SimTime last_activity = 0;
    MessageHandler handler;
    /// Patterns expanded onto this channel. A channel is *wanted* while
    /// subscribed || !patterns.empty(); pattern-held channels never expire
    /// and follow every plan change like explicit subscriptions.
    std::vector<PatternState*> patterns;
    ServerSet sub_servers;  // where the subscription is placed
    ServerId all_pubs_pick = kInvalidServer;  // sticky pick (all-publishers)
    std::uint64_t next_channel_seq = 0;       // per-channel publish sequence
    /// Recently routed data publishes (send time, envelope), oldest first,
    /// bounded by republish_window; empty when the feature is off.
    std::vector<std::pair<SimTime, ps::EnvelopePtr>> recent;
  };

  /// Open-addressed (linear probing) map from a 32-bit key to a Slot. Keys
  /// need not be unique: find() confirms a candidate through `match`. Two
  /// instances index the channel table, by name hash and by ChannelId.
  class SlotIndex {
   public:
    template <class Match>
    [[nodiscard]] Slot find(std::uint32_t key, Match&& match) const {
      if (cells_.empty()) return kNoSlot;
      const std::size_t mask = cells_.size() - 1;
      for (std::size_t i = home(key);; i = (i + 1) & mask) {
        const Cell& c = cells_[i];
        if (c.slot == kNoSlot) return kNoSlot;
        if (c.key == key && match(c.slot)) return c.slot;
      }
    }
    void insert(std::uint32_t key, Slot slot);
    /// Removes the cell mapping `key` to `slot` (backward-shift deletion,
    /// so probes never need tombstones).
    void erase(std::uint32_t key, Slot slot);
    void clear() {
      cells_.clear();
      used_ = 0;
      shift_ = 32;
    }

   private:
    struct Cell {
      std::uint32_t key = 0;
      Slot slot = kNoSlot;  // kNoSlot: empty cell
    };
    /// Fibonacci hashing: the top log2(size) bits of key * 2^32/phi.
    [[nodiscard]] std::size_t home(std::uint32_t key) const {
      return static_cast<std::uint32_t>(key * 0x9E37'79B9u) >> shift_;
    }
    void rehash(std::size_t capacity);

    std::vector<Cell> cells_;  // power-of-two size, load <= 3/4
    std::size_t used_ = 0;
    unsigned shift_ = 32;  // 32 - log2(cells_.size())
  };

  [[nodiscard]] static bool wants_subscription(const ChannelState& st) {
    return st.subscribed || !st.patterns.empty();
  }

  // ---- the channel table (DESIGN.md section 7) ----

  [[nodiscard]] ChannelState& slot(Slot s) const;
  /// Name lookup (API path); never interns.
  [[nodiscard]] Slot find_slot(std::string_view name) const;
  /// Delivery lookup by the envelope's interned id; on a miss, falls back to
  /// the name once and records the id in the slot.
  [[nodiscard]] Slot find_slot_for_delivery(const ps::Envelope& env);
  [[nodiscard]] ChannelState* find_state(std::string_view name) const {
    const Slot s = find_slot(name);
    return s == kNoSlot ? nullptr : &slot(s);
  }
  /// Frees the slot: it leaves both indexes and forgets its name and id.
  void erase_slot(Slot s);
  /// Sorts slots by channel name: the order std::map iteration gave the
  /// paths whose commands and events must stay in that order.
  void sort_by_name(std::vector<Slot>& slots) const;

  ChannelState& state_for(const Channel& channel);
  ps::RemoteConnection* connection(ServerId server);
  void erase_connection(ServerId server);
  void apply_entry(const Channel& channel, const PlanEntry& entry);
  void place_subscription(const Channel& channel, ChannelState& st);
  /// Falls back to the consistent-hash ring when every server in the
  /// channel's entry is dead (ring members are never released).
  void ensure_live_entry(const Channel& channel, ChannelState& st);
  /// Routes `env` per the entry's replication mode; false when no live
  /// server could be reached (the caller stashes the envelope).
  bool route(ChannelState& st, const ps::EnvelopePtr& env);
  void stash_pending(ps::MutEnvelopeRef env);
  void flush_pending();
  /// Tracks a successfully routed data publish for re-home retransmission.
  void remember_publish(ChannelState& st, const ps::EnvelopePtr& env);
  /// Queues clones of the channel's recent publishes for delivery through
  /// its (re-homed) entry.
  void republish_recent(ChannelState& st);
  void on_deliver(ServerId from, const ps::EnvelopePtr& env);
  void on_closed(ServerId from, ps::CloseReason reason);
  void sweep();
  /// True when a wanted channel's placement is empty or names a dead
  /// server: it is not receiving anything.
  [[nodiscard]] bool placement_broken(const ChannelState& st) const;

  // ---- pattern expansion (DESIGN.md section 14) ----

  /// ChannelTable::Listener: a new name was interned somewhere in the
  /// process. Must not mutate subscription state re-entrantly, so matching
  /// names queue for a deferred (schedule_after 0) expansion drain.
  void on_new_channel(ChannelId id, const std::string& name) override;
  void drain_expansions();
  /// Expands `pattern` onto `channel`: records the link and places the
  /// subscription through the normal plan path. Idempotent.
  void attach_pattern(const Channel& channel, PatternState& pattern);
  /// Drops the channel's server-side subscriptions (used when the last
  /// interest — explicit or pattern — goes away).
  void teardown_placement(const Channel& channel, ChannelState& st);

  sim::Simulator& sim_;
  net::Network& network_;
  ServerRegistry& registry_;
  std::shared_ptr<const ConsistentHashRing> base_ring_;
  NodeId node_;
  ClientId id_;
  Config config_;
  Rng rng_;

  /// The local plan P(C), one slot per known channel. Slots live in blocks
  /// of 4, 8, 16, ... states (block b holds kFirstBlock << b) that never
  /// move: a handler may subscribe to a new channel while its own slot's
  /// closure is running. Freed slots are reused; nothing is allocated until
  /// the first channel is touched.
  static constexpr Slot kFirstBlock = 4;
  std::vector<std::unique_ptr<ChannelState[]>> blocks_;
  Slot slot_count_ = 0;  // slots ever handed out (live + free)
  std::vector<Slot> free_slots_;
  SlotIndex by_name_;  // key: name hash
  SlotIndex by_id_;    // key: ChannelId, for slots that have learned theirs
  /// Slots one sweep or drop acts on, sorted by name (member: no
  /// allocation per sweep).
  std::vector<Slot> act_scratch_;
  /// Registered patterns by text. std::map: node addresses are stable, so
  /// ChannelState::patterns can hold raw pointers.
  std::map<std::string, PatternState> patterns_;
  std::vector<std::string> pending_expansions_;  // names awaiting deferred expansion
  /// Matching-pattern snapshot reused per delivery (handlers may mutate
  /// channel state mid-fan-out); member so steady-state delivery is
  /// allocation-free.
  std::vector<PatternState*> pattern_scratch_;
  bool expansion_scheduled_ = false;
  bool listening_ = false;  // registered as a ChannelTable listener
  struct Conn {
    ServerId server;
    std::unique_ptr<ps::RemoteConnection> conn;
  };
  /// Open connections, sorted by server id (the order shutdown() and
  /// set_multiplicity() send their commands in).
  std::vector<Conn> conns_;
  /// Refused publishes awaiting retry. Mutable envelopes: a stashed message
  /// was never handed to a receiver, so restamping its entry version on
  /// flush is safe.
  std::deque<ps::MutEnvelopeRef> pending_;
  SeenIds dedup_;
  Channel ctl_channel_;
  std::uint64_t next_seq_ = 1;
  Stats stats_;
  sim::PeriodicTask sweeper_;
  std::shared_ptr<bool> alive_;
  bool shut_down_ = false;
};

}  // namespace dynamoth::core
