// A standalone, Redis-like channel-based pub/sub server.
//
// This is the unmodified substrate Dynamoth is layered on (paper II-A). It
// knows nothing about plans, dispatchers or load balancing; it implements:
//   - SUBSCRIBE / UNSUBSCRIBE / PSUBSCRIBE ('*' glob) / PUBLISH,
//   - single-threaded command processing (a FIFO CPU queue, like Redis),
//   - per-connection output buffers with a hard limit; a subscriber that
//     cannot drain its publications fast enough is disconnected, which is
//     Redis's client-output-buffer-limit behaviour and the failure mode the
//     paper observes in the all-subscribers experiment (Fig 4b),
//   - local observer hooks: the colocation equivalent of the LLA and
//     dispatcher registering as observers of every channel (paper III-A);
//     observer callbacks are free because they never cross the NIC.
//
// Memory architecture of the fan-out path (DESIGN.md section 11): channel
// state is an id-indexed structure-of-arrays — one 8-byte ChannelHot record
// (subscriber count + set-slab slot) per interned ChannelId, with the
// subscriber memberships in a parallel slab of SubscriberSets (flat sorted
// vectors that promote to bitmaps past a density threshold). handle_publish
// reads exactly one ChannelHot before the delivery loop; no string hash, no
// hash-map probe, no per-node pointer chase. Connections live in a
// stable-address block slab indexed by dense ConnId, and deliveries are
// issued through a Network::FanoutBatch that pins the egress node once per
// publication.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/channel_table.h"
#include "common/rc.h"
#include "common/small_function.h"
#include "common/types.h"
#include "net/network.h"
#include "pubsub/envelope.h"
#include "pubsub/pattern.h"
#include "pubsub/subscriber_set.h"
#include "sim/simulator.h"

namespace dynamoth::ps {

using ConnId = std::uint64_t;
inline constexpr ConnId kInvalidConn = 0;

enum class CloseReason {
  kByClient,
  kOutputBufferOverflow,
  kServerShutdown,
  /// Hard kill by fault injection: no close notifications ever reach the
  /// remote ends; they learn of the death from timeouts or connection resets.
  kServerCrash,
  /// A command arrived for a connection the (running) server does not know —
  /// the TCP-RST path. Clients treat it like any other involuntary close.
  kConnectionReset,
};

/// Zero-cost colocated observer (LLA / dispatcher). Callbacks fire when the
/// server *processes* the corresponding command, on the server's node.
class LocalObserver {
 public:
  virtual ~LocalObserver() = default;
  /// A publication was processed and fanned out to `subscriber_count`
  /// *modeled* subscribers (weighted: a cohort connection of weight N counts
  /// as N; not counting observers). `publisher_weight` is the publishing
  /// connection's weight — 1 for individual clients, N for a cohort
  /// connection standing in for N distinct publishers.
  virtual void on_publish(const EnvelopePtr& env, std::size_t subscriber_count,
                          std::uint32_t publisher_weight) = 0;
  virtual void on_subscribe(ConnId conn, const Channel& channel, NodeId client_node) = 0;
  virtual void on_unsubscribe(ConnId conn, const Channel& channel, NodeId client_node) = 0;
  /// The connection's multiplicity changed (cohort resize/migration).
  /// `channels` lists its current plain subscriptions (sorted by name) so
  /// observers tracking weighted subscriber counts can apply the delta.
  virtual void on_weight_update(ConnId conn, const std::vector<Channel>& channels,
                                NodeId client_node, std::uint32_t old_weight,
                                std::uint32_t new_weight) {
    (void)conn, (void)channels, (void)client_node, (void)old_weight, (void)new_weight;
  }
  /// A pattern subscription was added / removed. Fired only on actual state
  /// changes (duplicate PSUBSCRIBE / unknown PUNSUBSCRIBE are silent), so
  /// observers can keep exact per-connection pattern sets. Default no-op:
  /// plain-subscription observers are unaffected.
  virtual void on_psubscribe(ConnId conn, const std::string& pattern, NodeId client_node) {
    (void)conn, (void)pattern, (void)client_node;
  }
  virtual void on_punsubscribe(ConnId conn, const std::string& pattern, NodeId client_node) {
    (void)conn, (void)pattern, (void)client_node;
  }
  /// Connection closed; `channels` lists the plain subscriptions it held
  /// (sorted by name) and `patterns` its glob subscriptions, so observers
  /// tracking either kind can release their state.
  virtual void on_disconnect(ConnId conn, const std::vector<Channel>& channels,
                             const std::vector<std::string>& patterns, CloseReason reason) = 0;
};

/// Wire framing per pub/sub message (publish, delivery, command, reply).
inline constexpr std::size_t kMsgOverheadBytes = 64;

class PubSubServer {
 public:
  struct Config {
    // Single-threaded command costs (microseconds of server CPU).
    double cpu_publish_cost_us = 25.0;    // fixed cost per PUBLISH
    double cpu_delivery_cost_us = 190.0;  // per-subscriber fan-out cost
    double cpu_command_cost_us = 8.0;     // SUBSCRIBE / UNSUBSCRIBE

    // Per-connection delivery path (remote connections only).
    double conn_drain_bytes_per_sec = 400e3;      // WAN subscriber receive rate
    /// Receive rate for connections from infrastructure nodes (dispatchers,
    /// the load balancer, replay services): cloud-internal links are far
    /// faster than client downlinks.
    double infra_drain_bytes_per_sec = 8e6;
    std::size_t conn_output_buffer_limit = 512 * 1024;  // bytes; overflow kills conn

    /// Upper bound on the node's egress queueing delay. Outbound data does
    /// not buffer without limit in reality: socket buffers fill, writes
    /// fail, and Redis drops the slow client. A delivery that would queue
    /// beyond this bound closes its connection (overflow) instead — keeping
    /// the shared egress queue short so control traffic (wrong-server
    /// replies, switches) still flows during overload.
    SimTime max_egress_backlog = millis(800);
  };

  PubSubServer(sim::Simulator& sim, net::Network& network, NodeId node, Config config);

  PubSubServer(const PubSubServer&) = delete;
  PubSubServer& operator=(const PubSubServer&) = delete;

  // ---- connection management (called by RemoteConnection / local comps) ----

  /// Delivery callbacks sit on the per-message path, so they are move-only
  /// SmallFunctions: client-stub wrappers stay inline instead of paying
  /// std::function's heap fallback. Close callbacks are copied when a close
  /// notification is scheduled (cold path) and stay std::function.
  using DeliverFn = SmallFunction<void(const EnvelopePtr&), 48>;
  using ClosedFn = std::function<void(CloseReason)>;

  /// Registers a connection from `client_node`. Connections from the server's
  /// own node are "local": their deliveries skip the NIC and the drain model.
  ConnId open_connection(NodeId client_node, DeliverFn deliver, ClosedFn closed);

  /// Client-initiated close (commands already queued are dropped).
  void close_connection(ConnId conn);

  // ---- command entry points (already transported; cost applied here) ----

  void handle_subscribe(ConnId conn, const Channel& channel);
  void handle_unsubscribe(ConnId conn, const Channel& channel);
  /// Pattern with '*' wildcards, e.g. "*" or "tile:*".
  void handle_psubscribe(ConnId conn, const std::string& pattern);
  void handle_punsubscribe(ConnId conn, const std::string& pattern);
  void handle_publish(ConnId conn, EnvelopePtr env);
  /// Sets the connection's multiplicity: it now stands in for `weight`
  /// statistically identical clients (cohort mode). Fan-out to it costs
  /// weight x egress bytes / messages / CPU, its subscriptions count as
  /// weight subscribers, and its publications carry publisher-weight
  /// `weight`. The default weight is 1 and this command is the ONLY way to
  /// change it, so observers always see every transition. Idempotent.
  void handle_update_weight(ConnId conn, std::uint32_t weight);

  // ---- observers & introspection ----

  void add_observer(LocalObserver* observer);
  void remove_observer(LocalObserver* observer);

  /// Number of connections subscribed to `channel` (Redis PUBSUB NUMSUB).
  [[nodiscard]] std::size_t subscriber_count(const Channel& channel) const;
  /// Weighted subscriber count: sum of member connection weights — the
  /// number of *modeled* subscribers. Equals subscriber_count() when no
  /// weighted connections exist.
  [[nodiscard]] std::uint64_t subscriber_weight(const Channel& channel) const;
  /// The connection's multiplicity (0 for closed/unknown connections).
  [[nodiscard]] std::uint32_t connection_weight(ConnId conn) const {
    const Connection* c = conn < conn_index_.size() ? conn_index_[conn] : nullptr;
    return c ? c->weight : 0;
  }
  /// Number of connections holding at least one pattern subscription.
  [[nodiscard]] std::size_t pattern_connection_count() const { return pattern_conns_.size(); }
  /// Number of connections holding >= 1 pattern matching `channel` (each
  /// connection counted once, independent of plain membership). Cold-path
  /// introspection for reconfiguration decisions: a channel with local
  /// pattern listeners must be treated as listened-to even when its plain
  /// subscriber count is zero.
  [[nodiscard]] std::size_t pattern_listener_count(const Channel& channel) const;
  [[nodiscard]] std::size_t connection_count() const { return live_conns_; }
  [[nodiscard]] bool connection_alive(ConnId conn) const {
    return conn < conn_index_.size() && conn_index_[conn] != nullptr;
  }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// True when `channel`'s subscriber set is currently in its dense (bitmap)
  /// representation — introspection for tests and DESIGN.md section 11.
  [[nodiscard]] bool subscriber_set_dense(const Channel& channel) const;

  /// How far the CPU queue extends past now; grows without bound when the
  /// server is CPU-saturated (Fig 4a beyond ~500 subscribers).
  [[nodiscard]] SimTime cpu_backlog() const;

  /// Total CPU time actually *executed* by now (scheduled work minus the
  /// queue backlog). Differencing this over a window yields the CPU
  /// utilization a colocated monitor would measure; it can never exceed
  /// wall-clock time.
  [[nodiscard]] SimTime cpu_time_executed() const;

  /// Shuts the server down, closing every connection with kServerShutdown.
  void shutdown();

  /// Hard-kills the server (fault injection): every connection is dropped
  /// *without* notifying its remote end — a crashed process sends nothing.
  /// Observers still see the disconnects (they are colocated state being
  /// torn down with the process, not messages on the wire).
  void crash();

  [[nodiscard]] bool running() const { return running_; }

  /// Matches a '*' glob pattern against a channel name. Reference
  /// implementation; the publish path uses CompiledPattern, which
  /// tests/pubsub/pattern_test.cc cross-checks against this.
  static bool glob_match(const std::string& pattern, const std::string& text);

 private:
  static constexpr std::uint32_t kNoSet = 0xFFFF'FFFF;
  static constexpr std::uint32_t kNoPatternPos = 0xFFFF'FFFF;
  static constexpr std::size_t kConnBlockSize = 64;  // connections per slab block

  struct Connection {
    ConnId id = kInvalidConn;
    NodeId client_node = kInvalidNode;
    /// Refcounted so each delivery captures a pointer copy (DeliverFn itself
    /// is move-only, and at 56 bytes would blow the network callback's inline
    /// budget). Non-atomic: the simulator is single-threaded by design, and
    /// shared_ptr's atomic RMWs were measurable on the fan-out path.
    RcPtr<DeliverFn> deliver;
    ClosedFn closed;
    /// Interned subscriptions, sorted by id: membership is a binary search
    /// and the publish-path "already plain-subscribed?" test never hashes.
    std::vector<ChannelId> channels;
    std::vector<CompiledPattern> patterns;  // in PSUBSCRIBE order
    std::uint32_t pattern_pos = kNoPatternPos;  // index into pattern_conns_
    SimTime drain_free = 0;      // receive-path busy-until time
    SimTime last_arrival = 0;    // per-connection FIFO delivery ordering
    double drain_rate = 0;       // receive rate, fixed by the client's kind
    /// Multiplicity: this connection stands in for `weight` identical
    /// clients (cohort mode); 1 for ordinary connections.
    std::uint32_t weight = 1;
    bool local = false;
  };

  /// Hot per-channel scalars, structure-of-arrays by ChannelId: the publish
  /// path loads this one 8-byte record and — for the common no-pattern case —
  /// already knows the fan-out count and where the members live. `set` is a
  /// slot in sets_, assigned on first subscribe and kept for the channel's
  /// lifetime (empty sets are tombstones that retain their capacity).
  struct ChannelHot {
    std::uint32_t count = 0;
    std::uint32_t set = kNoSet;
  };

  /// Advances the CPU queue by `cost_us` and returns the completion time.
  SimTime consume_cpu(double cost_us);

  void deliver_to(Connection& conn, const EnvelopePtr& env, SimTime ready, std::size_t bytes,
                  net::Network::FanoutBatch& batch);
  void close_internal(ConnId conn, CloseReason reason);
  void drop_subscriber(ChannelId channel, ConnId conn);

  /// O(1) id lookup; null for closed or never-issued ids.
  Connection* find(ConnId conn) {
    return conn < conn_index_.size() ? conn_index_[conn] : nullptr;
  }

  Connection* allocate_connection();
  void release_connection(Connection& conn);
  /// Swap-remove `conn` from pattern_conns_, fixing the moved entry's
  /// position index — O(1) where the old std::erase scanned the vector.
  void remove_pattern_conn(Connection& conn);
  /// Rebuilds the first-byte pattern index from pattern_conns_ (lazy: runs at
  /// the next pattern-scanning publish after a pattern mutation).
  void rebuild_pattern_index();

  [[nodiscard]] static bool channel_member(const Connection& conn, ChannelId cid) {
    const auto pos = std::lower_bound(conn.channels.begin(), conn.channels.end(), cid);
    return pos != conn.channels.end() && *pos == cid;
  }

  sim::Simulator& sim_;
  net::Network& network_;
  NodeId node_;
  Config config_;

  // Connection slab: fixed-size blocks with stable addresses (observer
  // callbacks re-enter the server mid-iteration; a growing flat vector would
  // invalidate the Connection reference being delivered to), recycled through
  // a free list, looked up through a dense id->pointer index.
  std::vector<std::unique_ptr<Connection[]>> conn_blocks_;
  std::vector<Connection*> free_conns_;
  std::vector<Connection*> conn_index_;  // by ConnId; null = closed/unused
  std::size_t live_conns_ = 0;

  // SoA channel table (see class comment).
  std::vector<ChannelHot> channel_hot_;  // by ChannelId
  std::vector<SubscriberSet> sets_;      // slab; slot = ChannelHot::set

  std::vector<ConnId> pattern_conns_;  // connections holding >= 1 pattern

  /// Server-level pattern prefilter index (DESIGN.md section 14): every
  /// (connection, pattern) pair is bucketed by the pattern's first literal
  /// byte, with leading-star / empty-min-len patterns in a catch-all list.
  /// A publication probes exactly two lists — bucket[name[0]] and the
  /// catch-all — applying the hoisted min_len prefilter before touching any
  /// Connection or pattern memory, so P pattern connections whose patterns
  /// cannot match by first byte cost zero per publish (the old scan walked
  /// every connection's full pattern list). Rebuilt lazily: mutations set
  /// pattern_index_dirty_, the next pattern-scanning publish rebuilds, so
  /// refs are always fresh (a closed connection marks the index dirty before
  /// its slot can be reused).
  struct PatternRef {
    ConnId conn = kInvalidConn;
    std::uint32_t idx = 0;      // index into Connection::patterns
    std::uint32_t min_len = 0;  // hoisted CompiledPattern::min_len prefilter
  };
  std::array<std::vector<PatternRef>, 256> pattern_buckets_;
  std::vector<PatternRef> pattern_catch_all_;
  bool pattern_index_dirty_ = false;

  std::vector<LocalObserver*> observers_;
  std::vector<ConnId> fanout_scratch_;  // recipient buffer reused per publish

  /// Connections with weight > 1. The publish path consults weights only
  /// when this is non-zero, so runs without cohorts execute the exact
  /// pre-weight instruction sequence.
  std::size_t weighted_conns_ = 0;

  ConnId next_conn_ = 1;
  SimTime cpu_free_ = 0;
  SimTime cpu_scheduled_total_ = 0;  // all CPU work ever enqueued
  bool running_ = true;
};

}  // namespace dynamoth::ps
