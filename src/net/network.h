// Simulated network: nodes with bandwidth-limited egress ports connected by
// links whose propagation delay comes from a LatencyModel.
//
// This models exactly the resources the paper identifies as limiting:
//  - per-node *outgoing* bandwidth (the LB's load-ratio denominator T_i and
//    numerator M_i are both egress-bandwidth figures);
//  - propagation latency (King-sampled WAN for client paths, LAN inside the
//    cloud).
// Incoming bandwidth is deliberately not modelled (paper V-A: "incoming
// bandwidth ... not a limiting factor").
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "latency/latency_model.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace dynamoth::net {

struct NodeConfig {
  NodeKind kind = NodeKind::kClient;
  /// Physical egress line rate in bytes/second. For pub/sub servers this is
  /// set slightly *above* the advertised maximum T_i the LLA reports, so the
  /// measured load ratio M_i/T_i can exceed 1 before the NIC hard-saturates
  /// (the paper observes Redis failing around LR = 1.15).
  double egress_bytes_per_sec = 10e6;
};

/// Cumulative egress counters for one node. Consumers (LLA, experiment
/// harness) diff successive snapshots to get per-window rates.
///
/// Weighted sends (a cohort connection standing in for N identical
/// subscribers) increment these by their full multiplicity: weight N costs
/// N x bytes of egress occupancy and counts as N messages, so M_i, the
/// figure-5b message series and the billing model see exactly what N
/// individual subscribers would have cost.
struct EgressCounters {
  std::uint64_t bytes_sent = 0;  // enqueued on the egress port (offered load)
  std::uint64_t messages_sent = 0;
  /// Messages/bytes dropped in flight by injected faults (partitions, loss).
  /// Dropped traffic still consumed egress: the sender transmitted into the
  /// void, which is exactly what keeps its load ratio honest during faults.
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_dropped = 0;
};

class Network {
  struct Node;  // defined below; forward-declared for FanoutBatch's members

 public:
  /// Delivery callbacks ride the simulator's small-buffer callback type so
  /// the per-message capture (an envelope pointer plus a deliver function)
  /// stays inline end to end — enqueuing a send never touches the allocator.
  using DeliverFn = sim::Simulator::Callback;

  Network(sim::Simulator& sim, std::unique_ptr<LatencyModel> latency, Rng rng);

  /// Adds a node and returns its id. Nodes are never destroyed; despawned
  /// servers are marked inactive.
  NodeId add_node(const NodeConfig& config);

  /// Sends `bytes` from `from` to `to`; `on_deliver` runs at the receiver
  /// once the message has cleared the sender's egress queue, the propagation
  /// delay, and `extra_delay` (used by the pub/sub layer to model
  /// per-connection receive drains). Local sends (from == to) skip the
  /// egress queue and propagation entirely but still run asynchronously.
  ///
  /// `min_arrival` lower-bounds the delivery time; connection-oriented
  /// callers (TCP-like streams) pass the previous message's arrival to keep
  /// per-connection FIFO ordering despite independent latency samples.
  /// Returns the scheduled arrival time.
  SimTime send(NodeId from, NodeId to, std::size_t bytes, DeliverFn on_deliver,
               SimTime extra_delay = 0, SimTime min_arrival = 0);

  /// Cross-shard uplink half-send: occupies `from`'s egress port and bumps
  /// its counters with exactly the arithmetic send() uses — same tx-time
  /// expression, same weighted accounting — but schedules no delivery event:
  /// the message leaves this shard's simulated world. Returns the departure
  /// time (when the message clears the egress queue); the block-parallel
  /// experiment layer adds the fixed inter-region propagation delay and
  /// posts the result across the shard boundary (DESIGN.md section 15).
  /// Deliberately does NOT sample the latency model: the remote leg's delay
  /// is fixed by the lookahead contract, so an uplink send perturbs no local
  /// RNG draws and K = 1 runs (which never call this) stay bit-identical.
  SimTime occupy_egress(NodeId from, std::size_t bytes, std::uint32_t weight = 1) {
    DYN_CHECK(from < nodes_.size());
    DYN_CHECK(weight >= 1);
    Node& src = nodes_[from];
    const std::uint64_t wire_bytes = static_cast<std::uint64_t>(bytes) * weight;
    const auto tx_time = static_cast<SimTime>(static_cast<double>(bytes) * weight /
                                              src.config.egress_bytes_per_sec * kSecond);
    const SimTime start = std::max(sim_.now(), src.egress_free);
    src.egress_free = start + tx_time;
    src.counters.bytes_sent += wire_bytes;
    src.counters.messages_sent += weight;
    DYN_TRACE_HOT(complete(start, tx_time, from, "net", "uplink", "bytes",
                           static_cast<double>(wire_bytes)));
    return src.egress_free;
  }

  /// Batched fan-out entry point: one FanoutBatch per publish pins the sender
  /// and carries per-destination runs of deliveries (the pub/sub layer groups
  /// a publication's recipients by destination node and issues one run per
  /// destination). Every message in a run goes through exactly the same
  /// egress-accounting, latency-sampling and fault logic as send() — the two
  /// share one inlined implementation — so batching never changes a
  /// simulation's arrival times, RNG draw sequence or counters; it only
  /// eliminates the per-recipient re-validation and node lookups.
  ///
  /// Every push schedules its own delivery event immediately, exactly as
  /// Network::send would, so egress counters, the backlog and the event
  /// queue are exact after every push and interleaved calls to send() (e.g.
  /// a close notification fired mid-fan-out) observe and extend the same
  /// state. Do not add nodes while a batch is open.
  class FanoutBatch {
   public:
    FanoutBatch(Network& net, NodeId from) : net_(net), from_(from) {
      DYN_CHECK(from < net.nodes_.size());
      src_ = &net.nodes_[from];
    }

    FanoutBatch(const FanoutBatch&) = delete;
    FanoutBatch& operator=(const FanoutBatch&) = delete;

    /// Starts (or continues) the run to `to`; the destination node is
    /// resolved once per run, not once per message.
    void set_destination(NodeId to) {
      DYN_CHECK(to < net_.nodes_.size());
      to_ = to;
      dst_ = &net_.nodes_[to];
    }

    /// Appends one message to the current run. Identical semantics and
    /// return value to Network::send(from, to, ...).
    SimTime push(std::size_t bytes, DeliverFn on_deliver, SimTime extra_delay = 0,
                 SimTime min_arrival = 0) {
      return push_weighted(bytes, 1, std::move(on_deliver), extra_delay, min_arrival);
    }

    /// Weighted append: one wire run standing in for `weight` identical
    /// messages of `bytes` each. Occupies the egress port for weight x bytes,
    /// bumps the counters by the full multiplicity, samples the latency model
    /// once and schedules ONE delivery event (the receiver expands it into
    /// per-member accounting). weight == 1 is byte-identical to push().
    SimTime push_weighted(std::size_t bytes, std::uint32_t weight, DeliverFn on_deliver,
                          SimTime extra_delay = 0, SimTime min_arrival = 0) {
      DYN_CHECK(extra_delay >= 0);
      DYN_CHECK(weight >= 1);
      return net_.send_impl(*src_, *dst_, from_, to_, bytes, weight, std::move(on_deliver),
                            extra_delay, min_arrival);
    }

    /// Per-destination run grouping: switches the run's destination only
    /// when `to` differs from the previous message's, then appends. This is
    /// the call the fan-out loop makes per recipient — recipients are
    /// delivered in subscriber order, and every maximal run of consecutive
    /// recipients on one destination node resolves that node exactly once.
    SimTime send(NodeId to, std::size_t bytes, DeliverFn on_deliver, SimTime extra_delay = 0,
                 SimTime min_arrival = 0) {
      if (to != to_) set_destination(to);
      return push(bytes, std::move(on_deliver), extra_delay, min_arrival);
    }

    /// Weighted variant of send(); see push_weighted().
    SimTime send_weighted(NodeId to, std::size_t bytes, std::uint32_t weight,
                          DeliverFn on_deliver, SimTime extra_delay = 0,
                          SimTime min_arrival = 0) {
      if (to != to_) set_destination(to);
      return push_weighted(bytes, weight, std::move(on_deliver), extra_delay, min_arrival);
    }

    /// The sender's egress backlog, exact after every push — the same value
    /// Network::egress_backlog(from) would return.
    [[nodiscard]] SimTime backlog() const {
      return std::max<SimTime>(0, src_->egress_free - net_.sim_.now());
    }

   private:
    Network& net_;
    Node* src_ = nullptr;
    Node* dst_ = nullptr;
    NodeId from_;
    NodeId to_ = kInvalidNode;
  };

  [[nodiscard]] NodeKind kind(NodeId node) const;
  [[nodiscard]] bool active(NodeId node) const;
  void set_active(NodeId node, bool active);

  [[nodiscard]] double egress_capacity(NodeId node) const;
  void set_egress_capacity(NodeId node, double bytes_per_sec);

  /// How far the node's egress queue extends beyond now (0 when idle). A
  /// persistently growing backlog is the signature of an overloaded server.
  [[nodiscard]] SimTime egress_backlog(NodeId node) const;

  [[nodiscard]] const EgressCounters& counters(NodeId node) const;

  /// Bytes actually *transmitted* by now: enqueued bytes minus whatever is
  /// still sitting in the egress queue. This is what a NIC-level bandwidth
  /// measurement (the LLA's M_i) sees — it can never exceed the line rate,
  /// unlike the offered-load counter.
  [[nodiscard]] std::uint64_t transmitted_bytes(NodeId node) const;

  /// Sum of egress message counters over all infrastructure nodes; the
  /// "total outgoing messages" series of Figure 5b.
  [[nodiscard]] std::uint64_t total_infrastructure_messages() const;

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] LatencyModel& latency_model() { return *latency_; }

  // ---- fault-injection hooks (src/fault) -------------------------------
  //
  // All hooks affect only sends issued *after* the call; messages already in
  // flight deliver normally (the wire does not eat packets retroactively).
  // When no fault is configured anywhere, send() takes the exact pre-fault
  // path with an identical RNG draw sequence — fault-free runs stay
  // bit-identical to builds that never heard of these hooks.

  /// Assigns the node to a partition group. Nodes in different groups cannot
  /// exchange messages (both directions drop). Group 0 is the default
  /// "connected" side; putting a node set in group 1 isolates it.
  void set_partition_group(NodeId node, std::uint32_t group);
  [[nodiscard]] std::uint32_t partition_group(NodeId node) const;
  /// Returns every node to group 0.
  void clear_partitions();

  /// Drops each message leaving `node` with probability `rate` in [0, 1).
  void set_node_loss(NodeId node, double rate);
  /// Directional per-link loss (from -> to); overrides are combined with
  /// node loss by taking the max. Rate 0 clears the link entry.
  void set_link_loss(NodeId from, NodeId to, double rate);

  /// Adds `extra` propagation delay to every link touching `node` (applied
  /// to both its outgoing and incoming messages). 0 clears.
  void set_fault_extra_latency(NodeId node, SimTime extra);

  /// Always 0; kept only for perfbench's net.coalesced_frac, dropped with it.
  [[nodiscard]] std::uint64_t coalesced_deliveries() const { return 0; }

 private:
  /// Result of routing one (possibly weighted) message: where it lands on
  /// the sim timeline, and whether a fault ate it (dropped messages consume
  /// egress but must not schedule a delivery event).
  struct Routed {
    SimTime at;
    bool dropped;
  };

  /// The accounting half of every send: send() and FanoutBatch both land
  /// here, so batched and unbatched deliveries are identical by construction
  /// — same egress arithmetic, same RNG draw sequence, same counters and
  /// traces. send_impl schedules the delivery event at the returned time.
  /// Inline so the per-recipient batch path compiles to straight-line code
  /// with the src/dst node pointers already pinned.
  ///
  /// `weight` scales one wire run to stand in for N identical messages:
  /// egress occupancy, bytes and message counters all multiply by N, while
  /// the latency model is sampled exactly once (the N members share the
  /// connection, hence the path). weight == 1 is bit-identical to the
  /// pre-weight arithmetic: the tx-time expression multiplies by 1.0, an
  /// IEEE-exact identity.
  Routed route_impl(Node& src, Node& dst, NodeId from, NodeId to, std::size_t bytes,
                    std::uint32_t weight, SimTime extra_delay, SimTime min_arrival) {
    if (from == to) {
      // Loopback: no NIC, no propagation; still asynchronous for causality.
      return {std::max(sim_.now() + extra_delay, min_arrival), false};
    }

    const SimTime now = sim_.now();
    const std::uint64_t wire_bytes = static_cast<std::uint64_t>(bytes) * weight;
    const auto tx_time = static_cast<SimTime>(static_cast<double>(bytes) * weight /
                                              src.config.egress_bytes_per_sec * kSecond);
    const SimTime start = std::max(now, src.egress_free);
    src.egress_free = start + tx_time;
    src.counters.bytes_sent += wire_bytes;
    src.counters.messages_sent += weight;

    // The latency model is sampled on every send, fast path or not, so the
    // RNG draw sequence — and with it every downstream arrival time — is
    // identical regardless of which branch runs. Determinism before speed.
    SimTime prop = latency_->sample(src.config.kind, dst.config.kind, rng_);

    if (faults_active_) {
      // Partition check first: deterministic, consumes no RNG draw.
      bool drop = src.partition_group != dst.partition_group;
      if (!drop) {
        double p = src.loss;
        if (!link_loss_.empty()) {
          if (auto it = find_link_loss(link_key(from, to)); it != link_loss_.end()) {
            p = std::max(p, it->rate);
          }
        }
        // Loss draws happen only on sends that can actually lose the message,
        // so enabling loss on one node never shifts everyone else's samples.
        drop = p > 0 && rng_.chance(p);
      }
      if (drop) {
        src.counters.messages_dropped += weight;
        src.counters.bytes_dropped += wire_bytes;
        DYN_TRACE_HOT(instant(start, from, "net", "drop", "to", static_cast<double>(to),
                              "bytes", static_cast<double>(wire_bytes)));
        // The sender spent the egress time; the receiver just never hears it.
        return {src.egress_free + prop, true};
      }
      prop += src.fault_extra_latency + dst.fault_extra_latency;
    }

    const SimTime arrival = src.egress_free + prop;
    DYN_TRACE_HOT(complete(start, arrival - start, from, "net", "send", "to",
                           static_cast<double>(to), "bytes", static_cast<double>(wire_bytes)));
    if (extra_delay == 0 && min_arrival <= arrival) {
      // Fast path: no receive-drain delay and per-connection FIFO already
      // satisfied by the egress queue — the common case for control traffic
      // and uncongested data paths.
      return {arrival, false};
    }
    return {std::max(arrival + extra_delay, min_arrival), false};
  }

  /// Route, then schedule the delivery event unless a fault dropped it.
  /// Network::send and every FanoutBatch push run exactly this.
  SimTime send_impl(Node& src, Node& dst, NodeId from, NodeId to, std::size_t bytes,
                    std::uint32_t weight, DeliverFn&& on_deliver, SimTime extra_delay,
                    SimTime min_arrival) {
    const Routed r = route_impl(src, dst, from, to, bytes, weight, extra_delay, min_arrival);
    if (!r.dropped) sim_.schedule_at(r.at, std::move(on_deliver));
    return r.at;
  }

  struct Node {
    NodeConfig config;
    SimTime egress_free = 0;  // time at which the egress port next idles
    EgressCounters counters;
    bool active = true;
    // Fault state; all-defaults means the node is healthy.
    std::uint32_t partition_group = 0;
    double loss = 0;
    SimTime fault_extra_latency = 0;
  };

  /// Recomputes the single "any fault anywhere?" flag the send path checks.
  void refresh_faults_active();

  static std::uint64_t link_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  struct LinkLoss {
    std::uint64_t key;  // link_key(from, to)
    double rate;
  };
  /// Binary search in the sorted-by-key flat vector (fault path only).
  [[nodiscard]] std::vector<LinkLoss>::const_iterator find_link_loss(std::uint64_t key) const;

  sim::Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  std::vector<Node> nodes_;
  bool faults_active_ = false;
  /// Sorted by key: cache-dense binary-search lookup on the fault path and
  /// deterministic order, without std::map's per-link node allocations.
  std::vector<LinkLoss> link_loss_;
};

}  // namespace dynamoth::net
