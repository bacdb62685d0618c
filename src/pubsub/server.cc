#include "pubsub/server.h"

#include <algorithm>

#include "common/check.h"

namespace dynamoth::ps {

PubSubServer::PubSubServer(sim::Simulator& sim, net::Network& network, NodeId node,
                           Config config)
    : sim_(sim), network_(network), node_(node), config_(config) {}

PubSubServer::Connection* PubSubServer::allocate_connection() {
  if (free_conns_.empty()) {
    conn_blocks_.push_back(std::make_unique<Connection[]>(kConnBlockSize));
    Connection* block = conn_blocks_.back().get();
    free_conns_.reserve(free_conns_.size() + kConnBlockSize);
    // Pushed in reverse so slots are handed out in ascending address order.
    for (std::size_t i = kConnBlockSize; i > 0; --i) free_conns_.push_back(&block[i - 1]);
  }
  Connection* conn = free_conns_.back();
  free_conns_.pop_back();
  return conn;
}

void PubSubServer::release_connection(Connection& conn) {
  conn_index_[conn.id] = nullptr;
  conn.id = kInvalidConn;
  conn.client_node = kInvalidNode;
  conn.deliver.reset();
  conn.closed = nullptr;
  conn.channels.clear();  // keeps capacity for the slot's next occupant
  conn.patterns.clear();
  conn.pattern_pos = kNoPatternPos;
  conn.drain_free = 0;
  conn.last_arrival = 0;
  conn.drain_rate = 0;
  if (conn.weight > 1) --weighted_conns_;
  conn.weight = 1;
  conn.local = false;
  free_conns_.push_back(&conn);
  --live_conns_;
}

ConnId PubSubServer::open_connection(NodeId client_node, DeliverFn deliver, ClosedFn closed) {
  DYN_CHECK(running_);
  Connection* conn = allocate_connection();
  conn->id = next_conn_++;
  conn->client_node = client_node;
  if (deliver) conn->deliver = make_rc<DeliverFn>(std::move(deliver));
  conn->closed = std::move(closed);
  conn->local = client_node == node_;
  // The client's node kind never changes, so resolve the drain rate once
  // here instead of per delivery.
  conn->drain_rate = network_.kind(client_node) == net::NodeKind::kInfrastructure
                         ? config_.infra_drain_bytes_per_sec
                         : config_.conn_drain_bytes_per_sec;
  if (conn_index_.size() <= conn->id) conn_index_.resize(conn->id + 1, nullptr);
  conn_index_[conn->id] = conn;
  ++live_conns_;
  return conn->id;
}

void PubSubServer::close_connection(ConnId conn) { close_internal(conn, CloseReason::kByClient); }

SimTime PubSubServer::consume_cpu(double cost_us) {
  const SimTime start = std::max(sim_.now(), cpu_free_);
  cpu_free_ = start + static_cast<SimTime>(cost_us);
  cpu_scheduled_total_ += static_cast<SimTime>(cost_us);
  return cpu_free_;
}

SimTime PubSubServer::cpu_backlog() const {
  return std::max<SimTime>(0, cpu_free_ - sim_.now());
}

SimTime PubSubServer::cpu_time_executed() const {
  return cpu_scheduled_total_ - cpu_backlog();
}

void PubSubServer::handle_subscribe(ConnId conn, const Channel& channel) {
  Connection* c = find(conn);
  if (!c || !running_) return;
  consume_cpu(config_.cpu_command_cost_us);
  const ChannelId cid = intern_channel(channel);
  const auto pos = std::lower_bound(c->channels.begin(), c->channels.end(), cid);
  if (pos != c->channels.end() && *pos == cid) return;  // already subscribed
  c->channels.insert(pos, cid);

  if (channel_hot_.size() <= cid) channel_hot_.resize(cid + 1);
  ChannelHot& hot = channel_hot_[cid];
  if (hot.set == kNoSet) {
    hot.set = static_cast<std::uint32_t>(sets_.size());
    sets_.emplace_back();
  }
  // The per-connection channel list is the authority on duplicates, so this
  // insert must always be a real insertion.
  DYN_CHECK(sets_[hot.set].insert(conn));
  ++hot.count;
  for (LocalObserver* obs : observers_) obs->on_subscribe(conn, channel, c->client_node);
}

void PubSubServer::drop_subscriber(ChannelId channel, ConnId conn) {
  if (channel >= channel_hot_.size()) return;
  ChannelHot& hot = channel_hot_[channel];
  if (hot.set == kNoSet) return;
  // An emptied set stays tombstoned in its slab slot, capacity intact: a
  // channel oscillating between 0 and 1 subscribers re-uses its memory
  // instead of re-creating a map node per cycle (the pre-slab behaviour).
  if (sets_[hot.set].erase(conn)) --hot.count;
}

void PubSubServer::handle_unsubscribe(ConnId conn, const Channel& channel) {
  Connection* c = find(conn);
  if (!c || !running_) return;
  consume_cpu(config_.cpu_command_cost_us);
  const ChannelId cid = ChannelTable::instance().find(channel);
  if (cid == kInvalidChannelId) return;
  const auto pos = std::lower_bound(c->channels.begin(), c->channels.end(), cid);
  if (pos == c->channels.end() || *pos != cid) return;
  c->channels.erase(pos);
  drop_subscriber(cid, conn);
  for (LocalObserver* obs : observers_) obs->on_unsubscribe(conn, channel, c->client_node);
}

void PubSubServer::handle_psubscribe(ConnId conn, const std::string& pattern) {
  Connection* c = find(conn);
  if (!c || !running_) return;
  consume_cpu(config_.cpu_command_cost_us);
  for (const CompiledPattern& p : c->patterns) {
    if (p.text() == pattern) return;
  }
  c->patterns.push_back(CompiledPattern::compile(pattern));
  if (c->patterns.size() == 1) {
    c->pattern_pos = static_cast<std::uint32_t>(pattern_conns_.size());
    pattern_conns_.push_back(conn);
  }
  pattern_index_dirty_ = true;
  for (LocalObserver* obs : observers_) obs->on_psubscribe(conn, pattern, c->client_node);
}

void PubSubServer::remove_pattern_conn(Connection& conn) {
  DYN_CHECK(conn.pattern_pos < pattern_conns_.size());
  const ConnId moved = pattern_conns_.back();
  pattern_conns_[conn.pattern_pos] = moved;
  pattern_conns_.pop_back();
  // Fix the moved entry's back-pointer — but only when an entry actually
  // moved: when conn itself was the last element, `moved == conn.id` and the
  // unconditional write would resurrect the position we are about to clear if
  // the two statements were ever reordered. Keep the self-move case explicit.
  if (moved != conn.id) conn_index_[moved]->pattern_pos = conn.pattern_pos;
  conn.pattern_pos = kNoPatternPos;
  pattern_index_dirty_ = true;
}

void PubSubServer::handle_punsubscribe(ConnId conn, const std::string& pattern) {
  Connection* c = find(conn);
  if (!c || !running_) return;
  consume_cpu(config_.cpu_command_cost_us);
  const std::size_t erased = std::erase_if(
      c->patterns, [&](const CompiledPattern& p) { return p.text() == pattern; });
  if (erased == 0) return;
  if (c->patterns.empty() && c->pattern_pos != kNoPatternPos) remove_pattern_conn(*c);
  pattern_index_dirty_ = true;
  for (LocalObserver* obs : observers_) obs->on_punsubscribe(conn, pattern, c->client_node);
}

void PubSubServer::rebuild_pattern_index() {
  for (std::vector<PatternRef>& bucket : pattern_buckets_) bucket.clear();
  pattern_catch_all_.clear();
  for (ConnId pc : pattern_conns_) {
    const Connection* c = conn_index_[pc];
    for (std::uint32_t i = 0; i < c->patterns.size(); ++i) {
      const CompiledPattern& p = c->patterns[i];
      const PatternRef ref{pc, i, static_cast<std::uint32_t>(p.min_len())};
      if (p.leading_star() || p.min_len() == 0) {
        pattern_catch_all_.push_back(ref);
      } else {
        pattern_buckets_[static_cast<unsigned char>(p.first_byte())].push_back(ref);
      }
    }
  }
  pattern_index_dirty_ = false;
}

void PubSubServer::handle_update_weight(ConnId conn, std::uint32_t weight) {
  DYN_CHECK(weight >= 1);
  Connection* c = find(conn);
  if (!c || !running_) return;
  consume_cpu(config_.cpu_command_cost_us);
  if (c->weight == weight) return;
  const std::uint32_t old = c->weight;
  if (old == 1) ++weighted_conns_;
  if (weight == 1) --weighted_conns_;
  c->weight = weight;
  if (observers_.empty()) return;
  // Resolve the connection's current subscriptions so observers tracking
  // weighted subscriber counts can apply the delta (same shape as
  // on_disconnect: sorted channel names).
  std::vector<Channel> channels;
  channels.reserve(c->channels.size());
  const ChannelTable& table = ChannelTable::instance();
  for (ChannelId cid : c->channels) channels.push_back(table.name(cid));
  std::sort(channels.begin(), channels.end());
  for (LocalObserver* obs : observers_) {
    obs->on_weight_update(conn, channels, c->client_node, old, weight);
  }
}

void PubSubServer::handle_publish(ConnId conn, EnvelopePtr env) {
  Connection* from = find(conn);
  if (!from || !running_) return;
  DYN_CHECK(env != nullptr);
  // Captured at entry: a publisher can be overflow-closed mid-fan-out (it
  // may itself subscribe to the channel), after which `from` dangles.
  const std::uint32_t pub_weight = from->weight;

  // Collect the recipient set: channel subscribers plus pattern matches, at
  // most once per connection (mirrors a client holding one subscription).
  // Copied into a reusable scratch buffer — a delivery can overflow and
  // close a connection, which mutates the subscriber set being fanned out.
  // For the common no-pattern case this is one 8-byte ChannelHot load plus a
  // straight append from the channel's flat set.
  const ChannelId cid = env->channel_id();
  std::vector<ConnId>& recipients = fanout_scratch_;
  recipients.clear();
  if (cid < channel_hot_.size()) {
    const ChannelHot hot = channel_hot_[cid];
    if (hot.count != 0) sets_[hot.set].append_to(recipients);
  }
  if (!pattern_conns_.empty()) {
    if (pattern_index_dirty_) rebuild_pattern_index();
    const std::size_t plain = recipients.size();
    // Probe exactly two lists: the channel's first-byte bucket and the
    // catch-all. The min_len prefilter runs on the index entry itself, so a
    // pattern that cannot match costs one compare — no Connection deref, no
    // pattern-string memory touched.
    const auto scan = [&](const std::vector<PatternRef>& refs) {
      for (const PatternRef& ref : refs) {
        if (env->channel.size() < ref.min_len) continue;
        Connection* c = conn_index_[ref.conn];
        if (!c || channel_member(*c, cid)) continue;
        if (c->patterns[ref.idx].match(env->channel)) recipients.push_back(ref.conn);
      }
    };
    scan(pattern_catch_all_);
    if (!env->channel.empty()) {
      scan(pattern_buckets_[static_cast<unsigned char>(env->channel.front())]);
    }
    // Deterministic fan-out order, at most one delivery per connection: a
    // connection can appear once per matching pattern (multiple patterns may
    // land in the same probe set), so sort + unique. Plain subscriber sets
    // iterate in ascending ConnId order already and are disjoint from the
    // pattern appends (channel_member guard), so the no-append case skips
    // both passes.
    if (recipients.size() > plain) {
      std::sort(recipients.begin(), recipients.end());
      recipients.erase(std::unique(recipients.begin(), recipients.end()), recipients.end());
    }
  }

  // Single-threaded processing: the whole fan-out occupies the CPU. The
  // delivery cost scales with the number of *modeled* subscribers — a cohort
  // connection of weight N stands in for N client writes, so cohort-mode
  // servers CPU-saturate exactly where N individual subscribers would
  // (Fig 4a). Without weighted connections the weighted count IS
  // recipients.size(); the pre-pass runs only when a cohort exists.
  double modeled_fanout = static_cast<double>(recipients.size());
  if (weighted_conns_ != 0) {
    std::uint64_t sum = 0;
    for (ConnId rc : recipients) sum += conn_index_[rc]->weight;
    modeled_fanout = static_cast<double>(sum);
  }
  const double cost =
      config_.cpu_publish_cost_us + config_.cpu_delivery_cost_us * modeled_fanout;
  const SimTime done = consume_cpu(cost);

  // The wire size is a per-publication fact; compute it once, not per
  // recipient.
  const std::size_t bytes = wire_size(*env, kMsgOverheadBytes);

  // One batch per publication: the egress node is pinned once, and each
  // consecutive run of recipients on the same destination node reuses the
  // resolved destination. Deliveries stay per-subscriber (each gets its own
  // latency sample and delivery event), so arrival times, counters and RNG
  // draws are identical to per-recipient Network::send calls.
  net::Network::FanoutBatch batch(network_, node_);
  std::size_t delivered = 0;  // weighted: modeled subscribers actually served
  for (ConnId rc : recipients) {
    Connection* c = find(rc);
    if (!c) continue;  // closed by an earlier overflow in this same fan-out
    const std::uint32_t w = c->weight;
    deliver_to(*c, env, done, bytes, batch);
    delivered += w;
  }

  // Observers are notified at command-acceptance time, not at CPU
  // completion: colocated components (LLA, dispatcher) tap the stream as it
  // arrives, so monitoring and forwarding keep flowing even when the CPU
  // queue is deep — on a saturated server the control plane must not starve
  // behind the data plane.
  for (LocalObserver* obs : observers_) obs->on_publish(env, delivered, pub_weight);
}

void PubSubServer::deliver_to(Connection& conn, const EnvelopePtr& env, SimTime ready,
                              std::size_t bytes, net::Network::FanoutBatch& batch) {
  // Each delivery captures the refcounted deliver-function pointer plus the
  // envelope pointer: 16 bytes, inline in the network's callback type, so
  // fanning a publication out to N subscribers allocates nothing.
  if (conn.local) {
    // Colocated component: loopback, no NIC, no drain modelling.
    conn.last_arrival = batch.send(
        conn.client_node, bytes,
        [d = conn.deliver, env] {
          if (d && *d) (*d)(env);
        },
        std::max<SimTime>(0, ready - sim_.now()), conn.last_arrival);
    return;
  }

  // Bounded egress: if the NIC queue already exceeds its bound, the write
  // would block — Redis drops the slow client rather than buffer without
  // limit, and the short shared queue keeps control traffic (wrong-server
  // replies, switches) flowing during overload.
  if (batch.backlog() > config_.max_egress_backlog) {
    close_internal(conn.id, CloseReason::kOutputBufferOverflow);
    return;
  }

  // Per-connection receive drain: the subscriber's downlink empties this
  // connection's buffer at a fixed rate (LAN rate for infrastructure
  // consumers; resolved once at open_connection). Messages queued faster
  // than they drain accumulate in the (server-side) output buffer.
  const SimTime drain_start = std::max(ready, conn.drain_free);
  const auto drain_time =
      static_cast<SimTime>(static_cast<double>(bytes) / conn.drain_rate * kSecond);
  conn.drain_free = drain_start + drain_time;

  // Buffered bytes ~ backlog duration x drain rate. Redis disconnects clients
  // whose output buffer exceeds the configured limit.
  const double backlog_bytes = to_seconds(conn.drain_free - ready) * conn.drain_rate;
  if (backlog_bytes > static_cast<double>(config_.conn_output_buffer_limit)) {
    close_internal(conn.id, CloseReason::kOutputBufferOverflow);
    return;
  }

  // Weighted egress: a cohort connection's N members each receive their own
  // copy, so the wire run occupies the server's NIC for N x bytes and bumps
  // the counters by N (weight 1 is the ordinary path, bit-identical). The
  // drain model above stays per-member: N identical members drain identical
  // copies down N identical downlinks in parallel, so one member's
  // trajectory is every member's trajectory.
  const SimTime extra = conn.drain_free - sim_.now();
  conn.last_arrival = batch.send_weighted(
      conn.client_node, bytes, conn.weight,
      [d = conn.deliver, env] {
        if (d && *d) (*d)(env);
      },
      extra, conn.last_arrival);
}

void PubSubServer::close_internal(ConnId conn, CloseReason reason) {
  Connection* cp = find(conn);
  if (cp == nullptr) return;
  Connection& c = *cp;

  std::vector<Channel> channels;
  channels.reserve(c.channels.size());
  const ChannelTable& table = ChannelTable::instance();
  for (ChannelId cid : c.channels) {
    drop_subscriber(cid, conn);
    channels.push_back(table.name(cid));
  }
  std::sort(channels.begin(), channels.end());
  std::vector<std::string> patterns;
  patterns.reserve(c.patterns.size());
  for (CompiledPattern& p : c.patterns) patterns.push_back(p.text());
  if (c.pattern_pos != kNoPatternPos) remove_pattern_conn(c);

  if (reason != CloseReason::kByClient && reason != CloseReason::kServerCrash && c.closed) {
    // Notify the remote end (after transport) that it was dropped. A crashed
    // process sends nothing — its remote ends discover the death themselves.
    ClosedFn closed = c.closed;
    network_.send(node_, c.client_node, kMsgOverheadBytes,
                  [closed, reason] { closed(reason); });
  }
  release_connection(c);

  for (LocalObserver* obs : observers_) obs->on_disconnect(conn, channels, patterns, reason);
}

void PubSubServer::add_observer(LocalObserver* observer) {
  DYN_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void PubSubServer::remove_observer(LocalObserver* observer) { std::erase(observers_, observer); }

std::size_t PubSubServer::subscriber_count(const Channel& channel) const {
  const ChannelId cid = ChannelTable::instance().find(channel);
  if (cid == kInvalidChannelId || cid >= channel_hot_.size()) return 0;
  return channel_hot_[cid].count;
}

std::uint64_t PubSubServer::subscriber_weight(const Channel& channel) const {
  const ChannelId cid = ChannelTable::instance().find(channel);
  if (cid == kInvalidChannelId || cid >= channel_hot_.size()) return 0;
  const ChannelHot hot = channel_hot_[cid];
  if (hot.set == kNoSet || hot.count == 0) return 0;
  if (weighted_conns_ == 0) return hot.count;
  std::vector<ConnId> members;
  sets_[hot.set].append_to(members);
  std::uint64_t sum = 0;
  for (ConnId m : members) sum += conn_index_[m]->weight;
  return sum;
}

std::size_t PubSubServer::pattern_listener_count(const Channel& channel) const {
  std::size_t n = 0;
  for (ConnId pc : pattern_conns_) {
    const Connection* c = conn_index_[pc];
    if (!c) continue;
    for (const CompiledPattern& p : c->patterns) {
      if (p.match(channel)) {
        ++n;
        break;
      }
    }
  }
  return n;
}

bool PubSubServer::subscriber_set_dense(const Channel& channel) const {
  const ChannelId cid = ChannelTable::instance().find(channel);
  if (cid == kInvalidChannelId || cid >= channel_hot_.size()) return false;
  const ChannelHot hot = channel_hot_[cid];
  return hot.set != kNoSet && sets_[hot.set].dense();
}

void PubSubServer::shutdown() {
  if (!running_) return;
  running_ = false;
  std::vector<ConnId> ids;
  ids.reserve(live_conns_);
  for (ConnId id = 0; id < conn_index_.size(); ++id) {
    if (conn_index_[id] != nullptr) ids.push_back(id);
  }
  for (ConnId id : ids) close_internal(id, CloseReason::kServerShutdown);
}

void PubSubServer::crash() {
  if (!running_) return;
  running_ = false;
  std::vector<ConnId> ids;
  ids.reserve(live_conns_);
  for (ConnId id = 0; id < conn_index_.size(); ++id) {
    if (conn_index_[id] != nullptr) ids.push_back(id);
  }
  for (ConnId id : ids) close_internal(id, CloseReason::kServerCrash);
}

bool PubSubServer::glob_match(const std::string& pattern, const std::string& text) {
  // Iterative '*' glob with backtracking.
  std::size_t p = 0, t = 0, star = std::string::npos, match = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p, ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace dynamoth::ps
