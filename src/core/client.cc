#include "core/client.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::core {

namespace {
/// Payload of a publish() that names no size.
constexpr std::size_t kDefaultPayloadBytes = 128;

std::uint32_t name_hash(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

/// Orders the sorted connection vector by server id.
constexpr auto kByServer = [](const auto& conn, ServerId server) { return conn.server < server; };
}  // namespace

// ---- ServerSet ----

void DynamothClient::ServerSet::insert(ServerId s) {
  if (contains(s)) return;
  DYN_CHECK(size_ < kMaxReplicas);
  ServerId* pos = std::upper_bound(ids_, ids_ + size_, s);
  std::copy_backward(pos, ids_ + size_, ids_ + size_ + 1);
  *pos = s;
  ++size_;
}

void DynamothClient::ServerSet::erase(ServerId s) {
  ServerId* end = ids_ + size_;
  ServerId* pos = std::find(ids_, end, s);
  if (pos == end) return;
  std::copy(pos + 1, end, pos);
  --size_;
}

// ---- SlotIndex ----

void DynamothClient::SlotIndex::insert(std::uint32_t key, Slot slot) {
  if ((used_ + 1) * 4 > cells_.size() * 3) rehash(cells_.empty() ? 8 : cells_.size() * 2);
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = home(key);
  while (cells_[i].slot != kNoSlot) i = (i + 1) & mask;
  cells_[i] = Cell{key, slot};
  ++used_;
}

void DynamothClient::SlotIndex::erase(std::uint32_t key, Slot slot) {
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = home(key);
  while (!(cells_[i].key == key && cells_[i].slot == slot)) {
    DYN_CHECK(cells_[i].slot != kNoSlot);
    i = (i + 1) & mask;
  }
  // Backward shift: pull later cells of the probe run into the hole unless
  // their home lies cyclically in (hole, cell].
  for (std::size_t j = (i + 1) & mask; cells_[j].slot != kNoSlot; j = (j + 1) & mask) {
    const std::size_t h = home(cells_[j].key);
    const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
    if (stays) continue;
    cells_[i] = cells_[j];
    i = j;
  }
  cells_[i].slot = kNoSlot;
  --used_;
}

void DynamothClient::SlotIndex::rehash(std::size_t capacity) {
  std::vector<Cell> old;
  old.swap(cells_);
  cells_.assign(capacity, Cell{});
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(capacity));
  used_ = 0;
  for (const Cell& c : old) {
    if (c.slot != kNoSlot) insert(c.key, c.slot);
  }
}

DynamothClient::Stats& DynamothClient::Stats::operator+=(const Stats& other) {
  static_assert(sizeof(Stats) == 17 * sizeof(std::uint64_t),
                "add the new counter to the sum below");
  published += other.published;
  messages_sent += other.messages_sent;
  received += other.received;
  duplicates_suppressed += other.duplicates_suppressed;
  dedup_gaps_closed += other.dedup_gaps_closed;
  stale_drops += other.stale_drops;
  wrong_server_replies += other.wrong_server_replies;
  switches_followed += other.switches_followed;
  connection_drops += other.connection_drops;
  entries_expired += other.entries_expired;
  fallback_resubscribes += other.fallback_resubscribes;
  refused_publishes += other.refused_publishes;
  pending_flushed += other.pending_flushed;
  publishes_dropped += other.publishes_dropped;
  republishes += other.republishes;
  pattern_deliveries += other.pattern_deliveries;
  patterns_expanded += other.patterns_expanded;
  return *this;
}

DynamothClient::DynamothClient(sim::Simulator& sim, net::Network& network,
                               ServerRegistry& registry,
                               std::shared_ptr<const ConsistentHashRing> base_ring,
                               NodeId node, ClientId id, Config config, Rng rng)
    : sim_(sim),
      network_(network),
      registry_(registry),
      base_ring_(std::move(base_ring)),
      node_(node),
      id_(id),
      config_(config),
      rng_(rng),
      ctl_channel_(client_control_channel(id)),
      sweeper_(sim, config.sweep_interval, [this] { sweep(); }),
      alive_(std::make_shared<bool>(true)) {
  DYN_CHECK(base_ring_ != nullptr && !base_ring_->empty());
  sweeper_.start();
}

DynamothClient::~DynamothClient() {
  *alive_ = false;
  shutdown();
}

void DynamothClient::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  sweeper_.stop();
  if (listening_) {
    ChannelTable::instance().remove_listener(this);
    listening_ = false;
  }
  for (Conn& c : conns_) c.conn->close();
  conns_.clear();
  blocks_.clear();
  slot_count_ = 0;
  free_slots_.clear();
  by_name_.clear();
  by_id_.clear();
  patterns_.clear();
  pending_expansions_.clear();
  pending_.clear();
}

DynamothClient::ChannelState& DynamothClient::slot(Slot s) const {
  // Block b holds slots [kFirstBlock * (2^b - 1), kFirstBlock * (2^(b+1) - 1)).
  const Slot v = s + kFirstBlock;
  const int b = std::bit_width(v) - std::bit_width(kFirstBlock);
  return blocks_[static_cast<std::size_t>(b)][v - (kFirstBlock << b)];
}

DynamothClient::Slot DynamothClient::find_slot(std::string_view name) const {
  return by_name_.find(name_hash(name), [&](Slot s) { return slot(s).name == name; });
}

DynamothClient::Slot DynamothClient::find_slot_for_delivery(const ps::Envelope& env) {
  // The server that handled the envelope interned its name, so the id is
  // cached on the envelope and this costs no string hash.
  const ChannelId id = env.channel_id();
  Slot s = by_id_.find(id, [](Slot) { return true; });
  if (s != kNoSlot) return s;
  s = find_slot(env.channel);
  if (s != kNoSlot) {
    ChannelState& st = slot(s);
    DYN_CHECK(st.id == kInvalidChannelId);
    st.id = id;
    by_id_.insert(id, s);
  }
  return s;
}

void DynamothClient::erase_slot(Slot s) {
  ChannelState& st = slot(s);
  by_name_.erase(st.name_hash, s);
  if (st.id != kInvalidChannelId) by_id_.erase(st.id, s);
  st = ChannelState{};  // not live, no name, no id: matches nothing
  free_slots_.push_back(s);
}

void DynamothClient::sort_by_name(std::vector<Slot>& slots) const {
  std::sort(slots.begin(), slots.end(),
            [this](Slot a, Slot b) { return slot(a).name < slot(b).name; });
}

DynamothClient::ChannelState& DynamothClient::state_for(const Channel& channel) {
  Slot s = find_slot(channel);
  if (s != kNoSlot) return slot(s);

  // First contact with this channel: consistent-hashing fallback (plan 0).
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = slot_count_++;
    const auto block_size = kFirstBlock << blocks_.size();
    if (s + kFirstBlock == block_size) blocks_.emplace_back(new ChannelState[block_size]);
  }
  ChannelState& st = slot(s);
  st.name = channel;
  st.name_hash = name_hash(channel);
  st.live = true;
  st.entry.servers = {base_ring_->lookup(channel)};
  st.last_activity = sim_.now();
  by_name_.insert(st.name_hash, s);
  return st;
}

ps::RemoteConnection* DynamothClient::connection(ServerId server) {
  auto it = std::lower_bound(conns_.begin(), conns_.end(), server, kByServer);
  if (it != conns_.end() && it->server == server) {
    if (it->conn->server().running()) return it->conn.get();
    // The peer process is gone: the OS would fail further sends on this
    // socket, so the library tears it down here. A *restarted* server is a
    // new process — the old connection must not transfer to it.
    ++stats_.connection_drops;
    conns_.erase(it);
  }
  ps::PubSubServer* srv = registry_.find(server);
  if (srv == nullptr || !srv->running()) return nullptr;

  auto conn = std::make_unique<ps::RemoteConnection>(
      sim_, network_, node_, *srv,
      [this, server](const ps::EnvelopePtr& env) { on_deliver(server, env); },
      [this, server](ps::CloseReason reason) { on_closed(server, reason); });
  ps::RemoteConnection* raw = conn.get();
  conns_.insert(std::lower_bound(conns_.begin(), conns_.end(), server, kByServer),
                Conn{server, std::move(conn)});
  // Cohort weight is declared before anything else rides the stream, so the
  // server (and its LLA) never sees a subscription at the wrong multiplicity.
  if (config_.multiplicity > 1) raw->update_weight(config_.multiplicity);
  // Announce our identity so the local dispatcher can address replies to us.
  raw->subscribe(ctl_channel_);
  return raw;
}

void DynamothClient::erase_connection(ServerId server) {
  auto it = std::lower_bound(conns_.begin(), conns_.end(), server, kByServer);
  if (it != conns_.end() && it->server == server) conns_.erase(it);
}

bool DynamothClient::connected_to(ServerId server) const {
  auto it = std::lower_bound(conns_.begin(), conns_.end(), server, kByServer);
  return it != conns_.end() && it->server == server;
}

void DynamothClient::set_multiplicity(std::uint32_t multiplicity) {
  DYN_CHECK(multiplicity >= 1);
  if (config_.multiplicity == multiplicity) return;
  config_.multiplicity = multiplicity;
  for (Conn& c : conns_) {
    if (c.conn->open()) c.conn->update_weight(multiplicity);
  }
}

void DynamothClient::subscribe(const Channel& channel, MessageHandler handler) {
  DYN_CHECK(!is_control_channel(channel));
  DYN_CHECK(!shut_down_);
  ChannelState& st = state_for(channel);
  st.handler = std::move(handler);
  st.subscribed = true;
  st.last_activity = sim_.now();
  place_subscription(channel, st);
}

void DynamothClient::unsubscribe(const Channel& channel) {
  ChannelState* found = find_state(channel);
  if (found == nullptr || !found->subscribed) return;
  ChannelState& st = *found;
  st.subscribed = false;
  st.handler = nullptr;
  st.last_activity = sim_.now();
  // Patterns expanded onto this channel still need the stream: the server-
  // side subscription stays until the last interest goes away.
  if (!st.patterns.empty()) return;
  teardown_placement(channel, st);
}

void DynamothClient::teardown_placement(const Channel& channel, ChannelState& st) {
  for (ServerId s : st.sub_servers) {
    if (ps::RemoteConnection* conn = connection(s)) conn->unsubscribe(channel);
  }
  st.sub_servers.clear();
}

void DynamothClient::psubscribe(const std::string& pattern, MessageHandler handler) {
  DYN_CHECK(!shut_down_);
  auto [it, inserted] = patterns_.try_emplace(pattern);
  PatternState& ps = it->second;
  ps.handler = std::move(handler);
  if (!inserted) return;  // handler replaced; expansion state already live
  ps.compiled = ps::CompiledPattern::compile(pattern);

  if (!listening_) {
    ChannelTable::instance().add_listener(this);
    listening_ = true;
  }

  // Expand against every name the process has ever interned (the directory
  // semantics: any channel anyone has mentioned). The table can grow during
  // the scan (placement interns control-channel names); new ids are covered
  // because the loop re-reads size() and attach_pattern is idempotent.
  const ChannelTable& table = ChannelTable::instance();
  for (ChannelId id = 0; id < table.size(); ++id) {
    if (table.is_control(id)) continue;
    const std::string& name = table.name(id);
    if (ps.compiled.match(name)) attach_pattern(name, ps);
  }
}

void DynamothClient::punsubscribe(const std::string& pattern) {
  auto it = patterns_.find(pattern);
  if (it == patterns_.end()) return;
  PatternState& ps = it->second;
  for (const Channel& channel : ps.channels) {
    ChannelState* found = find_state(channel);
    if (found == nullptr) continue;
    ChannelState& st = *found;
    std::erase(st.patterns, &ps);
    st.last_activity = sim_.now();
    if (!wants_subscription(st)) teardown_placement(channel, st);
  }
  patterns_.erase(it);
  if (patterns_.empty() && listening_) {
    ChannelTable::instance().remove_listener(this);
    listening_ = false;
  }
}

void DynamothClient::attach_pattern(const Channel& channel, PatternState& pattern) {
  ChannelState& st = state_for(channel);
  if (std::find(st.patterns.begin(), st.patterns.end(), &pattern) != st.patterns.end()) return;
  st.patterns.push_back(&pattern);
  pattern.channels.insert(channel);
  st.last_activity = sim_.now();
  ++stats_.patterns_expanded;
  place_subscription(channel, st);
}

void DynamothClient::on_new_channel(ChannelId id, const std::string& name) {
  if (shut_down_ || ChannelTable::instance().is_control(id)) return;
  // Cheap prefilter: only names some registered pattern matches are queued.
  bool matches = false;
  for (const auto& [_, ps] : patterns_) {
    if (ps.compiled.match(name)) {
      matches = true;
      break;
    }
  }
  if (!matches) return;
  pending_expansions_.push_back(name);
  if (expansion_scheduled_) return;
  expansion_scheduled_ = true;
  // Deferred: interning happens inside arbitrary components' call stacks
  // (often our own placement path); expanding re-entrantly from the listener
  // callback would mutate subscription state mid-operation.
  std::weak_ptr<bool> alive = alive_;
  sim_.schedule_after(0, [this, alive] {
    auto a = alive.lock();
    if (!a || !*a) return;
    expansion_scheduled_ = false;
    drain_expansions();
  });
}

void DynamothClient::drain_expansions() {
  // Swap out first: attach_pattern can intern new names, which re-enqueue.
  std::vector<std::string> names;
  names.swap(pending_expansions_);
  for (const std::string& name : names) {
    for (auto& [_, ps] : patterns_) {
      if (ps.compiled.match(name)) attach_pattern(name, ps);
    }
  }
}

void DynamothClient::place_subscription(const Channel& channel, ChannelState& st) {
  // Desired placement per replication mode (paper II-B).
  ServerSet want;
  switch (st.entry.mode) {
    case ReplicationMode::kNone:
      want.insert(st.entry.primary());
      break;
    case ReplicationMode::kAllSubscribers:
      for (ServerId s : st.entry.servers) want.insert(s);
      break;
    case ReplicationMode::kAllPublishers: {
      // Sticky random pick among the replicas; re-picked when invalidated.
      if (st.all_pubs_pick == kInvalidServer || !st.entry.owns(st.all_pubs_pick)) {
        const auto idx = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(st.entry.servers.size()) - 1));
        st.all_pubs_pick = st.entry.servers[idx];
      }
      want.insert(st.all_pubs_pick);
      break;
    }
  }

  // If every wanted server is gone (despawned without a plan update), fall
  // back to consistent hashing like a fresh client would (paper IV-A5's
  // expiry path, taken eagerly).
  bool any_reachable = false;
  for (ServerId s : want) {
    if (ps::PubSubServer* srv = registry_.find(s); srv && srv->running()) any_reachable = true;
  }
  if (!any_reachable && st.entry.version != 0) {
    st.entry.servers = {base_ring_->lookup(channel)};
    st.entry.mode = ReplicationMode::kNone;
    st.entry.version = 0;
    st.all_pubs_pick = kInvalidServer;
    want.clear();
    want.insert(st.entry.primary());
  }

  // Subscribe where missing. Only placements that actually reached a live
  // server are recorded: recording wishes as facts made a subscriber whose
  // target died mid-placement believe it was covered forever, and the sweep
  // reconciliation below could never catch it.
  ServerSet placed;
  for (ServerId s : want) {
    if (st.sub_servers.contains(s)) {
      placed.insert(s);
      continue;
    }
    if (ps::RemoteConnection* conn = connection(s)) {
      conn->subscribe(channel);
      placed.insert(s);
    }
  }
  // Unsubscribe from removed servers after a grace period: "subscribe to the
  // channel on the new server and unsubscribe from the old one" (paper
  // IV-A4); the grace keeps us reachable while forwarded messages are in
  // flight.
  std::weak_ptr<bool> alive = alive_;
  for (ServerId s : st.sub_servers) {
    if (want.contains(s)) continue;
    sim_.schedule_after(kUnsubscribeGrace, [this, alive, channel, s] {
      auto a = alive.lock();
      if (!a || !*a) return;
      // Only drop the old subscription if it has not become wanted again.
      if (const ChannelState* cur = find_state(channel); cur && cur->sub_servers.contains(s)) {
        return;
      }
      if (ps::RemoteConnection* conn = connection(s)) conn->unsubscribe(channel);
    });
  }
  st.sub_servers = std::move(placed);
}

void DynamothClient::ensure_live_entry(const Channel& channel, ChannelState& st) {
  // Entry pointing only at dead servers: fall back to consistent hashing
  // (ring members are never released, so this always reaches a live server).
  for (ServerId s : st.entry.servers) {
    if (ps::PubSubServer* srv = registry_.find(s); srv && srv->running()) return;
  }
  const std::vector<ServerId> old_servers = st.entry.servers;
  st.entry.servers = {base_ring_->lookup(channel)};
  st.entry.mode = ReplicationMode::kNone;
  st.entry.version = 0;
  st.all_pubs_pick = kInvalidServer;
  if (wants_subscription(st)) place_subscription(channel, st);
  if (st.entry.servers != old_servers) republish_recent(st);
}

bool DynamothClient::route(ChannelState& st, const ps::EnvelopePtr& env) {
  bool sent = false;
  switch (st.entry.mode) {
    case ReplicationMode::kNone:
      if (ps::RemoteConnection* conn = connection(st.entry.primary())) {
        conn->publish(env);
        ++stats_.messages_sent;
        sent = true;
      }
      break;
    case ReplicationMode::kAllSubscribers: {
      // Publishers pick a random replica per publication (paper II-B1).
      const auto idx = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(st.entry.servers.size()) - 1));
      if (ps::RemoteConnection* conn = connection(st.entry.servers[idx])) {
        conn->publish(env);
        ++stats_.messages_sent;
        sent = true;
      }
      break;
    }
    case ReplicationMode::kAllPublishers:
      // Publishers send to every replica (paper II-B2).
      for (ServerId s : st.entry.servers) {
        if (ps::RemoteConnection* conn = connection(s)) {
          conn->publish(env);
          ++stats_.messages_sent;
          sent = true;
        }
      }
      break;
  }
  if (sent) remember_publish(st, env);
  return sent;
}

void DynamothClient::remember_publish(ChannelState& st, const ps::EnvelopePtr& env) {
  if (config_.republish_window <= 0 || env->kind != ps::MsgKind::kData) return;
  const SimTime cutoff = sim_.now() - config_.republish_window;
  st.recent.erase(st.recent.begin(),
                  std::find_if(st.recent.begin(), st.recent.end(),
                               [cutoff](const auto& r) { return r.first >= cutoff; }));
  st.recent.emplace_back(sim_.now(), env);
}

void DynamothClient::republish_recent(ChannelState& st) {
  if (config_.republish_window <= 0 || st.recent.empty()) return;
  const SimTime cutoff = sim_.now() - config_.republish_window;
  for (const auto& [t, env] : st.recent) {
    if (t < cutoff) continue;
    ++stats_.republishes;
    if (pending_.size() >= config_.max_pending_publishes) {
      ++stats_.publishes_dropped;
      pending_.pop_front();
    }
    pending_.push_back(ps::clone_envelope(*env));
  }
  // The clones re-enter `recent` when they are flushed through the new
  // placement; keeping the originals would retransmit them twice.
  st.recent.clear();
}

void DynamothClient::stash_pending(ps::MutEnvelopeRef env) {
  ++stats_.refused_publishes;
  if (pending_.size() >= config_.max_pending_publishes) {
    ++stats_.publishes_dropped;
    pending_.pop_front();
  }
  pending_.push_back(std::move(env));
}

void DynamothClient::flush_pending() {
  if (pending_.empty()) return;
  std::deque<ps::MutEnvelopeRef> retry;
  retry.swap(pending_);
  for (ps::MutEnvelopeRef& env : retry) {
    ChannelState& st = state_for(env->channel);
    ensure_live_entry(env->channel, st);
    // Safe to restamp: a stashed envelope was never handed to any receiver.
    env->entry_version = st.entry.version;
    if (route(st, env)) {
      ++stats_.pending_flushed;
    } else {
      pending_.push_back(std::move(env));
    }
  }
}

ps::EnvelopePtr DynamothClient::publish(const Channel& channel, std::size_t payload_bytes) {
  DYN_CHECK(!is_control_channel(channel));
  DYN_CHECK(!shut_down_);
  // Older refused publishes go first, preserving per-channel seq order when
  // the outage ends.
  flush_pending();
  ChannelState& st = state_for(channel);
  st.last_activity = sim_.now();
  ensure_live_entry(channel, st);

  auto env = ps::make_envelope();
  env->id = MessageId{id_, next_seq_++};
  env->kind = ps::MsgKind::kData;
  env->channel = channel;
  env->payload_bytes = payload_bytes ? payload_bytes : kDefaultPayloadBytes;
  env->publish_time = sim_.now();
  env->publisher = id_;
  env->channel_seq = ++st.next_channel_seq;
  env->entry_version = st.entry.version;

  ++stats_.published;
  DYN_TRACE_HOT(instant(sim_.now(), node_, "client", "publish", "server",
                        static_cast<double>(st.entry.primary()), "version",
                        static_cast<double>(st.entry.version)));
  if (!route(st, env)) stash_pending(env);
  return env;
}

ps::EnvelopePtr DynamothClient::publish_control(const Channel& channel,
                                                std::shared_ptr<const ps::ControlBody> body,
                                                std::size_t payload_bytes) {
  // Reuse the data-path routing, then stamp the control body/kind. The
  // envelope cannot be mutated after publish (receivers share it), so build
  // it the same way publish() does and send manually.
  DYN_CHECK(!is_control_channel(channel));
  DYN_CHECK(!shut_down_);
  ChannelState& st = state_for(channel);
  st.last_activity = sim_.now();

  auto env = ps::make_envelope();
  env->id = MessageId{id_, next_seq_++};
  env->kind = ps::MsgKind::kControl;
  env->channel = channel;
  env->payload_bytes = payload_bytes;
  env->publish_time = sim_.now();
  env->publisher = id_;
  env->entry_version = st.entry.version;
  env->body = std::move(body);

  ++stats_.published;
  if (!route(st, env)) stash_pending(env);
  return env;
}

void DynamothClient::apply_entry(const Channel& channel, const PlanEntry& entry) {
  if (entry.servers.empty()) return;
  ChannelState& st = state_for(channel);
  if (entry.version < st.entry.version) return;  // stale update
  if (entry == st.entry) return;
  const bool rehomed = entry.servers != st.entry.servers;
  st.entry = entry;
  st.last_activity = sim_.now();
  if (wants_subscription(st)) place_subscription(channel, st);
  // The previous owner may have died with the tail of our stream; push the
  // recent publishes through the new placement (receivers dedup by id).
  if (rehomed) republish_recent(st);
}

void DynamothClient::on_deliver(ServerId /*from*/, const ps::EnvelopePtr& env) {
  if (shut_down_) return;
  switch (env->kind) {
    case ps::MsgKind::kWrongServer: {
      // Reply on our control channel: adopt the corrected entry. The
      // dispatcher already forwarded the original message (paper IV).
      if (const auto* body = dynamic_cast<const EntryUpdateBody*>(env->body.get())) {
        ++stats_.wrong_server_replies;
        apply_entry(body->channel, body->entry);
      }
      return;
    }
    case ps::MsgKind::kSwitch: {
      // Published on the data channel by the old owner's dispatcher.
      if (const auto* body = dynamic_cast<const EntryUpdateBody*>(env->body.get())) {
        ++stats_.switches_followed;
        DYN_TRACE(instant(sim_.now(), node_, "client", "switch-followed", "version",
                          static_cast<double>(body->entry.version)));
        apply_entry(body->channel, body->entry);
      }
      return;
    }
    case ps::MsgKind::kControl:  // application-level protocol messages
    case ps::MsgKind::kData: {
      const bool fresh = dedup_.insert(env->id);
      stats_.dedup_gaps_closed = dedup_.gaps_closed();
      if (!fresh) {
        ++stats_.duplicates_suppressed;
        return;
      }
      const Slot s = find_slot_for_delivery(*env);
      if (s == kNoSlot) {
        ++stats_.stale_drops;  // e.g. unsubscribed while the message was in flight
        return;
      }
      ChannelState& st = slot(s);
      const bool explicit_sub = st.subscribed && st.handler;
      // Snapshot the matching pattern handlers before invoking anything: a
      // handler may mutate channel state (the member scratch keeps the
      // steady-state delivery path allocation-free).
      pattern_scratch_.clear();
      for (PatternState* p : st.patterns) {
        if (p->handler) pattern_scratch_.push_back(p);
      }
      if (!explicit_sub && pattern_scratch_.empty()) {
        ++stats_.stale_drops;
        return;
      }
      st.last_activity = sim_.now();
      ++stats_.received;
      // One invocation per held subscription (Redis semantics): the explicit
      // handler plus each pattern expanded onto the channel, exactly once
      // per message id (the dedup above covers replicated placements).
      if (explicit_sub) st.handler(env);
      for (PatternState* p : pattern_scratch_) {
        ++stats_.pattern_deliveries;
        p->handler(env);
      }
      return;
    }
    default:
      return;  // other control kinds are not addressed to clients
  }
}

void DynamothClient::on_closed(ServerId from, ps::CloseReason /*reason*/) {
  if (shut_down_) return;
  ++stats_.connection_drops;
  DYN_TRACE(instant(sim_.now(), node_, "client", "connection-drop", "server",
                    static_cast<double>(from)));

  // The stub is dead; drop it (deferred: we may be inside its callback).
  std::weak_ptr<bool> alive = alive_;
  sim_.schedule_after(0, [this, alive, from] {
    if (auto a = alive.lock(); a && *a) erase_connection(from);
  });

  // Re-place subscriptions that lived on that server after a reconnect
  // delay (Redis clients reconnect and resubscribe after being dropped).
  // The reconnects are scheduled in channel-name order.
  act_scratch_.clear();
  for (Slot s = 0; s < slot_count_; ++s) {
    if (slot(s).live && slot(s).sub_servers.contains(from)) act_scratch_.push_back(s);
  }
  sort_by_name(act_scratch_);
  for (Slot s : act_scratch_) {
    ChannelState& st = slot(s);
    st.sub_servers.erase(from);
    if (st.entry.mode == ReplicationMode::kAllPublishers && st.all_pubs_pick == from) {
      st.all_pubs_pick = kInvalidServer;
    }
    if (!wants_subscription(st)) continue;
    sim_.schedule_after(config_.reconnect_delay, [this, alive, ch = st.name] {
      auto a = alive.lock();
      if (!a || !*a) return;
      ChannelState* found = find_state(ch);
      if (found == nullptr || !wants_subscription(*found)) return;
      ChannelState& st2 = *found;
      // If the server vanished entirely, fall back to consistent hashing.
      bool any_alive = false;
      for (ServerId s : st2.entry.servers) {
        if (ps::PubSubServer* srv = registry_.find(s); srv && srv->running()) any_alive = true;
      }
      if (!any_alive) {
        st2.entry.servers = {base_ring_->lookup(ch)};
        st2.entry.mode = ReplicationMode::kNone;
        st2.entry.version = 0;
        st2.all_pubs_pick = kInvalidServer;
      }
      place_subscription(ch, st2);
    });
  }
}

void DynamothClient::sweep() {
  flush_pending();
  // Expire plan entries for channels we neither subscribe to nor use
  // (paper IV-A5): next use falls back to consistent hashing. Expiry sends
  // nothing, so it runs in slot order; the channels that act below send
  // commands, so they run in channel-name order.
  const SimTime now = sim_.now();
  act_scratch_.clear();
  for (Slot s = 0; s < slot_count_; ++s) {
    ChannelState& st = slot(s);
    if (!st.live) continue;
    if (!wants_subscription(st)) {
      // Pattern-held channels never expire: the pattern's interest is
      // standing, independent of traffic.
      if (now - st.last_activity > config_.entry_timeout) {
        ++stats_.entries_expired;
        erase_slot(s);
      }
      continue;
    }
    if (config_.resubscribe_keepalive || placement_broken(st)) act_scratch_.push_back(s);
  }
  sort_by_name(act_scratch_);
  for (Slot s : act_scratch_) {
    ChannelState& st = slot(s);
    if (placement_broken(st)) {
      // Reconciliation: a subscription whose placement is empty (placement
      // failed) or references a dead server is not actually receiving
      // anything — re-place it, falling back to the ring if needed.
      ++stats_.fallback_resubscribes;
      ensure_live_entry(st.name, st);
      place_subscription(st.name, st);
    } else {
      // Keepalive: re-SUBSCRIBE where we believe we are placed. Idempotent
      // at the server, and a zombie connection (closed server-side,
      // notification lost) bounces with a reset, which finally tells us the
      // truth.
      for (ServerId server : st.sub_servers) {
        if (ps::RemoteConnection* conn = connection(server)) conn->subscribe(st.name);
      }
    }
  }
}

bool DynamothClient::placement_broken(const ChannelState& st) const {
  if (st.sub_servers.empty()) return true;
  for (ServerId s : st.sub_servers) {
    ps::PubSubServer* srv = registry_.find(s);
    if (srv == nullptr || !srv->running()) return true;
  }
  return false;
}

bool DynamothClient::subscribed(const Channel& channel) const {
  const ChannelState* st = find_state(channel);
  return st != nullptr && st->subscribed;
}

bool DynamothClient::pattern_subscribed(const std::string& pattern) const {
  return patterns_.contains(pattern);
}

std::set<Channel> DynamothClient::pattern_channels(const std::string& pattern) const {
  auto it = patterns_.find(pattern);
  return it == patterns_.end() ? std::set<Channel>{} : it->second.channels;
}

const PlanEntry* DynamothClient::plan_entry(const Channel& channel) const {
  const ChannelState* st = find_state(channel);
  return st == nullptr ? nullptr : &st->entry;
}

std::set<ServerId> DynamothClient::subscription_servers(const Channel& channel) const {
  const ChannelState* st = find_state(channel);
  return st == nullptr ? std::set<ServerId>{}
                       : std::set<ServerId>(st->sub_servers.begin(), st->sub_servers.end());
}

}  // namespace dynamoth::core
