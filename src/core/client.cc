#include "core/client.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::core {

namespace {
/// Payload of a publish() that names no size.
constexpr std::size_t kDefaultPayloadBytes = 128;
}  // namespace

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
  for (auto& [_, conn] : conns_) conn->close();
  conns_.clear();
  channels_.clear();
  patterns_.clear();
  pending_expansions_.clear();
  pending_.clear();
}

DynamothClient::ChannelState& DynamothClient::state_for(const Channel& channel) {
  auto it = channels_.find(channel);
  if (it == channels_.end()) {
    // First contact with this channel: consistent-hashing fallback (plan 0).
    ChannelState st;
    st.entry.servers = {base_ring_->lookup(channel)};
    st.entry.mode = ReplicationMode::kNone;
    st.entry.version = 0;
    st.last_activity = sim_.now();
    it = channels_.emplace(channel, std::move(st)).first;
  }
  return it->second;
}

ps::RemoteConnection* DynamothClient::connection(ServerId server) {
  auto it = conns_.find(server);
  if (it != conns_.end()) {
    if (it->second->server().running()) return it->second.get();
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
  conns_.emplace(server, std::move(conn));
  // Cohort weight is declared before anything else rides the stream, so the
  // server (and its LLA) never sees a subscription at the wrong multiplicity.
  if (config_.multiplicity > 1) raw->update_weight(config_.multiplicity);
  // Announce our identity so the local dispatcher can address replies to us.
  raw->subscribe(ctl_channel_);
  return raw;
}

void DynamothClient::set_multiplicity(std::uint32_t multiplicity) {
  DYN_CHECK(multiplicity >= 1);
  if (config_.multiplicity == multiplicity) return;
  config_.multiplicity = multiplicity;
  for (auto& [server, conn] : conns_) {
    if (conn->open()) conn->update_weight(multiplicity);
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
  auto it = channels_.find(channel);
  if (it == channels_.end() || !it->second.subscribed) return;
  ChannelState& st = it->second;
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
    auto cit = channels_.find(channel);
    if (cit == channels_.end()) continue;
    ChannelState& st = cit->second;
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
  std::set<ServerId> want;
  switch (st.entry.mode) {
    case ReplicationMode::kNone:
      want.insert(st.entry.primary());
      break;
    case ReplicationMode::kAllSubscribers:
      want.insert(st.entry.servers.begin(), st.entry.servers.end());
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
    want = {st.entry.primary()};
  }

  // Subscribe where missing. Only placements that actually reached a live
  // server are recorded: recording wishes as facts made a subscriber whose
  // target died mid-placement believe it was covered forever, and the sweep
  // reconciliation below could never catch it.
  std::set<ServerId> placed;
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
      auto it = channels_.find(channel);
      // Only drop the old subscription if it has not become wanted again.
      if (it != channels_.end() && it->second.sub_servers.contains(s)) return;
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
  while (!st.recent.empty() && st.recent.front().first < cutoff) st.recent.pop_front();
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
      auto it = channels_.find(env->channel);
      if (it == channels_.end()) {
        ++stats_.stale_drops;  // e.g. unsubscribed while the message was in flight
        return;
      }
      ChannelState& st = it->second;
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
    if (auto a = alive.lock(); a && *a) conns_.erase(from);
  });

  // Re-place subscriptions that lived on that server after a reconnect
  // delay (Redis clients reconnect and resubscribe after being dropped).
  for (auto& [channel, st] : channels_) {
    if (!st.sub_servers.contains(from)) continue;
    st.sub_servers.erase(from);
    if (st.entry.mode == ReplicationMode::kAllPublishers && st.all_pubs_pick == from) {
      st.all_pubs_pick = kInvalidServer;
    }
    if (!wants_subscription(st)) continue;
    Channel ch = channel;
    sim_.schedule_after(config_.reconnect_delay, [this, alive, ch] {
      auto a = alive.lock();
      if (!a || !*a) return;
      auto it = channels_.find(ch);
      if (it == channels_.end() || !wants_subscription(it->second)) return;
      ChannelState& st2 = it->second;
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
  // (paper IV-A5): next use falls back to consistent hashing.
  const SimTime now = sim_.now();
  for (auto it = channels_.begin(); it != channels_.end();) {
    ChannelState& st = it->second;
    // Pattern-held channels never expire: the pattern's interest is
    // standing, independent of traffic.
    if (!wants_subscription(st) && now - st.last_activity > config_.entry_timeout) {
      ++stats_.entries_expired;
      it = channels_.erase(it);
      continue;
    }
    if (wants_subscription(st)) {
      // Reconciliation: a subscription whose placement is empty (placement
      // failed) or references a dead server is not actually receiving
      // anything — re-place it, falling back to the ring if needed.
      bool broken = st.sub_servers.empty();
      for (ServerId s : st.sub_servers) {
        ps::PubSubServer* srv = registry_.find(s);
        if (srv == nullptr || !srv->running()) {
          broken = true;
          break;
        }
      }
      if (broken) {
        ++stats_.fallback_resubscribes;
        ensure_live_entry(it->first, st);
        place_subscription(it->first, st);
      } else if (config_.resubscribe_keepalive) {
        // Re-SUBSCRIBE where we believe we are placed: idempotent at the
        // server, and a zombie connection (closed server-side, notification
        // lost) bounces with a reset, which finally tells us the truth.
        for (ServerId s : st.sub_servers) {
          if (ps::RemoteConnection* conn = connection(s)) conn->subscribe(it->first);
        }
      }
    }
    ++it;
  }
}

bool DynamothClient::subscribed(const Channel& channel) const {
  auto it = channels_.find(channel);
  return it != channels_.end() && it->second.subscribed;
}

bool DynamothClient::pattern_subscribed(const std::string& pattern) const {
  return patterns_.contains(pattern);
}

std::set<Channel> DynamothClient::pattern_channels(const std::string& pattern) const {
  auto it = patterns_.find(pattern);
  return it == patterns_.end() ? std::set<Channel>{} : it->second.channels;
}

const PlanEntry* DynamothClient::plan_entry(const Channel& channel) const {
  auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : &it->second.entry;
}

std::set<ServerId> DynamothClient::subscription_servers(const Channel& channel) const {
  auto it = channels_.find(channel);
  return it == channels_.end() ? std::set<ServerId>{} : it->second.sub_servers;
}

}  // namespace dynamoth::core
