#include "reliability/reliable_subscriber.h"

#include <utility>

#include "common/check.h"

namespace dynamoth::rel {

namespace {
/// How long a gap may stand before replay is requested (absorbs
/// reconfiguration-time reordering).
constexpr SimTime kReorderGrace = millis(500);
}  // namespace

ReliableSubscriber::Stats& ReliableSubscriber::Stats::operator+=(const Stats& other) {
  static_assert(sizeof(Stats) == 5 * sizeof(std::uint64_t),
                "add the new counter to the sum below");
  delivered += other.delivered;
  gaps_detected += other.gaps_detected;
  replays_requested += other.replays_requested;
  recovered += other.recovered;
  gave_up += other.gave_up;
  return *this;
}

ReliableSubscriber::ReliableSubscriber(sim::Simulator& sim, core::DynamothClient& client,
                                       Config config)
    : sim_(sim), client_(client), config_(config), alive_(std::make_shared<bool>(true)) {
  client_.subscribe(replay_reply_channel(client_.id()),
                    [this](const ps::EnvelopePtr& env) { on_replay(env); });
}

ReliableSubscriber::~ReliableSubscriber() { *alive_ = false; }

void ReliableSubscriber::subscribe(const Channel& channel, MessageHandler handler) {
  const ChannelId cid = intern_channel(channel);
  ChannelState& st = channels_[cid];
  st.name = channel;
  st.handler = std::move(handler);
  client_.subscribe(channel,
                    [this, cid](const ps::EnvelopePtr& env) { on_message(cid, env); });
}

void ReliableSubscriber::unsubscribe(const Channel& channel) {
  const ChannelId cid = ChannelTable::instance().find(channel);
  if (cid != kInvalidChannelId) channels_.erase(cid);
  client_.unsubscribe(channel);
}

void ReliableSubscriber::on_message(ChannelId cid, const ps::EnvelopePtr& env) {
  auto it = channels_.find(cid);
  if (it == channels_.end()) return;
  ChannelState& st = it->second;

  if (env->channel_seq == 0) {
    // Unsequenced producer: deliver as-is, nothing to track.
    ++stats_.delivered;
    if (st.handler) st.handler(env);
    return;
  }

  auto [lit, fresh] = st.last_seq.emplace(env->publisher, 0);
  std::uint64_t& last = lit->second;
  (void)fresh;

  if (env->channel_seq > last + 1 && last > 0) {
    // Gap: schedule a check after the reorder grace; only what is still
    // missing then gets requested.
    ++stats_.gaps_detected;
    auto& missing = st.pending[env->publisher];
    for (std::uint64_t seq = last + 1; seq < env->channel_seq; ++seq) missing.insert(seq);
    std::weak_ptr<bool> alive = alive_;
    const ClientId publisher = env->publisher;
    sim_.schedule_after(kReorderGrace, [this, alive, cid, publisher] {
      if (auto a = alive.lock(); a && *a) check_gap(cid, publisher);
    });
  }

  if (env->channel_seq <= last) {
    // A straggler that arrived after the window moved (reordered duplicate
    // already filtered by dedup, or a replayed message racing the original):
    // it may close a pending gap.
    auto pit = st.pending.find(env->publisher);
    if (pit != st.pending.end() && pit->second.erase(env->channel_seq) > 0) {
      ++stats_.delivered;
      if (st.handler) st.handler(env);
    }
    return;
  }

  last = std::max(last, env->channel_seq);
  ++stats_.delivered;
  if (st.handler) st.handler(env);
}

void ReliableSubscriber::check_gap(ChannelId cid, ClientId publisher) {
  auto it = channels_.find(cid);
  if (it == channels_.end()) return;
  auto pit = it->second.pending.find(publisher);
  if (pit == it->second.pending.end() || pit->second.empty()) return;
  request_replay(cid, publisher, 0, pit->second.size());
}

void ReliableSubscriber::request_replay(ChannelId cid, ClientId publisher,
                                        int retry, std::size_t last_missing) {
  auto it = channels_.find(cid);
  if (it == channels_.end()) return;
  auto pit = it->second.pending.find(publisher);
  if (pit == it->second.pending.end() || pit->second.empty()) return;  // filled
  const std::size_t missing = pit->second.size();

  std::weak_ptr<bool> alive = alive_;
  auto arm = [this, alive, publisher, cid](int next_retry, std::size_t count) {
    sim_.schedule_after(config_.retry_interval,
                        [this, alive, publisher, count, cid, next_retry] {
                          if (auto a = alive.lock(); a && *a) {
                            request_replay(cid, publisher, next_retry, count);
                          }
                        });
  };

  if (retry > 0 && missing < last_missing) {
    // Replay chunks are still streaming in: no new request, keep watching.
    arm(1, missing);
    return;
  }

  if (retry >= config_.max_retries) {
    stats_.gave_up += missing;
    pit->second.clear();
    return;
  }

  auto request = std::make_shared<ReplayRequestBody>();
  request->requester = client_.id();
  request->publisher = publisher;
  request->channel = it->second.name;
  request->from_seq = *pit->second.begin();
  request->to_seq = *pit->second.rbegin();
  client_.publish_control(kReplayRequestChannel, std::move(request));
  ++stats_.replays_requested;
  arm(retry + 1, missing);
}

void ReliableSubscriber::on_replay(const ps::EnvelopePtr& env) {
  const auto* batch = dynamic_cast<const ReplayBatchBody*>(env->body.get());
  if (batch == nullptr) return;
  for (const ps::EnvelopePtr& message : batch->messages) {
    auto it = channels_.find(message->channel_id());
    if (it == channels_.end()) continue;
    ChannelState& st = it->second;
    auto pit = st.pending.find(message->publisher);
    if (pit == st.pending.end()) continue;
    if (pit->second.erase(message->channel_seq) == 0) continue;  // not missing
    ++stats_.recovered;
    ++stats_.delivered;
    if (st.handler) st.handler(message);
  }
}

std::size_t ReliableSubscriber::open_gaps() const {
  std::size_t total = 0;
  for (const auto& [_, st] : channels_) {
    for (const auto& [__, missing] : st.pending) total += missing.size();
  }
  return total;
}

}  // namespace dynamoth::rel
