#include "reliability/replay_service.h"

#include <algorithm>

#include "common/check.h"

namespace dynamoth::rel {

namespace {
constexpr std::size_t kMaxBatch = 256;  // most messages replayed per request
}  // namespace

ReplayService::ReplayService(sim::Simulator& sim, core::DynamothClient& client, Config config)
    : sim_(sim),
      client_(client),
      config_(config),
      store_(config.history_per_channel),
      alive_(std::make_shared<bool>(true)) {}

void ReplayService::start() {
  if (started_) return;
  started_ = true;
  client_.subscribe(kReplayRequestChannel,
                    [this](const ps::EnvelopePtr& env) { on_request(env); });
}

void ReplayService::cover(const Channel& channel) {
  if (!covered_.insert(intern_channel(channel)).second) return;
  client_.subscribe(channel, [this](const ps::EnvelopePtr& env) { on_covered_message(env); });
}

void ReplayService::uncover(const Channel& channel) {
  const ChannelId cid = ChannelTable::instance().find(channel);
  if (cid == kInvalidChannelId || covered_.erase(cid) == 0) return;
  client_.unsubscribe(channel);
  store_.forget(cid);
}

void ReplayService::on_covered_message(const ps::EnvelopePtr& env) {
  store_.record(env);
  ++stats_.recorded;
}

void ReplayService::on_request(const ps::EnvelopePtr& env) {
  const auto* request = dynamic_cast<const ReplayRequestBody*>(env->body.get());
  if (request == nullptr) return;
  ++stats_.requests;

  std::vector<ps::EnvelopePtr> found =
      store_.lookup(request->channel, request->publisher, request->from_seq, request->to_seq);
  if (found.size() > kMaxBatch) found.resize(kMaxBatch);

  const auto span = request->to_seq - request->from_seq + 1;
  stats_.unavailable += span > found.size() ? span - found.size() : 0;
  if (found.empty()) return;
  stats_.replayed += found.size();

  // Paced, chunked replay: one chunk per interval so the recovery stream
  // cannot itself overflow the subscriber that just lost its connection.
  const Channel reply = replay_reply_channel(request->requester);
  std::vector<std::shared_ptr<ReplayBatchBody>> chunks;
  auto chunk = std::make_shared<ReplayBatchBody>();
  std::size_t chunk_size = 0;
  for (ps::EnvelopePtr& message : found) {
    const std::size_t bytes = ps::wire_size(*message, 16);
    if (!chunk->messages.empty() && chunk_size + bytes > config_.chunk_bytes) {
      chunks.push_back(std::move(chunk));
      chunk = std::make_shared<ReplayBatchBody>();
      chunk_size = 0;
    }
    chunk->messages.push_back(std::move(message));
    chunk_size += bytes;
  }
  if (!chunk->messages.empty()) chunks.push_back(std::move(chunk));

  std::weak_ptr<bool> alive = alive_;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    sim_.schedule_after(
        static_cast<SimTime>(i) * config_.chunk_interval,
        [this, alive, reply, body = std::move(chunks[i])] {
          if (auto a = alive.lock(); a && *a) {
            std::size_t payload = 0;
            for (const auto& m : body->messages) payload += m->payload_bytes;
            client_.publish_control(reply, body, payload);
          }
        });
  }
}

}  // namespace dynamoth::rel
