#include "cohort/cohort.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dynamoth::cohort {

Cohort::Cohort(sim::Simulator& sim, core::DynamothClient& client, CohortConfig config, Rng rng,
               RttSink rtt_sink, metrics::Histogram* delivery_latency)
    : sim_(sim),
      client_(client),
      config_(config),
      rng_(rng),
      rtt_sink_(std::move(rtt_sink)),
      delivery_latency_(delivery_latency),
      ticker_(sim, config.members > 0 ? aggregate_period() : kSecond, [this] { tick(); }) {
  DYN_CHECK(!config_.channel.empty());
  DYN_CHECK(config_.publish_rate_per_member > 0);
  DYN_CHECK(config_.duty_cycle > 0 && config_.duty_cycle <= 1.0);
}

Cohort::~Cohort() { stop(); }

SimTime Cohort::aggregate_period() const {
  // N members at rate r each => one aggregate publication every 1/(N*r)
  // seconds. Floor of 1 tick keeps the math sane for extreme populations.
  const double per_sec =
      static_cast<double>(config_.members) * config_.publish_rate_per_member;
  return std::max<SimTime>(1, static_cast<SimTime>(static_cast<double>(kSecond) / per_sec));
}

void Cohort::start() {
  if (active_) return;
  active_ = true;
  if (config_.members == 0) return;  // parked until set_members revives it
  client_.set_multiplicity(config_.members);
  client_.subscribe(config_.channel, [this](const ps::EnvelopePtr& env) { on_message(env); });
  subscribed_ = true;
  // Seeded phase: cohorts desynchronise the same way individual players do,
  // and the phase draw is part of the deterministic RNG stream.
  ticker_.set_period(aggregate_period());
  ticker_.start_after(
      static_cast<SimTime>(rng_.uniform() * static_cast<double>(ticker_.period())));
}

void Cohort::stop() {
  if (!active_) return;
  active_ = false;
  ticker_.stop();
  if (subscribed_) {
    subscribed_ = false;
    client_.unsubscribe(config_.channel);
  }
}

void Cohort::set_members(std::uint32_t members) {
  if (members == config_.members) return;
  config_.members = members;
  if (!active_) return;  // config change only; start() will apply it
  if (members == 0) {
    // Park: everyone migrated away. Keep the client around (its plan cache
    // stays warm) but stop producing and consuming.
    ticker_.stop();
    if (subscribed_) {
      subscribed_ = false;
      client_.unsubscribe(config_.channel);
    }
    return;
  }
  client_.set_multiplicity(members);
  if (!subscribed_) {
    client_.subscribe(config_.channel, [this](const ps::EnvelopePtr& env) { on_message(env); });
    subscribed_ = true;
  }
  // Re-pace: a pending tick keeps its deadline; later ticks follow the new
  // aggregate rate. Restart only when parked (ticker not running).
  ticker_.set_period(aggregate_period());
  if (!ticker_.running()) {
    ticker_.start_after(
        static_cast<SimTime>(rng_.uniform() * static_cast<double>(ticker_.period())));
  }
}

void Cohort::tick() {
  if (!active_ || config_.members == 0) return;
  // Thinned process: each aggregate slot publishes with duty_cycle
  // probability. duty_cycle == 1 draws nothing — the common (Mammoth) case
  // stays RNG-silent, like individual players whose ticks always publish.
  if (config_.duty_cycle < 1.0 && !rng_.chance(config_.duty_cycle)) {
    ++stats_.ticks_thinned;
    return;
  }
  client_.publish(config_.channel, config_.payload_bytes);
  ++stats_.publications;
}

void Cohort::on_message(const ps::EnvelopePtr& env) {
  // One wire delivery = `members` member deliveries, exactly: the weighted
  // send already cost the server members x bytes of egress and the LLA
  // counted members deliveries; this is the client-side expansion of the
  // same event.
  const std::uint32_t n = config_.members;
  ++stats_.delivery_events;
  stats_.member_deliveries += n;
  stats_.member_bytes += static_cast<std::uint64_t>(env->payload_bytes) * n;
  if (delivery_latency_ != nullptr) {
    delivery_latency_->record_n(sim_.now() - env->publish_time, n);
  }
  // RTT: in individual mode only the publishing member records its round
  // trip, so the exact-match rate is one sample per own publication echoed.
  if (env->publisher == client_.id()) {
    ++stats_.echoes;
    if (rtt_sink_) rtt_sink_(sim_.now() - env->publish_time);
  }
}

}  // namespace dynamoth::cohort
