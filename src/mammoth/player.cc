#include "mammoth/player.h"

#include <cmath>
#include <utility>

namespace dynamoth::mammoth {

namespace {
constexpr double kHotspotSpread = 60.0;  // gaussian scatter around the POI
}  // namespace

Player::Player(sim::Simulator& sim, const World& world, core::DynamothClient& client,
               PlayerConfig config, Rng rng, RttSink rtt_sink)
    : sim_(sim),
      world_(world),
      client_(client),
      config_(config),
      rng_(rng),
      rtt_sink_(std::move(rtt_sink)),
      ticker_(sim, static_cast<SimTime>(static_cast<double>(kSecond) / config.updates_per_sec),
              [this] { tick(); }) {}

Player::~Player() { leave(); }

Position Player::pick_waypoint() {
  if (config_.hotspot_bias > 0 && rng_.chance(config_.hotspot_bias)) {
    const auto hotspots = world_.hotspots();
    const Position poi =
        hotspots[static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(hotspots.size()) - 1))];
    return world_.clamp(Position{poi.x + rng_.normal(0, kHotspotSpread),
                                 poi.y + rng_.normal(0, kHotspotSpread)});
  }
  return world_.clamp(
      Position{rng_.uniform(0, world_.size()), rng_.uniform(0, world_.size())});
}

void Player::join() {
  if (active_) return;
  active_ = true;
  position_ = pick_waypoint();
  waypoint_ = pick_waypoint();
  tile_ = world_.tile_of(position_);
  client_.subscribe(World::tile_channel(tile_),
                    [this](const ps::EnvelopePtr& env) { on_message(env); });
  // Desynchronise players' publish phases.
  ticker_.start_after(static_cast<SimTime>(rng_.uniform() * static_cast<double>(ticker_.period())));
}

void Player::leave() {
  if (!active_) return;
  active_ = false;
  ticker_.stop();
  client_.unsubscribe(World::tile_channel(tile_));
}

void Player::move(double dt) {
  if (sim_.now() < paused_until_) return;
  const double dx = waypoint_.x - position_.x;
  const double dy = waypoint_.y - position_.y;
  const double dist = std::sqrt(dx * dx + dy * dy);
  const double step = config_.speed * dt;
  if (dist <= step) {
    // Waypoint reached: short break, then pick the next random point
    // (random-waypoint mobility, which naturally skews density toward the
    // world centre — the tile-popularity skew the macro balancer feeds on).
    position_ = waypoint_;
    paused_until_ = sim_.now() + rng_.uniform_int(config_.pause_min, config_.pause_max);
    waypoint_ = pick_waypoint();
    return;
  }
  position_ = world_.clamp(Position{position_.x + dx / dist * step,
                                    position_.y + dy / dist * step});
}

void Player::enter_tile(TileCoord tile) {
  if (tile == tile_) return;
  ++tile_crossings_;
  client_.unsubscribe(World::tile_channel(tile_));
  tile_ = tile;
  client_.subscribe(World::tile_channel(tile_),
                    [this](const ps::EnvelopePtr& env) { on_message(env); });
}

void Player::tick() {
  if (!active_) return;
  move(1.0 / config_.updates_per_sec);
  enter_tile(world_.tile_of(position_));
  client_.publish(World::tile_channel(tile_), config_.payload_bytes);
  ++updates_published_;
}

void Player::on_message(const ps::EnvelopePtr& env) {
  ++updates_received_;
  if (env->publisher == client_.id() && rtt_sink_) {
    rtt_sink_(sim_.now() - env->publish_time);
  }
}

}  // namespace dynamoth::mammoth
