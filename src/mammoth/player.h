// RGame AI player (paper V-A).
//
// "players are controlled by a simple AI that repeatedly chooses a random
// point on the map, moves the player towards that point and then takes a
// short break." While in the game, a player subscribes to the tile it is in
// (resubscribing as it crosses tile borders) and publishes its state update
// on that tile at a fixed rate. Receiving its own update back yields the
// response-time sample used throughout the paper's Figures 5 and 7.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.h"
#include "common/types.h"
#include "core/client.h"
#include "mammoth/world.h"
#include "sim/simulator.h"

namespace dynamoth::mammoth {

struct PlayerConfig {
  double speed = 40.0;            // world units / second
  double updates_per_sec = 3.0;   // paper: 3 state updates per second
  SimTime pause_min = seconds(1);  // break after reaching a waypoint
  SimTime pause_max = seconds(4);
  std::size_t payload_bytes = 140;  // state-update payload

  /// Probability that a new waypoint targets one of the world's points of
  /// interest (towns, quest hubs) instead of a uniform random point. POIs
  /// concentrate players on a few tiles — the per-channel load skew that
  /// separates load-aware balancing from consistent hashing.
  double hotspot_bias = 0.0;
};

class Player {
 public:
  /// Called with the publish->self-delivery round-trip of each state update.
  using RttSink = std::function<void(SimTime rtt)>;

  Player(sim::Simulator& sim, const World& world, core::DynamothClient& client,
         PlayerConfig config, Rng rng, RttSink rtt_sink);
  ~Player();

  Player(const Player&) = delete;
  Player& operator=(const Player&) = delete;

  /// Enters the game at a random position: subscribes to the current tile
  /// and starts moving/publishing.
  void join();

  /// Leaves the game: unsubscribes and stops publishing.
  void leave();

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] Position position() const { return position_; }
  [[nodiscard]] TileCoord tile() const { return tile_; }
  [[nodiscard]] core::DynamothClient& client() { return client_; }
  [[nodiscard]] const core::DynamothClient& client() const { return client_; }
  [[nodiscard]] std::uint64_t updates_published() const { return updates_published_; }
  [[nodiscard]] std::uint64_t updates_received() const { return updates_received_; }
  [[nodiscard]] std::uint64_t tile_crossings() const { return tile_crossings_; }

 private:
  Position pick_waypoint();
  void tick();
  void move(double dt);
  void enter_tile(TileCoord tile);
  void on_message(const ps::EnvelopePtr& env);

  sim::Simulator& sim_;
  const World& world_;
  core::DynamothClient& client_;
  PlayerConfig config_;
  Rng rng_;
  RttSink rtt_sink_;

  Position position_{};
  Position waypoint_{};
  TileCoord tile_{};
  SimTime paused_until_ = 0;
  bool active_ = false;

  std::uint64_t updates_published_ = 0;
  std::uint64_t updates_received_ = 0;
  std::uint64_t tile_crossings_ = 0;

  sim::PeriodicTask ticker_;
};

}  // namespace dynamoth::mammoth
