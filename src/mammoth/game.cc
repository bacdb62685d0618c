#include "mammoth/game.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dynamoth::mammoth {

namespace {
/// Per-member tile-crossing rate of cohort mode. Individual random-waypoint
/// players at the default speed/world scale cross tiles roughly this often.
constexpr double kCrossingsPerMemberPerSec = 0.15;
constexpr SimTime kMigrationInterval = seconds(1);
}  // namespace

std::vector<double> stationary_tile_weights(const GameConfig& config) {
  const World world(config.world_size, config.tiles_per_side);
  const int tiles = world.tile_count();
  const double bias = std::clamp(config.player.hotspot_bias, 0.0, 1.0);
  std::vector<double> weights(static_cast<std::size_t>(tiles), (1.0 - bias) / tiles);
  if (bias > 0) {
    const auto hotspots = world.hotspots();
    for (const Position& poi : hotspots) {
      const TileCoord tc = world.tile_of(poi);
      const std::size_t idx =
          static_cast<std::size_t>(tc.y) * static_cast<std::size_t>(world.tiles_per_side()) +
          static_cast<std::size_t>(tc.x);
      weights[idx] += bias / static_cast<double>(hotspots.size());
    }
  }
  return weights;
}

Game::Game(harness::Cluster& cluster, GameConfig config, harness::ResponseProbe* probe)
    : cluster_(cluster),
      config_(config),
      world_(config.world_size, config.tiles_per_side),
      probe_(probe),
      migration_rng_(cluster.fork_rng("cohort-migration")),
      migration_(cluster.sim(), kMigrationInterval, [this] { migrate(); }) {
  if (!config_.cohort.enabled) return;
  // Stationary density profile: uniform mass blended with hotspot mass at
  // the player AI's hotspot bias — the same skew individual random-waypoint
  // players with POI-biased waypoints converge to, in closed form.
  const int tiles = world_.tile_count();
  tile_weights_ = stationary_tile_weights(config_);
  DYN_CHECK(config_.region.tile_owner.empty() ||
            config_.region.tile_owner.size() == static_cast<std::size_t>(tiles));
  cohorts_.resize(static_cast<std::size_t>(tiles));
  migration_credit_.assign(static_cast<std::size_t>(tiles), 0.0);
}

void Game::set_population(std::size_t n) {
  if (config_.cohort.enabled) {
    set_population_cohort(n);
  } else {
    set_population_individual(n);
  }
}

void Game::set_population_individual(std::size_t n) {
  while (active_ < n) {
    if (active_ == players_.size()) {
      core::DynamothClient& client = cluster_.add_client(config_.client);
      auto sink = [this](SimTime rtt) {
        if (probe_ != nullptr) probe_->record(rtt);
      };
      players_.push_back(std::make_unique<Player>(
          cluster_.sim(), world_, client, config_.player,
          cluster_.fork_rng("player").fork(players_.size()), sink));
    }
    players_[active_]->join();
    ++active_;
  }
  while (active_ > n) {
    --active_;
    players_[active_]->leave();
  }
}

std::vector<std::uint32_t> Game::apportion(std::size_t n) const {
  const std::size_t tiles = tile_weights_.size();
  std::vector<std::uint32_t> out(tiles, 0);
  // Largest-remainder (Hamilton) apportionment: exact total, deterministic
  // tie-break by tile index.
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(tiles);
  std::size_t assigned = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    const double quota = static_cast<double>(n) * tile_weights_[t];
    const auto base = static_cast<std::uint32_t>(quota);
    out[t] = base;
    assigned += base;
    remainders.emplace_back(quota - static_cast<double>(base), t);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first : a.second < b.second;
            });
  DYN_CHECK(assigned <= n);
  for (std::size_t i = 0; i < n - assigned; ++i) {
    ++out[remainders[i % remainders.size()].second];
  }
  return out;
}

cohort::Cohort& Game::cohort_for(std::size_t idx) {
  if (cohorts_[idx] == nullptr) {
    const int side = world_.tiles_per_side();
    const TileCoord tc{static_cast<int>(idx) % side, static_cast<int>(idx) / side};
    cohort::CohortConfig cc;
    cc.channel = World::tile_channel(tc);
    cc.members = 0;
    cc.publish_rate_per_member = config_.player.updates_per_sec;
    cc.payload_bytes = config_.player.payload_bytes;
    core::DynamothClient& client = cluster_.add_client(config_.client);
    auto sink = [this](SimTime rtt) {
      if (probe_ != nullptr) probe_->record(rtt);
    };
    cohorts_[idx] = std::make_unique<cohort::Cohort>(
        cluster_.sim(), client, cc, cluster_.fork_rng("cohort").fork(idx), sink,
        &delivery_latency_);
    cohorts_[idx]->start();  // parked at 0 members until apportioned
  }
  return *cohorts_[idx];
}

void Game::set_population_cohort(std::size_t n) {
  // Apportionment is GLOBAL (every region computes the same exact-total
  // split from the same weights); each instance applies only its owned
  // slice, so region populations sum to n without any cross-shard talk.
  const std::vector<std::uint32_t> target = apportion(n);
  std::size_t owned = 0;
  for (std::size_t t = 0; t < target.size(); ++t) {
    if (!owns_tile(t)) continue;
    owned += target[t];
    const std::uint32_t cur = cohorts_[t] ? cohorts_[t]->members() : 0;
    if (cur == target[t]) continue;
    cohort_for(t).set_members(target[t]);
  }
  if (active_ == 0 && owned > 0) migration_.start();
  if (owned == 0) migration_.stop();
  active_ = owned;
}

void Game::migrate() {
  if (active_ == 0) return;
  const int side = world_.tiles_per_side();
  const double dt = to_seconds(kMigrationInterval);
  const double rate = kCrossingsPerMemberPerSec;
  // Pass 1: compute every tile's outflow from its pre-step population (with
  // per-tile fractional credit, so low-population tiles still churn at the
  // exact long-run rate), then apply all deltas. O(tiles) per step no matter
  // how many members are modeled.
  std::vector<std::int64_t> delta(cohorts_.size(), 0);
  for (std::size_t t = 0; t < cohorts_.size(); ++t) {
    const std::uint32_t m = cohorts_[t] ? cohorts_[t]->members() : 0;
    if (m == 0) continue;
    migration_credit_[t] += static_cast<double>(m) * rate * dt;
    auto out = static_cast<std::uint32_t>(migration_credit_[t]);
    if (out == 0) continue;
    out = std::min(out, m);
    migration_credit_[t] -= static_cast<double>(out);
    // Departures split across the 4-neighbourhood starting at a seeded
    // offset; walks off the edge stay home (the member bounced off the
    // world boundary).
    const int x = static_cast<int>(t) % side;
    const int y = static_cast<int>(t) / side;
    static constexpr int kDx[4] = {1, -1, 0, 0};
    static constexpr int kDy[4] = {0, 0, 1, -1};
    const auto start = static_cast<std::uint32_t>(migration_rng_.uniform_int(0, 3));
    for (std::uint32_t i = 0; i < out; ++i) {
      const std::uint32_t d = (start + i) % 4;
      const int nx = x + kDx[d];
      const int ny = y + kDy[d];
      if (nx < 0 || nx >= side || ny < 0 || ny >= side) continue;
      const std::size_t dst = static_cast<std::size_t>(ny) * static_cast<std::size_t>(side) +
                              static_cast<std::size_t>(nx);
      if (!owns_tile(dst) && !migration_sink_) continue;  // no federation: bounce home
      delta[t] -= 1;
      ++cohort_crossings_;
      if (owns_tile(dst)) {
        delta[dst] += 1;
      } else {
        // Region-boundary crossing: the member leaves this shard; the
        // driver ships it over the inter-region gateway.
        migration_sink_(dst, 1);
        active_ -= 1;
      }
    }
  }
  for (std::size_t t = 0; t < cohorts_.size(); ++t) {
    if (delta[t] == 0) continue;
    const std::uint32_t cur = cohorts_[t] ? cohorts_[t]->members() : 0;
    cohort_for(t).set_members(static_cast<std::uint32_t>(
        static_cast<std::int64_t>(cur) + delta[t]));
  }
}

void Game::add_members(std::size_t idx, std::uint32_t count) {
  DYN_CHECK(config_.cohort.enabled);
  DYN_CHECK(owns_tile(idx));
  if (count == 0) return;
  const std::uint32_t cur = cohorts_[idx] ? cohorts_[idx]->members() : 0;
  cohort_for(idx).set_members(cur + count);
  if (active_ == 0) migration_.start();
  active_ += count;
}

std::uint64_t Game::total_updates_published() const {
  std::uint64_t total = 0;
  for (const auto& p : players_) total += p->updates_published();
  for (const auto& c : cohorts_) {
    if (c) total += c->stats().publications;
  }
  return total;
}

std::uint64_t Game::total_updates_received() const {
  std::uint64_t total = 0;
  for (const auto& p : players_) total += p->updates_received();
  for (const auto& c : cohorts_) {
    if (c) total += c->stats().member_deliveries;
  }
  return total;
}

std::uint64_t Game::total_tile_crossings() const {
  std::uint64_t total = cohort_crossings_;
  for (const auto& p : players_) total += p->tile_crossings();
  return total;
}

std::uint64_t Game::total_connection_drops() const {
  std::uint64_t total = 0;
  for (const auto& p : players_) total += p->client().stats().connection_drops;
  for (const auto& c : cohorts_) {
    if (c) total += c->client().stats().connection_drops;
  }
  return total;
}

}  // namespace dynamoth::mammoth
