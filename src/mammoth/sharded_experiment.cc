#include "mammoth/sharded_experiment.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "net/network.h"

namespace dynamoth::mammoth::exp {

namespace {

// Boundary-event wire format (sim::BoundaryEvent is a POD mailbox record):
//   kMigration: a = destination tile, b = member count
//   kRelayPub:  a = destination tile, b = publication count,
//               c = payload bytes,    d = observed latency (us)
constexpr std::uint32_t kMigration = 1;
constexpr std::uint32_t kRelayPub = 2;

/// One-way inter-region gateway propagation delay; doubles as the engine
/// lookahead, so it bounds the epoch length.
constexpr SimTime kInterRegionDelay = millis(20);
static_assert(kInterRegionDelay > 0, "the sharded engine needs a positive lookahead");
/// Gateway uplink line rate (B/s) per region.
constexpr double kGatewayEgress = 1e9;

/// Serialized member-handoff record on the gateway wire (position, entity
/// state, session token — the control payload of a region transfer).
constexpr std::size_t kMigrationMsgBytes = 256;

/// Per-region share of an S-server fleet: floor split, remainder to the
/// low regions, never below one server.
std::size_t fleet_share(std::size_t total, std::size_t region, std::size_t regions) {
  const std::size_t base = total / regions;
  const std::size_t share = base + (region < total % regions ? 1 : 0);
  return std::max<std::size_t>(share, 1);
}

/// One region: a full GameExperimentRun (cluster + balancer + game slice)
/// plus the inter-region gateway plumbing.
class GameShard : public sim::Shard {
 public:
  GameShard(const GameExperimentConfig& config, sim::ShardedEngine* engine, std::size_t region,
            const ShardOptions& options,
            std::shared_ptr<const std::vector<std::uint32_t>> tile_owner)
      : run_(config),
        engine_(engine),
        region_(region),
        options_(options),
        tile_owner_(std::move(tile_owner)) {
    if (engine_->shard_count() <= 1) return;  // classic mode: no gateway at all
    gateway_ = run_.cluster().network().add_node(
        {net::NodeKind::kInfrastructure, kGatewayEgress});
    run_.game().set_migration_sink(
        [this](std::size_t tile, std::uint32_t count) { emigrate(tile, count); });
    if (options_.boundary_aoi) {
      find_border_edges(config.game.tiles_per_side);
      relay_.emplace(run_.sim(), seconds(1), [this] { relay_tick(); });
      relay_->start();
    }
  }

  sim::Simulator& simulator() override { return run_.sim(); }

  void on_boundary(std::size_t /*src*/, const sim::BoundaryEvent& ev) override {
    switch (ev.type) {
      case kMigration: {
        const auto tile = static_cast<std::size_t>(ev.a);
        const auto count = static_cast<std::uint32_t>(ev.b);
        run_.sim().schedule_at(ev.at,
                               [this, tile, count] { run_.game().add_members(tile, count); });
        break;
      }
      case kRelayPub: {
        const auto tile = static_cast<std::size_t>(ev.a);
        const std::uint64_t count = ev.b;
        const auto bytes = static_cast<std::size_t>(ev.c);
        const auto latency = static_cast<SimTime>(ev.d);
        run_.sim().schedule_at(ev.at, [this, tile, count, bytes, latency] {
          run_.game().deliver_remote(tile, count, bytes, latency);
        });
        break;
      }
      default:
        DYN_CHECK(false);
    }
  }

  [[nodiscard]] GameExperimentResult finish() { return run_.finish(); }

 private:
  /// A member's aggregate walk crossed a region border: ship it over the
  /// gateway. Runs inside the shard's epoch run phase (a migrate() tick).
  void emigrate(std::size_t tile, std::uint32_t count) {
    const SimTime depart =
        run_.cluster().network().occupy_egress(gateway_, kMigrationMsgBytes, count);
    engine_->post(region_, (*tile_owner_)[tile],
                  {depart + kInterRegionDelay, kMigration,
                   static_cast<std::uint32_t>(tile), count, 0, 0.0});
  }

  /// Ordered (owned source tile -> adjacent remote tile) pairs: publications
  /// in `from` spill over the border so members in `to` hear them.
  void find_border_edges(int side) {
    const auto& owner = *tile_owner_;
    static constexpr int kDx[4] = {1, -1, 0, 0};
    static constexpr int kDy[4] = {0, 0, 1, -1};
    for (std::size_t t = 0; t < owner.size(); ++t) {
      if (owner[t] != region_) continue;
      const int x = static_cast<int>(t) % side;
      const int y = static_cast<int>(t) / side;
      for (int d = 0; d < 4; ++d) {
        const int nx = x + kDx[d];
        const int ny = y + kDy[d];
        if (nx < 0 || nx >= side || ny < 0 || ny >= side) continue;
        const std::size_t n =
            static_cast<std::size_t>(ny) * static_cast<std::size_t>(side) +
            static_cast<std::size_t>(nx);
        if (owner[n] != region_) edges_.push_back({t, n});
      }
    }
  }

  /// Aggregate boundary-AoI relay: once per second, the last second's
  /// publications from each border tile cross the gateway to the remote
  /// neighbour tile — one weighted wire copy per edge, expanded to exact
  /// per-member deliveries on the far side (the cohort exactness argument,
  /// applied to the federation link).
  void relay_tick() {
    const double rate = run_.config().game.player.updates_per_sec;
    const std::size_t payload = run_.config().game.player.payload_bytes;
    for (const Edge& e : edges_) {
      const std::uint32_t members = run_.game().tile_members(e.from);
      const auto pubs = static_cast<std::uint32_t>(static_cast<double>(members) * rate + 0.5);
      if (pubs == 0) continue;
      const SimTime now = run_.sim().now();
      const SimTime depart = run_.cluster().network().occupy_egress(gateway_, payload, pubs);
      const SimTime at = depart + kInterRegionDelay;
      engine_->post(region_, (*tile_owner_)[e.to],
                    {at, kRelayPub, static_cast<std::uint32_t>(e.to), pubs,
                     static_cast<std::uint64_t>(payload), static_cast<double>(at - now)});
    }
  }

  struct Edge {
    std::size_t from;  // owned border tile (publication source)
    std::size_t to;    // adjacent tile in a remote region (listeners)
  };

  GameExperimentRun run_;
  sim::ShardedEngine* engine_;
  std::size_t region_;
  ShardOptions options_;
  std::shared_ptr<const std::vector<std::uint32_t>> tile_owner_;
  NodeId gateway_ = 0;
  std::vector<Edge> edges_;
  std::optional<sim::PeriodicTask> relay_;
};

/// Deterministic cross-region merge; see ShardedGameResult::merged.
GameExperimentResult merge_results(std::vector<GameExperimentResult>& parts,
                                   const GameExperimentConfig& config) {
  GameExperimentResult m;
  if (parts.empty()) return m;
  // One region: the merge must be the identity, bit for bit — recomputing
  // rt as (rt * players) / players would round. Copy through, metrics and
  // audit included.
  if (parts.size() == 1) return parts[0];
  const std::size_t rows = parts[0].series.rows();
  for (const GameExperimentResult& p : parts) DYN_CHECK(p.series.rows() == rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double t = parts[0].series.value(r, 0);
    double players = 0, msgs = 0, servers = 0, rebalances = 0;
    double rt_weighted = 0, rt_sum = 0, lr_weighted = 0, max_lr = 0;
    for (const GameExperimentResult& p : parts) {
      DYN_CHECK(p.series.value(r, 0) == t);
      players += p.series.value(r, 1);
      msgs += p.series.value(r, 2);
      servers += p.series.value(r, 3);
      rt_weighted += p.series.value(r, 4) * p.series.value(r, 1);
      rt_sum += p.series.value(r, 4);
      lr_weighted += p.series.value(r, 5) * p.series.value(r, 3);
      max_lr = std::max(max_lr, p.series.value(r, 6));
      rebalances += p.series.value(r, 7);
    }
    // Player-weighted mean response time (a region's rt speaks for its
    // members); plain mean when the world is empty so carried-forward
    // values survive — at K = 1 both collapse to the original row.
    const double rt =
        players > 0 ? rt_weighted / players : rt_sum / static_cast<double>(parts.size());
    const double avg_lr =
        servers > 0 ? lr_weighted / servers : 0.0;
    m.series.add_row({t, players, msgs, servers, rt, avg_lr, max_lr, rebalances});
    if (rt > 0 && rt <= config.rt_threshold_ms) {
      m.max_players_ok = std::max(m.max_players_ok, players);
    }
    m.peak_servers = std::max(m.peak_servers, servers);
  }
  for (const GameExperimentResult& p : parts) {
    m.events.insert(m.events.end(), p.events.begin(), p.events.end());
    m.rtt_us.merge(p.rtt_us);
    m.delivery_latency_us.merge(p.delivery_latency_us);
    m.total_updates += p.total_updates;
    m.connection_drops += p.connection_drops;
    m.control_bytes += p.control_bytes;
    m.server_hours += p.server_hours;
    m.static_fleet_hours += p.static_fleet_hours;
    m.executed_events += p.executed_events;
    m.rng_draws += p.rng_draws;
  }
  std::stable_sort(m.events.begin(), m.events.end(),
                   [](const core::RebalanceEvent& a, const core::RebalanceEvent& b) {
                     return a.time < b.time;
                   });
  return m;
}

}  // namespace

std::vector<std::uint32_t> band_shard_assignment(const std::vector<double>& tile_weights,
                                                 std::size_t regions) {
  const std::size_t tiles = tile_weights.size();
  DYN_CHECK(regions >= 1 && regions <= tiles);
  std::vector<std::uint32_t> owner(tiles, 0);
  double total = 0;
  for (const double w : tile_weights) total += w;
  double cum = 0;
  std::size_t r = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    owner[t] = static_cast<std::uint32_t>(r);
    cum += tile_weights[t];
    if (r + 1 == regions) continue;
    const std::size_t tiles_left = tiles - t - 1;
    const std::size_t regions_left = regions - r - 1;
    // Advance at the cumulative-weight quantile; forced when exactly enough
    // tiles remain to give every later region one.
    if (tiles_left == regions_left ||
        cum >= total * static_cast<double>(r + 1) / static_cast<double>(regions)) {
      ++r;
    }
  }
  return owner;
}

ShardedGameResult run_sharded_game_experiment(const GameExperimentConfig& config,
                                              const ShardOptions& options) {
  DYN_CHECK(options.shards >= 1);
  DYN_CHECK(options.shards == 1 || config.game.cohort.enabled);

  auto tile_owner = std::make_shared<const std::vector<std::uint32_t>>(
      options.shards > 1
          ? band_shard_assignment(stationary_tile_weights(config.game), options.shards)
          : std::vector<std::uint32_t>{});

  sim::ShardedEngineConfig engine_config;
  engine_config.shards = options.shards;
  engine_config.lookahead = kInterRegionDelay;
  sim::ShardedEngine engine(engine_config);

  engine.build([&](std::size_t region) -> std::unique_ptr<sim::Shard> {
    GameExperimentConfig shard_config = config;
    if (options.shards > 1) {
      // Differentiated per-region streams; K = 1 keeps config.seed verbatim
      // (byte-identity with run_game_experiment).
      shard_config.seed = hash_combine(config.seed, mix64(region + 1));
      shard_config.game.region.region = static_cast<std::uint32_t>(region);
      shard_config.game.region.regions = static_cast<std::uint32_t>(options.shards);
      shard_config.game.region.tile_owner = *tile_owner;
      shard_config.dynamoth.max_servers =
          fleet_share(config.dynamoth.max_servers, region, options.shards);
    }
    return std::make_unique<GameShard>(shard_config, &engine, region, options, tile_owner);
  });

  engine.run_until(config.duration);

  ShardedGameResult out;
  out.per_shard.resize(options.shards);
  for (std::size_t i = 0; i < options.shards; ++i) {
    engine.visit(i, [&out, i](sim::Shard& s) {
      out.per_shard[i] = static_cast<GameShard&>(s).finish();
    });
  }
  out.engine = engine.stats();
  out.merged = merge_results(out.per_shard, config);
  return out;
}

}  // namespace dynamoth::mammoth::exp
