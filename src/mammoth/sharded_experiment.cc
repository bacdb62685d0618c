#include "mammoth/sharded_experiment.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "net/network.h"

namespace dynamoth::mammoth::exp {

namespace {

// Boundary-event wire format (sim::BoundaryEvent is a POD mailbox record):
//   kMigration: a = destination tile, b = member count
constexpr std::uint32_t kMigration = 1;

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
            std::shared_ptr<const std::vector<std::uint32_t>> tile_owner)
      : run_(config), engine_(engine), region_(region), tile_owner_(std::move(tile_owner)) {
    if (engine_->shard_count() <= 1) return;  // classic mode: no gateway at all
    gateway_ = run_.cluster().network().add_node(
        {net::NodeKind::kInfrastructure, kGatewayEgress});
    run_.game().set_migration_sink(
        [this](std::size_t tile, std::uint32_t count) { emigrate(tile, count); });
  }

  sim::Simulator& simulator() override { return run_.sim(); }

  void on_boundary(std::size_t /*src*/, const sim::BoundaryEvent& ev) override {
    DYN_CHECK(ev.type == kMigration);
    const auto tile = static_cast<std::size_t>(ev.a);
    const auto count = static_cast<std::uint32_t>(ev.b);
    run_.sim().schedule_at(ev.at, [this, tile, count] { run_.game().add_members(tile, count); });
  }

  [[nodiscard]] GameExperimentResult finish() { return run_.finish(); }

 private:
  /// A member's aggregate walk crossed a region border: ship it over the
  /// gateway. Runs inside the shard's epoch run phase (a migrate() tick).
  void emigrate(std::size_t tile, std::uint32_t count) {
    const SimTime depart =
        run_.cluster().network().occupy_egress(gateway_, kMigrationMsgBytes, count);
    engine_->post(region_, (*tile_owner_)[tile],
                  {depart + kInterRegionDelay, kMigration, static_cast<std::uint32_t>(tile),
                   count});
  }

  GameExperimentRun run_;
  sim::ShardedEngine* engine_;
  std::size_t region_;
  std::shared_ptr<const std::vector<std::uint32_t>> tile_owner_;
  NodeId gateway_ = 0;
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
    return std::make_unique<GameShard>(shard_config, &engine, region, tile_owner);
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
