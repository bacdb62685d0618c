#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <sstream>
#include <unordered_map>

#include "common/rng.h"
#include "core/load_balancer.h"
#include "harness/cluster.h"
#include "mammoth/experiments.h"
#include "mammoth/sharded_experiment.h"
#include "stats.h"

namespace perfbench {

using namespace dynamoth;
namespace exp = mammoth::exp;

namespace {

// ---------------------------------------------------------------------------
// Per-layer counter readers (traced run only).

/// Colocated observer on one pub/sub server: counts what the server
/// processes. Observers never cross the NIC and draw no randomness, so
/// attaching one leaves the simulation untouched (the traced run checks
/// its fingerprint against the untraced run's).
class ServerTap : public ps::LocalObserver {
 public:
  void on_publish(const ps::EnvelopePtr&, std::size_t subscriber_count,
                  std::uint32_t) override {
    ++publications;
    deliveries += subscriber_count;
  }
  void on_subscribe(ps::ConnId, const Channel&, NodeId) override {}
  void on_unsubscribe(ps::ConnId, const Channel&, NodeId) override {}
  void on_disconnect(ps::ConnId, const std::vector<Channel>&, const std::vector<std::string>&,
                     ps::CloseReason reason) override {
    if (reason == ps::CloseReason::kOutputBufferOverflow) ++overflows;
  }

  std::uint64_t publications = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t overflows = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Reads the pubsub, net, dispatcher, LLA and balancer counters of one
/// Cluster. Servers spawned mid-run are tapped at the first sample after
/// they register (at most one chunk late). Must outlive the cluster: the
/// servers keep raw pointers to the taps.
class ClusterProbe {
 public:
  void sample(harness::Cluster& cluster) {
    const SimTime now = cluster.sim().now();
    std::size_t conns = 0;
    for (const ServerId id : cluster.server_ids()) {
      ps::PubSubServer& server = cluster.server(id);
      auto [it, fresh] = servers_.try_emplace(id);
      Tracked& t = it->second;
      if (fresh) {
        server.add_observer(&t.tap);
        t.cpu = server.cpu_time_executed();
        t.at = now;
      }
      const SimTime cpu = server.cpu_time_executed();
      busy_ += cpu - t.cpu;
      alive_ += now - t.at;
      t.cpu = cpu;
      t.at = now;
      backlog_max_ = std::max(backlog_max_, server.cpu_backlog());
      conns += server.connection_count();
      const double lr = cluster.lla(id).last_load_ratio();
      lr_max_ = std::max(lr_max_, lr);
      lr_sum_ += lr;
      ++lr_n_;
    }
    conns_peak_ = std::max(conns_peak_, conns);
    net::Network& net = cluster.network();
    for (NodeId n = 0; n < net.node_count(); ++n) {
      if (net.kind(n) == net::NodeKind::kInfrastructure) {
        egress_backlog_max_ = std::max(egress_backlog_max_, net.egress_backlog(n));
      }
    }
  }

  void add(Counters& c, harness::Cluster& cluster) const {
    std::uint64_t pubs = 0, deliveries = 0, overflows = 0;
    std::uint64_t forwards = 0, switches = 0, plans_applied = 0;
    for (const auto& [id, t] : servers_) {
      pubs += t.tap.publications;
      deliveries += t.tap.deliveries;
      overflows += t.tap.overflows;
      const core::Dispatcher::Stats& d = cluster.dispatcher(id).stats();
      forwards += d.forwards_to_owner + d.forwards_to_drain;
      switches += d.switches_sent;
      plans_applied += d.plans_applied;
    }
    c.emplace_back("pubsub.deliveries", static_cast<double>(deliveries));
    c.emplace_back("pubsub.fanout_mean", ratio(static_cast<double>(deliveries), static_cast<double>(pubs)));
    c.emplace_back("pubsub.cpu_busy_frac", ratio(static_cast<double>(busy_), static_cast<double>(alive_)));
    c.emplace_back("pubsub.cpu_backlog_max_ms", to_millis(backlog_max_));
    c.emplace_back("pubsub.conn_overflows", static_cast<double>(overflows));
    c.emplace_back("pubsub.connections_peak", static_cast<double>(conns_peak_));

    net::Network& net = cluster.network();
    std::uint64_t dropped = 0;
    for (NodeId n = 0; n < net.node_count(); ++n) dropped += net.counters(n).messages_dropped;
    const auto infra_msgs = static_cast<double>(net.total_infrastructure_messages());
    c.emplace_back("net.infra_msgs", infra_msgs);
    c.emplace_back("net.infra_bytes", static_cast<double>(cluster.infrastructure_egress_bytes()));
    c.emplace_back("net.dropped_msgs", static_cast<double>(dropped));
    c.emplace_back("net.coalesced_frac", ratio(static_cast<double>(net.coalesced_deliveries()), infra_msgs));
    c.emplace_back("net.egress_backlog_max_ms", to_millis(egress_backlog_max_));

    c.emplace_back("dispatcher.forwards", static_cast<double>(forwards));
    c.emplace_back("dispatcher.forward_frac", ratio(static_cast<double>(forwards), static_cast<double>(pubs)));
    c.emplace_back("dispatcher.switches_sent", static_cast<double>(switches));
    c.emplace_back("dispatcher.plans_applied", static_cast<double>(plans_applied));

    c.emplace_back("lla.lr_max", lr_max_);
    c.emplace_back("lla.lr_mean", ratio(lr_sum_, static_cast<double>(lr_n_)));

    core::DynamothLoadBalancer::Stats lb;
    if (auto* dyn = dynamic_cast<core::DynamothLoadBalancer*>(cluster.balancer())) lb = dyn->stats();
    const std::uint64_t control_bytes = cluster.balancer_node() != kInvalidNode
                                            ? net.counters(cluster.balancer_node()).bytes_sent
                                            : 0;
    c.emplace_back("balancer.plans", static_cast<double>(lb.plans_generated));
    c.emplace_back("balancer.channels_migrated", static_cast<double>(lb.channels_migrated));
    c.emplace_back("balancer.moves_per_plan",
                   ratio(static_cast<double>(lb.channels_migrated), static_cast<double>(lb.plans_generated)));
    c.emplace_back("balancer.replications", static_cast<double>(lb.replications_started));
    c.emplace_back("balancer.servers_spawned", static_cast<double>(lb.servers_spawned));
    c.emplace_back("balancer.servers_released", static_cast<double>(lb.servers_released));
    c.emplace_back("balancer.control_bytes", static_cast<double>(control_bytes));
  }

 private:
  struct Tracked {
    ServerTap tap;
    SimTime cpu = 0;  // cpu_time_executed at the last sample
    SimTime at = 0;   // sim time of the last sample
  };
  std::map<ServerId, Tracked> servers_;  // every server ever seen; node-stable
  SimTime busy_ = 0, alive_ = 0, backlog_max_ = 0, egress_backlog_max_ = 0;
  std::size_t conns_peak_ = 0;
  double lr_max_ = 0, lr_sum_ = 0;
  std::uint64_t lr_n_ = 0;
};

/// Sums the client-library counters over `clients`.
void add_client_counters(Counters& c, const std::vector<const core::DynamothClient*>& clients,
                         double publish_us, double subscribe_us) {
  core::DynamothClient::Stats s;
  for (const core::DynamothClient* client : clients) {
    const auto& x = client->stats();
    s.published += x.published;
    s.messages_sent += x.messages_sent;
    s.received += x.received;
    s.duplicates_suppressed += x.duplicates_suppressed;
    s.stale_drops += x.stale_drops;
    s.wrong_server_replies += x.wrong_server_replies;
    s.switches_followed += x.switches_followed;
    s.entries_expired += x.entries_expired;
    s.fallback_resubscribes += x.fallback_resubscribes;
  }
  c.emplace_back("client.publish_us", publish_us);
  c.emplace_back("client.subscribe_us", subscribe_us);
  c.emplace_back("client.published", static_cast<double>(s.published));
  c.emplace_back("client.wire_per_publish",
                 ratio(static_cast<double>(s.messages_sent), static_cast<double>(s.published)));
  c.emplace_back("client.received", static_cast<double>(s.received));
  c.emplace_back("client.dup_frac",
                 ratio(static_cast<double>(s.duplicates_suppressed),
                       static_cast<double>(s.received + s.duplicates_suppressed)));
  c.emplace_back("client.stale_drops", static_cast<double>(s.stale_drops));
  c.emplace_back("client.wrong_server_replies", static_cast<double>(s.wrong_server_replies));
  c.emplace_back("client.switches_followed", static_cast<double>(s.switches_followed));
  c.emplace_back("client.entries_expired", static_cast<double>(s.entries_expired));
  c.emplace_back("client.fallback_resubscribes", static_cast<double>(s.fallback_resubscribes));
}

void add_sim_counters(Counters& c, std::uint64_t events, double host_run_s,
                      std::size_t pending_peak) {
  c.emplace_back("sim.events", static_cast<double>(events));
  c.emplace_back("sim.events_per_s", ratio(static_cast<double>(events), host_run_s));
  c.emplace_back("sim.run_until_s", host_run_s);
  c.emplace_back("sim.pending_peak", static_cast<double>(pending_peak));
}

void add_shard_counters(Counters& c, std::uint64_t epochs, std::uint64_t boundary_events,
                        std::uint64_t events) {
  c.emplace_back("shard.epochs", static_cast<double>(epochs));
  c.emplace_back("shard.boundary_events", static_cast<double>(boundary_events));
  c.emplace_back("shard.events_per_epoch",
                 ratio(static_cast<double>(events), static_cast<double>(epochs)));
}

/// Capacity of a game run: the population at which the response-time curve
/// reaches kSloMs. Each 10 s window mean is averaged with its neighbours
/// (30 s), the largest sampled population whose smoothed mean is within the
/// bound is taken, and when the next sample exceeds the bound the crossing
/// is interpolated linearly between the two. On a slow ramp the raw window
/// means hover within a few ms of the bound over several samples, so the
/// plain "largest population with a window <= 150 ms" jumps between 10 s
/// samples (250 users apart at 10^4 users) from seed to seed.
double players_at_bound(const metrics::Series& series) {
  const std::size_t players = series.column_index("players");
  const std::size_t rt = series.column_index("rt_ms");
  const std::size_t n = series.rows();
  std::vector<double> smooth(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0;
    int count = 0;
    for (std::size_t j = i > 0 ? i - 1 : 0; j <= std::min(i + 1, n - 1); ++j) {
      if (series.value(j, rt) > 0) {  // 0 = no response-time sample yet
        sum += series.value(j, rt);
        ++count;
      }
    }
    smooth[i] = count > 0 ? sum / count : 0;
  }
  double best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = series.value(i, players);
    if (smooth[i] <= 0 || smooth[i] > kSloMs || p <= best) continue;
    best = p;
    if (i + 1 < n && smooth[i + 1] > kSloMs && series.value(i + 1, players) > p) {
      best += (series.value(i + 1, players) - p) * (kSloMs - smooth[i]) / (smooth[i + 1] - smooth[i]);
    }
  }
  return best;
}

/// Modeled metrics of a game run: echoes against publications.
///  - expected = publications (Player::updates_published, or
///    CohortStats::publications in cohort mode);
///  - echoes = response-time samples (one per own update heard back);
///  - lost = expected - echoes: updates whose echo never arrived, including
///    those still in flight when the run ends and those of players who left;
///  - late = echoes slower than kSloMs; slo_miss = (late + lost) / expected.
Outcome game_outcome(const exp::GameExperimentResult& r, double updates_per_sec) {
  Outcome o;
  o.fingerprint = {r.executed_events, r.rng_draws};
  const HistogramCdf cdf(r.rtt_us);
  o.rt_p50_ms = cdf.quantile(0.50) / 1000.0;
  o.rt_p90_ms = cdf.quantile(0.90) / 1000.0;
  o.rt_p99_ms = cdf.quantile(0.99) / 1000.0;
  o.expected = r.total_updates;
  o.publications = r.total_updates;
  const std::uint64_t echoes = cdf.count();
  if (echoes > o.expected) {
    o.failures.push_back("more echoes (" + std::to_string(echoes) + ") than publications (" +
                         std::to_string(o.expected) + ")");
  }
  const double lost = static_cast<double>(o.expected) - static_cast<double>(echoes);
  o.lost_frac = ratio(lost, static_cast<double>(o.expected));
  o.slo_miss_frac = ratio(lost + cdf.count_above(kSloMs * 1000.0), static_cast<double>(o.expected));
  o.players_ok = players_at_bound(r.series);
  o.rate_ok_per_s = o.players_ok * updates_per_sec;
  o.server_hours = r.server_hours;
  return o;
}

// ---------------------------------------------------------------------------
// Game workloads (elastic, cohort_ramp): one GameExperimentRun.

class GameRun : public Run {
 public:
  GameRun(const exp::GameExperimentConfig& config, bool keep_series)
      : keep_series_(keep_series), run_(std::make_unique<exp::GameExperimentRun>(config)) {}

  SimTime duration() const override { return run_->config().duration; }
  SimTime chunk() const override { return seconds(5); }
  void run_until(SimTime t) override { run_->run_until(t); }

  Counters counters(double host_run_s) override {
    harness::Cluster& cluster = run_->cluster();
    mammoth::Game& game = run_->game();
    probe_.sample(cluster);
    pending_peak_ = std::max(pending_peak_, cluster.sim().pending_events());

    Counters c;
    add_sim_counters(c, cluster.sim().executed_events(), host_run_s, pending_peak_);
    std::vector<const core::DynamothClient*> clients;
    std::uint64_t member_deliveries = 0, delivery_events = 0;
    if (game.cohort_mode()) {
      const auto tiles = static_cast<std::size_t>(run_->config().game.tiles_per_side) *
                         static_cast<std::size_t>(run_->config().game.tiles_per_side);
      for (std::size_t i = 0; i < tiles; ++i) {
        if (cohort::Cohort* co = game.tile_cohort(i)) {
          clients.push_back(&co->client());
          member_deliveries += co->stats().member_deliveries;
          delivery_events += co->stats().delivery_events;
        }
      }
    } else {
      for (std::size_t i = 0; i < game.total_players_created(); ++i) {
        clients.push_back(&game.player(i).client());
      }
    }
    add_client_counters(c, clients, 0, 0);
    probe_.add(c, cluster);
    c.emplace_back("cohort.member_deliveries", static_cast<double>(member_deliveries));
    c.emplace_back("cohort.deliveries_per_event",
                   ratio(static_cast<double>(member_deliveries), static_cast<double>(delivery_events)));
    c.emplace_back("mammoth.tile_crossings", static_cast<double>(game.total_tile_crossings()));
    return c;
  }

  Outcome finish() override {
    const exp::GameExperimentResult r = run_->finish();
    Outcome o = game_outcome(r, run_->config().game.player.updates_per_sec);
    if (keep_series_) {
      std::ostringstream os;
      r.series.print_csv(os);
      o.series_csv = os.str();
    }
    return o;
  }

 private:
  bool keep_series_;
  ClusterProbe probe_;  // declared before run_: the taps outlive the servers
  std::unique_ptr<exp::GameExperimentRun> run_;
  std::size_t pending_peak_ = 0;
};

exp::GameExperimentConfig fig7_config(std::uint64_t seed, bool tiny) {
  // bench/fig7_elasticity.cc's configuration (paper Experiment 3, Fig 7).
  exp::GameExperimentConfig config = exp::default_game_experiment();
  config.seed = seed;
  config.balancer = exp::BalancerKind::kDynamoth;
  config.schedule = {{seconds(0), 50},    {seconds(240), 800}, {seconds(300), 800},
                     {seconds(330), 200}, {seconds(420), 200}, {seconds(540), 580},
                     {seconds(630), 580}};
  config.duration = seconds(630);
  config.sample_interval = seconds(10);
  config.record_metrics_windows = true;
  if (tiny) {
    for (exp::PopulationPoint& p : config.schedule) {
      p.at /= 10;
      p.players /= 10;
    }
    config.duration /= 10;
  }
  return config;
}

std::unique_ptr<Run> make_elastic(std::uint64_t seed, bool tiny, Tracer*) {
  return std::make_unique<GameRun>(fig7_config(seed, tiny), false);
}

exp::GameExperimentConfig ramp_config(std::uint64_t seed, bool tiny) {
  // bench/fig5_scalability.cc's ramp (10% -> 100% of the target), in cohort
  // mode at 10^4 modeled users: 144 weighted tile clients.
  exp::GameExperimentConfig config = exp::default_game_experiment();
  config.seed = seed;
  config.balancer = exp::BalancerKind::kDynamoth;
  config.schedule = {{seconds(0), 120}, {seconds(60), 120}, {seconds(420), 1200}};
  config.duration = seconds(480);
  config.sample_interval = seconds(10);
  if (tiny) {
    config.schedule = {{seconds(0), 120}, {seconds(10), 120}, {seconds(50), 1200}};
    config.duration = seconds(60);
  }
  exp::scale_population(config, (tiny ? 1000.0 : 10000.0) / 1200.0);
  return config;
}

std::unique_ptr<Run> make_cohort_ramp(std::uint64_t seed, bool tiny, Tracer*) {
  return std::make_unique<GameRun>(ramp_config(seed, tiny), false);
}

// ---------------------------------------------------------------------------
// sharded_ramp: cohort_ramp under two block-parallel regions. The sharded
// driver is one call with no stepping API, so the run cannot be chunked:
// set-up is a zero-length run, and the timed run includes its own build.

class ShardedRun : public Run {
 public:
  explicit ShardedRun(const exp::GameExperimentConfig& config) : config_(config) {
    options_.shards = 2;
  }

  SimTime duration() const override { return config_.duration; }
  SimTime chunk() const override { return 0; }
  void run_until(SimTime t) override {
    exp::GameExperimentConfig config = config_;
    config.duration = t;
    result_ = exp::run_sharded_game_experiment(config, options_);
  }

  Counters counters(double host_run_s) override {
    Counters c;
    const exp::GameExperimentResult& m = result_.merged;
    add_sim_counters(c, m.executed_events, host_run_s, 0);
    add_shard_counters(c, result_.engine.epochs, result_.engine.boundary_events,
                       m.executed_events);
    // The shards' clusters live inside the sharded driver; only the merged
    // result is visible, so the other layers are not reported here.
    return c;
  }

  Outcome finish() override {
    return game_outcome(result_.merged, config_.game.player.updates_per_sec);
  }

 private:
  exp::GameExperimentConfig config_;
  exp::ShardOptions options_;
  exp::ShardedGameResult result_;
};


std::unique_ptr<Run> make_sharded_ramp(std::uint64_t seed, bool tiny, Tracer*) {
  exp::GameExperimentConfig config = ramp_config(seed, tiny);
  config.game.cohort.enabled = true;
  return std::make_unique<ShardedRun>(config);
}

// ---------------------------------------------------------------------------
// hot_channel: the paper's Experiment 1 shape with the benchmark as the
// application. On a fixed 3-server cluster under the Dynamoth balancer:
//  - "hot:fanout": hundreds of subscribers, few publishers (Algorithm 1
//    replicates it all-publishers);
//  - "hot:fanin": hundreds of publishers, one subscriber (replicated
//    all-subscribers).
// Load is an open loop: after a warm-up, every step adds publishers to both
// channels at fixed per-publisher rates, so each step offers a higher
// publication rate on a sim-time schedule that never waits for replies.
// The first steps add a whole load level each; past them, steps add a
// fraction of a level, so the capacity knee is resolved finely. Some
// fan-out subscribers leave and rejoin throughout.

struct HotShape {
  std::size_t stable_subs;          // fan-out subscribers that never leave
  std::size_t churn_subs;           // fan-out subscribers that leave and rejoin
  std::size_t fanout_pubs_per_step; // publishers added to hot:fanout per step
  std::size_t fanin_pubs_per_step;  // publishers added to hot:fanin per step
  double fanout_rate;               // publications/s per fan-out publisher
  double fanin_rate;                // publications/s per fan-in publisher
  std::size_t fanout_bytes;
  std::size_t fanin_bytes;
  std::size_t coarse_steps;         // steps at load levels 1, 2, ... (warm-up runs level 1)
  std::size_t fine_steps;           // then steps of fine_level each
  double fine_level;
  SimTime warmup;
  SimTime step;

  [[nodiscard]] std::size_t steps() const { return coarse_steps + fine_steps; }
  /// Load level of step k (1-based): publishers = level x *_pubs_per_step.
  [[nodiscard]] double level(std::size_t k) const {
    return k <= coarse_steps ? static_cast<double>(k)
                             : static_cast<double>(coarse_steps) +
                                   static_cast<double>(k - coarse_steps) * fine_level;
  }
  [[nodiscard]] static std::size_t publishers(std::size_t per_step, double level) {
    return static_cast<std::size_t>(std::llround(static_cast<double>(per_step) * level));
  }
};

/// p99 limit of a step for rate_ok_per_s (publish -> delivery).
inline constexpr double kHotP99LimitMs = 400.0;
/// Latency percentiles are taken at fixed rates: the lowest steps, well
/// below capacity (the overloaded steps show in rate_ok_per_s instead).
inline constexpr std::size_t kReferenceSteps = 4;
/// A subscriber counts as expected for a step's publications only if it was
/// subscribed from kSettle before the step until kDrain after it.
inline constexpr SimTime kSettle = seconds(3);
inline constexpr SimTime kDrain = seconds(5);

class HotChannelRun : public Run {
 public:
  HotChannelRun(const HotShape& shape, std::uint64_t seed, Tracer* tracer)
      : shape_(shape),
        tracer_(tracer),
        rng_draws_start_(Rng::total_draws()),
        cluster_(cluster_config(seed)),
        gen_(seed) {
    core::DynamothLoadBalancer::Config lb;
    lb.t_wait = seconds(5);
    lb.min_servers = 3;
    lb.max_servers = 3;
    // Algorithm 1 thresholds sized to this population: both channels
    // replicate over the whole fleet from the warm-up on.
    lb.all_subs_threshold = 50;
    lb.publication_threshold = 100;
    lb.all_pubs_threshold = 1.5;
    lb.subscriber_threshold = 100;
    cluster_.use_dynamoth(lb);

    pub_end_ = shape_.warmup + static_cast<SimTime>(shape_.steps()) * shape_.step;
    const std::size_t subs = shape_.stable_subs + shape_.churn_subs;
    words_ = (subs + 63) / 64;
    expected_.assign((subs + 1) * (shape_.steps() + 1), false);
    steps_.resize(shape_.steps() + 1);

    // Subscribers: the fan-out population (index < subs) and the fan-in
    // sink (index subs). Churners get a seeded leave/rejoin plan.
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    for (std::size_t s = 0; s <= subs; ++s) {
      Sub sub;
      sub.client = &cluster_.add_client();
      sub.channel = s < subs ? kFanout : kFanin;
      if (s >= shape_.stable_subs && s < subs) {
        SimTime t = shape_.warmup + seconds(8 * u01(gen_));
        while (t < pub_end_) {
          const SimTime back = t + seconds(1 + 3 * u01(gen_));
          sub.gaps.emplace_back(t, back);
          t = back + seconds(6 + 8 * u01(gen_));
        }
      }
      for (std::size_t k = 1; k <= shape_.steps(); ++k) {
        const SimTime from = step_start(k) - kSettle, to = step_start(k) + shape_.step + kDrain;
        bool whole = true;
        for (const auto& [leave, back] : sub.gaps) whole = whole && (back <= from || leave >= to);
        expected_[s * (shape_.steps() + 1) + k] = whole;
      }
      subs_.push_back(std::move(sub));
    }
    fanout_expected_.assign(shape_.steps() + 1, 0);
    for (std::size_t s = 0; s < subs; ++s) {
      for (std::size_t k = 1; k <= shape_.steps(); ++k) {
        fanout_expected_[k] += expected_[s * (shape_.steps() + 1) + k] ? 1 : 0;
      }
    }
    for (std::size_t s = 0; s <= subs; ++s) {
      subscribe(s);
      for (const auto& [leave, back] : subs_[s].gaps) {
        cluster_.sim().schedule_at(leave, [this, s] { unsubscribe(s); });
        cluster_.sim().schedule_at(back, [this, s] { subscribe(s); });
      }
    }

    // Publishers: publisher i of a channel joins at the step whose load
    // first includes it and publishes every 1/rate from a seeded phase.
    add_publishers(kFanout, shape_.fanout_pubs_per_step, shape_.fanout_rate, shape_.fanout_bytes);
    add_publishers(kFanin, shape_.fanin_pubs_per_step, shape_.fanin_rate, shape_.fanin_bytes);
  }

  SimTime duration() const override { return pub_end_ + seconds(8); }
  SimTime chunk() const override { return seconds(1); }
  void run_until(SimTime t) override { cluster_.sim().run_until(t); }

  Counters counters(double host_run_s) override {
    probe_.sample(cluster_);
    pending_peak_ = std::max(pending_peak_, cluster_.sim().pending_events());
    Counters c;
    add_sim_counters(c, cluster_.sim().executed_events(), host_run_s, pending_peak_);
    std::vector<const core::DynamothClient*> clients;
    for (const Sub& s : subs_) clients.push_back(s.client);
    for (const Publisher& p : pubs_) clients.push_back(p.client);
    double publish_us = 0, subscribe_us = 0;
    if (tracer_ != nullptr) {
      const auto [pub_s, pub_n] = tracer_->total("client.publish");
      const auto [sub_s, sub_n] = tracer_->total("client.subscribe");
      const auto [unsub_s, unsub_n] = tracer_->total("client.unsubscribe");
      publish_us = 1e6 * ratio(pub_s, static_cast<double>(pub_n));
      subscribe_us = 1e6 * ratio(sub_s + unsub_s, static_cast<double>(sub_n + unsub_n));
    }
    add_client_counters(c, clients, publish_us, subscribe_us);
    probe_.add(c, cluster_);
    return c;
  }

  Outcome finish() override {
    Outcome o;
    o.fingerprint = {cluster_.sim().executed_events(), Rng::total_draws() - rng_draws_start_};
    o.publications = records_.size();
    o.failures = std::move(failures_);
    if (failure_count_ > o.failures.size()) {
      o.failures.push_back(std::to_string(failure_count_ - o.failures.size()) + " more");
    }

    std::vector<double> reference;
    double late = 0, lost = 0;
    const std::size_t n = shape_.steps();
    std::vector<double> pubs(n + 1, 0), rate(n + 1, 0), p99(n + 1, 0);
    std::vector<bool> ok(n + 1, false);
    std::ostringstream detail;
    detail << "step,publishers,rate_per_s,expected,lost,mean_ms,p99_ms\n";
    for (std::size_t k = 1; k <= n; ++k) {
      Step& st = steps_[k];
      const double step_lost = static_cast<double>(st.expected - st.received);
      double sum = 0;
      for (const double ms : st.latency_ms) {
        sum += ms;
        if (ms > kSloMs) ++late;
      }
      const double mean = ratio(sum, static_cast<double>(st.latency_ms.size()));
      if (k <= kReferenceSteps) {
        reference.insert(reference.end(), st.latency_ms.begin(), st.latency_ms.end());
      }
      // A step without a single delivery has no finite p99.
      p99[k] = st.latency_ms.empty() ? HUGE_VAL : quantile(st.latency_ms, 0.99);
      const std::size_t fanout = HotShape::publishers(shape_.fanout_pubs_per_step, shape_.level(k));
      const std::size_t fanin = HotShape::publishers(shape_.fanin_pubs_per_step, shape_.level(k));
      pubs[k] = static_cast<double>(fanout + fanin);
      rate[k] = static_cast<double>(fanout) * shape_.fanout_rate +
                static_cast<double>(fanin) * shape_.fanin_rate;
      ok[k] = p99[k] <= kHotP99LimitMs && step_lost == 0;
      o.expected += st.expected;
      lost += step_lost;
      detail << k << ',' << pubs[k] << ',' << rate[k] << ',' << st.expected << ',' << step_lost
             << ',' << mean << ',' << p99[k] << '\n';
    }
    // Capacity, counted in publishers (players_ok) and in offered
    // publications/s (rate_ok_per_s): the highest step within the p99 limit
    // and without loss, plus the share of the way to the next step at which
    // the p99 crosses the limit, interpolated linearly between the two
    // steps. A next step that failed on loss alone counts the whole way.
    for (std::size_t k = 1; k <= n; ++k) {
      if (!ok[k]) continue;
      double f = 0;
      if (k < n && !ok[k + 1]) {
        f = p99[k + 1] <= kHotP99LimitMs ? 1.0 : (kHotP99LimitMs - p99[k]) / (p99[k + 1] - p99[k]);
      }
      const std::size_t next = std::min(k + 1, n);
      o.players_ok = std::max(o.players_ok, pubs[k] + f * (pubs[next] - pubs[k]));
      o.rate_ok_per_s = std::max(o.rate_ok_per_s, rate[k] + f * (rate[next] - rate[k]));
    }
    o.rt_p50_ms = quantile(reference, 0.50);
    o.rt_p90_ms = quantile(reference, 0.90);
    o.rt_p99_ms = quantile(reference, 0.99);
    o.lost_frac = ratio(lost, static_cast<double>(o.expected));
    o.slo_miss_frac = ratio(late + lost, static_cast<double>(o.expected));
    // The fleet is fixed, so the cost of the workload is the rent until its
    // last delivery arrived (queues left by the overloaded steps included).
    o.server_hours = cluster_.cloud().server_hours(last_delivery_);
    o.detail = detail.str();
    return o;
  }

 private:
  enum ChannelIdx : std::uint8_t { kFanout = 0, kFanin = 1 };
  static inline const Channel kChannels[2] = {"hot:fanout", "hot:fanin"};

  struct Sub {
    core::DynamothClient* client = nullptr;
    ChannelIdx channel = kFanout;
    bool subscribed = false;
    std::uint32_t generation = 0;
    std::vector<std::pair<SimTime, SimTime>> gaps;  // planned [leave, rejoin)
  };
  struct Publisher {
    core::DynamothClient* client = nullptr;
    ChannelIdx channel = kFanout;
    SimTime period = 0;
    std::size_t bytes = 0;
  };
  struct Record {
    SimTime at;           // scheduled instant (open loop)
    std::uint32_t step;   // 0 = warm-up
    ChannelIdx channel;
    std::size_t seen;     // offset of the per-subscriber seen bits
  };
  struct Step {
    std::uint64_t expected = 0;
    std::uint64_t received = 0;
    std::vector<double> latency_ms;
  };

  static harness::ClusterConfig cluster_config(std::uint64_t seed) {
    harness::ClusterConfig config;
    config.seed = seed;
    config.initial_servers = 3;
    return config;
  }

  SimTime step_start(std::size_t k) const {
    return shape_.warmup + static_cast<SimTime>(k - 1) * shape_.step;
  }
  std::uint32_t step_of(SimTime t) const {
    return t < shape_.warmup ? 0 : static_cast<std::uint32_t>(1 + (t - shape_.warmup) / shape_.step);
  }

  void fail(std::string what) {
    if (failure_count_++ < 10) failures_.push_back(std::move(what));
  }

  void subscribe(std::size_t s) {
    Sub& sub = subs_[s];
    sub.subscribed = true;
    const std::uint32_t generation = ++sub.generation;
    Tracer::Span span(tracer_, "client.subscribe");
    sub.client->subscribe(kChannels[sub.channel], [this, s, generation](const ps::EnvelopePtr& env) {
      deliver(s, generation, env);
    });
  }

  void unsubscribe(std::size_t s) {
    Sub& sub = subs_[s];
    sub.subscribed = false;
    Tracer::Span span(tracer_, "client.unsubscribe");
    sub.client->unsubscribe(kChannels[sub.channel]);
  }

  void add_publishers(ChannelIdx channel, std::size_t per_step, double rate, std::size_t bytes) {
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    const SimTime period = seconds(1.0 / rate);
    std::size_t active = 0;
    for (std::size_t k = 1; k <= shape_.steps(); ++k) {
      const SimTime start = k == 1 ? 0 : step_start(k);
      for (; active < HotShape::publishers(per_step, shape_.level(k)); ++active) {
        const std::size_t p = pubs_.size();
        pubs_.push_back({&cluster_.add_client(), channel, period, bytes});
        const SimTime first = start + static_cast<SimTime>(u01(gen_) * static_cast<double>(period));
        cluster_.sim().schedule_at(first, [this, p] { publish(p); });
      }
    }
  }

  void publish(std::size_t p) {
    const Publisher& pub = pubs_[p];
    const SimTime now = cluster_.sim().now();
    const std::uint32_t step = step_of(now);
    const std::size_t seen = seen_.size();
    seen_.resize(seen + (pub.channel == kFanout ? words_ : 1), 0);
    if (step > 0) steps_[step].expected += pub.channel == kFanout ? fanout_expected_[step] : 1;
    ps::EnvelopePtr env;
    {
      Tracer::Span span(tracer_, "client.publish");
      env = pub.client->publish(kChannels[pub.channel], pub.bytes);
    }
    index_.emplace(env->id, static_cast<std::uint32_t>(records_.size()));
    records_.push_back({now, step, pub.channel, seen});
    // Open loop: the next publication is due one period after this one's
    // scheduled instant, whatever happened to this one.
    if (now + pub.period < pub_end_) {
      cluster_.sim().schedule_at(now + pub.period, [this, p] { publish(p); });
    }
  }

  void deliver(std::size_t s, std::uint32_t generation, const ps::EnvelopePtr& env) {
    const Sub& sub = subs_[s];
    if (!sub.subscribed || sub.generation != generation) {
      fail("subscriber " + std::to_string(s) + " got a delivery after unsubscribe");
      return;
    }
    const auto it = index_.find(env->id);
    if (it == index_.end()) {
      fail("subscriber " + std::to_string(s) + " got an unknown message");
      return;
    }
    const Record& r = records_[it->second];
    if (r.channel != sub.channel) {
      fail("subscriber " + std::to_string(s) + " got a message of another channel");
      return;
    }
    const std::size_t bit = sub.channel == kFanout ? s : 0;
    std::uint64_t& word = seen_[r.seen + bit / 64];
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    if ((word & mask) != 0) {
      fail("subscriber " + std::to_string(s) + " got a message twice");
      return;
    }
    word |= mask;
    last_delivery_ = cluster_.sim().now();
    if (r.step > 0 && expected_[s * (shape_.steps() + 1) + r.step]) {
      Step& st = steps_[r.step];
      ++st.received;
      st.latency_ms.push_back(to_millis(cluster_.sim().now() - r.at));
    }
  }

  HotShape shape_;
  Tracer* tracer_;
  std::uint64_t rng_draws_start_;
  ClusterProbe probe_;  // declared before cluster_: the taps outlive the servers
  harness::Cluster cluster_;
  std::mt19937_64 gen_;  // the benchmark's own input generator
  SimTime pub_end_ = 0;
  std::size_t words_ = 0;
  std::vector<Sub> subs_;
  std::vector<Publisher> pubs_;
  std::vector<bool> expected_;  // [subscriber][step]
  std::vector<std::uint64_t> fanout_expected_;  // expected fan-out receivers per step
  std::vector<Record> records_;
  std::unordered_map<MessageId, std::uint32_t> index_;
  std::vector<std::uint64_t> seen_;
  std::vector<Step> steps_;
  std::vector<std::string> failures_;
  std::size_t failure_count_ = 0;
  std::size_t pending_peak_ = 0;
  SimTime last_delivery_ = 0;
};

std::unique_ptr<Run> make_hot_channel(std::uint64_t seed, bool tiny, Tracer* tracer) {
  HotShape shape{.stable_subs = 240,
                 .churn_subs = 60,
                 .fanout_pubs_per_step = 4,
                 .fanin_pubs_per_step = 25,
                 .fanout_rate = 2.0,
                 .fanin_rate = 8.0,
                 .fanout_bytes = 128,
                 .fanin_bytes = 1024,
                 .coarse_steps = 4,
                 .fine_steps = 12,
                 .fine_level = 0.25,
                 .warmup = seconds(20),
                 .step = seconds(5)};
  if (tiny) {
    shape.stable_subs = 24;
    shape.churn_subs = 6;
    shape.fanin_pubs_per_step = 5;
    shape.coarse_steps = 2;
    shape.fine_steps = 2;
  }
  return std::make_unique<HotChannelRun>(shape, seed, tracer);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> list = {
      {"elastic", make_elastic},
      {"cohort_ramp", make_cohort_ramp},
      {"hot_channel", make_hot_channel},
      {"sharded_ramp", make_sharded_ramp},
  };
  return list;
}

std::unique_ptr<Run> make_fig7_run(std::uint64_t seed) {
  return std::make_unique<GameRun>(fig7_config(seed, false), true);
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> list = {
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.run_until_s", "s"},
      {"sim.pending_peak", "count"},
      {"shard.epochs", "count"},
      {"shard.boundary_events", "count"},
      {"shard.events_per_epoch", "count"},
      {"client.publish_us", "us"},
      {"client.subscribe_us", "us"},
      {"client.published", "count"},
      {"client.wire_per_publish", "ratio"},
      {"client.received", "count"},
      {"client.dup_frac", "ratio"},
      {"client.stale_drops", "count"},
      {"client.wrong_server_replies", "count"},
      {"client.switches_followed", "count"},
      {"client.entries_expired", "count"},
      {"client.fallback_resubscribes", "count"},
      {"pubsub.deliveries", "count"},
      {"pubsub.fanout_mean", "count"},
      {"pubsub.cpu_busy_frac", "ratio"},
      {"pubsub.cpu_backlog_max_ms", "ms"},
      {"pubsub.conn_overflows", "count"},
      {"pubsub.connections_peak", "count"},
      {"net.infra_msgs", "count"},
      {"net.infra_bytes", "bytes"},
      {"net.dropped_msgs", "count"},
      {"net.coalesced_frac", "ratio"},
      {"net.egress_backlog_max_ms", "ms"},
      {"dispatcher.forwards", "count"},
      {"dispatcher.forward_frac", "ratio"},
      {"dispatcher.switches_sent", "count"},
      {"dispatcher.plans_applied", "count"},
      {"lla.lr_max", "ratio"},
      {"lla.lr_mean", "ratio"},
      {"balancer.plans", "count"},
      {"balancer.channels_migrated", "count"},
      {"balancer.moves_per_plan", "count"},
      {"balancer.replications", "count"},
      {"balancer.servers_spawned", "count"},
      {"balancer.servers_released", "count"},
      {"balancer.control_bytes", "bytes"},
      {"cohort.member_deliveries", "count"},
      {"cohort.deliveries_per_event", "count"},
      {"mammoth.tile_crossings", "count"},
      {"model.rt_p90_ms", "ms"},
      {"model.rt_p99_ms", "ms"},
      {"model.lost_frac", "ratio"},
      {"model.slo_miss_frac", "ratio"},
      {"trace.overhead_s", "s"},
      {"trace.in_run_s", "s"},
  };
  return list;
}

std::string not_applicable(const std::string& workload, const std::string& metric) {
  const auto starts = [&](const char* prefix) { return metric.rfind(prefix, 0) == 0; };
  if (workload == "sharded_ramp" && !starts("sim.") && !starts("shard.") && !starts("trace.")) {
    return "the sharded driver exposes only its merged result, not the shards' layers";
  }
  if (workload != "sharded_ramp" && starts("shard.")) return "single-shard workload";
  if (workload == "sharded_ramp" && metric == "sim.pending_peak") {
    return "the sharded run cannot be stepped, so the heap is never sampled";
  }
  if (workload != "hot_channel" && (metric == "client.publish_us" || metric == "client.subscribe_us")) {
    return "players/cohorts make these calls inside the simulation; only hot_channel calls the client API itself";
  }
  if (workload == "hot_channel" && (starts("cohort.") || starts("mammoth."))) return "no game world";
  if (workload == "elastic" && starts("cohort.")) return "individual mode: no cohorts";
  return "";
}

}  // namespace perfbench
