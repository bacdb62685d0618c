#include "core/load_balancer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::core {

DynamothLoadBalancer::DynamothLoadBalancer(sim::Simulator& sim, ServerRegistry& registry,
                                           std::shared_ptr<const ConsistentHashRing> base_ring,
                                           NodeId node, Cloud* cloud, Config config,
                                           PlanDelivery deliver)
    : BalancerBase(sim, registry, std::move(base_ring), node, cloud, config.base,
                   std::move(deliver)),
      config_(config) {
  DYN_CHECK(config_.lr_safe <= config_.lr_high);
  DYN_CHECK(config_.min_servers >= 1);
  limits_.lr_high = config_.lr_high;
  limits_.lr_safe = config_.lr_safe;
  limits_.lr_low = config_.lr_low;
  limits_.cpu_aware = config_.cpu_aware;
  limits_.cpu_high = config_.cpu_high;
  limits_.cpu_safe = config_.cpu_safe;
  limits_.min_servers = config_.min_servers;
  policy_ = placement::make_policy(config_.placement);
  policy_desc_ = policy_->name();
  const std::string params = policy_->params();
  if (!params.empty()) policy_desc_ += "(" + params + ")";
}

/// Bridges the policy's RoundOps view onto the balancer's Round. The adapter
/// is transparent: every accessor returns the very container the in-balancer
/// passes (repair, Algorithm 1) mutate, so the extracted greedy policy sees
/// bit-identical state in bit-identical order.
class DynamothLoadBalancer::RoundOpsImpl final : public placement::RoundOps {
 public:
  RoundOpsImpl(DynamothLoadBalancer& lb, Round& r) : lb_(lb), r_(r) {}

  [[nodiscard]] const placement::Limits& limits() const override { return lb_.limits_; }
  [[nodiscard]] const Plan& plan() const override { return r_.plan; }
  [[nodiscard]] const ConsistentHashRing& base_ring() const override { return *lb_.base_ring_; }
  [[nodiscard]] const std::map<ServerId, double>& capacity() const override {
    return r_.capacity;
  }
  [[nodiscard]] const std::map<ServerId, double>& est_out() const override { return r_.est_out; }
  [[nodiscard]] double est_lr(ServerId s) const override { return lb_.est_lr(r_, s); }
  [[nodiscard]] double est_cpu(ServerId s) const override { return lb_.est_cpu(r_, s); }
  [[nodiscard]] double pressure(ServerId s) const override { return lb_.pressure(r_, s); }
  [[nodiscard]] const std::map<Channel, double>& rates(ServerId s) const override {
    return r_.rates[s];  // operator[]: mirrors the pre-extraction code exactly
  }
  [[nodiscard]] const std::map<Channel, double>& cpu_rates(ServerId s) const override {
    return r_.cpu_rates[s];
  }
  [[nodiscard]] std::vector<ServerId> servers_by_load(
      const std::set<ServerId>& exclude) const override {
    return lb_.servers_by_load(r_, exclude);
  }
  [[nodiscard]] std::vector<ServerId> roster() const override { return lb_.active_servers(); }
  [[nodiscard]] std::vector<const Channel*> reported_channels(ServerId s) const override {
    std::vector<const Channel*> names;
    if (const LoadReport* report = lb_.latest_report(s)) {
      names.reserve(report->channels.size());
      for (const auto& [channel, _] : report->channels) names.push_back(&channel);
    }
    return names;
  }

  [[nodiscard]] std::vector<placement::ChannelLoad> channel_loads() const override {
    std::vector<placement::ChannelLoad> loads;
    loads.reserve(r_.channels.size());
    for (const auto& [channel, agg] : r_.channels) {  // name-ordered
      loads.push_back(placement::ChannelLoad{&channel, agg.out_bytes_per_sec});
    }
    return loads;
  }

  void apply(const Channel& channel, const PlanEntry& entry, std::string reason) override {
    lb_.apply_entry_change(r_, channel, entry, std::move(reason));
  }
  void add_trigger(std::string reason, ServerId server, double value,
                   double threshold) override {
    r_.rec.triggers.push_back(
        obs::RebalanceTrigger{std::move(reason), server, value, threshold});
  }
  void set_kind(RebalanceKind kind) override { r_.kind = kind; }
  void note_migration() override { ++lb_.lb_stats_.channels_migrated; }
  bool request_spawn() override {
    if (!lb_.request_spawn_if_possible()) return false;
    r_.rec.spawn_requested = true;
    return true;
  }
  void begin_drain(ServerId victim) override { lb_.drain_server(r_, victim); }

 private:
  DynamothLoadBalancer& lb_;
  Round& r_;
};

DynamothLoadBalancer::Round DynamothLoadBalancer::build_round() const {
  Round r;
  r.rec.policy = policy_desc_;  // every audit entry names the active policy
  r.plan = *current_plan();  // working copy
  for (const auto& [id, state] : servers()) {
    if (state.reports.empty()) continue;
    r.capacity[id] = state.capacity;
    r.rates[id] = channel_out_rates(id);
    // Estimated egress: the NIC measurement M_i saturates at the line rate,
    // but the LLA's per-channel delivery rates reflect *offered* load. Use
    // whichever is larger, otherwise a saturated server looks "fixed" after
    // shedding a fraction of its channels and the balancer under-provisions.
    double offered = 0;
    for (const auto& [_, rate] : r.rates[id]) offered += rate;
    r.est_out[id] = std::max(load_ratio(id) * state.capacity, offered);

    if (config_.cpu_aware) {
      r.cpu_rates[id] = channel_cpu_rates(id);
      double cpu_offered = 0;
      for (const auto& [_, util] : r.cpu_rates[id]) cpu_offered += util;
      double cpu_measured = 0;
      for (const LoadReport& report : state.reports) cpu_measured += report.cpu_utilization;
      cpu_measured /= static_cast<double>(state.reports.size());
      r.est_cpu[id] = std::max(cpu_measured, cpu_offered);
    }

    // Aggregate per-channel metrics across servers.
    double window_s = 0;
    std::map<Channel, ChannelAggregate> local;
    for (const LoadReport& report : state.reports) {
      window_s += to_seconds(report.window_end - report.window_start);
      for (const auto& [channel, stats] : report.channels) {
        ChannelAggregate& agg = local[channel];
        agg.publications_per_sec += static_cast<double>(stats.publications);
        agg.out_bytes_per_sec += static_cast<double>(stats.bytes_out);
        // Subscribers/publishers are level quantities: keep the latest.
        // Pattern listeners fold into the subscriber count — a wildcard
        // connection receiving this channel is load-bearing for Algorithm 1's
        // replication and Algorithm 2's migration decisions exactly like a
        // plain subscription (its fan-out bytes are already in bytes_out).
        agg.subscribers = stats.subscribers + stats.pattern_subscribers;
        agg.publishers = stats.publishers;
      }
    }
    if (window_s <= 0) continue;
    for (auto& [channel, agg] : local) {
      ChannelAggregate& global = r.channels[channel];
      global.publications_per_sec += agg.publications_per_sec / window_s;
      global.out_bytes_per_sec += agg.out_bytes_per_sec / window_s;
      global.subscribers += agg.subscribers;
      global.publishers += agg.publishers;
    }
  }

  // Correct for replication-induced double counting, otherwise active
  // replication suppresses the very ratios that justified it (flapping):
  // under all-publishers every replica sees the same publication stream;
  // under all-subscribers every replica sees the same subscriber set.
  for (auto& [channel, agg] : r.channels) {
    const PlanEntry* entry = r.plan.find(channel);
    if (entry == nullptr || entry->servers.size() <= 1) continue;
    const auto n = static_cast<double>(entry->servers.size());
    switch (entry->mode) {
      case ReplicationMode::kAllPublishers:
        agg.publications_per_sec /= n;
        agg.publishers /= n;
        break;
      case ReplicationMode::kAllSubscribers:
        agg.subscribers /= n;
        agg.publishers /= n;  // publishers spray replicas randomly
        break;
      case ReplicationMode::kNone:
        break;
    }
  }
  return r;
}

double DynamothLoadBalancer::est_lr(const Round& r, ServerId s) const {
  auto out = r.est_out.find(s);
  auto cap = r.capacity.find(s);
  if (out == r.est_out.end() || cap == r.capacity.end() || cap->second <= 0) return 0;
  return out->second / cap->second;
}

double DynamothLoadBalancer::est_cpu(const Round& r, ServerId s) const {
  auto it = r.est_cpu.find(s);
  return it == r.est_cpu.end() ? 0.0 : it->second;
}

double DynamothLoadBalancer::pressure(const Round& r, ServerId s) const {
  double p = est_lr(r, s) / config_.lr_high;
  if (config_.cpu_aware) p = std::max(p, est_cpu(r, s) / config_.cpu_high);
  return p;
}

std::map<Channel, double> DynamothLoadBalancer::channel_cpu_rates(ServerId server) const {
  std::map<Channel, double> rates;
  auto it = servers().find(server);
  if (it == servers().end() || it->second.reports.empty()) return rates;
  double total_window = 0;
  for (const LoadReport& report : it->second.reports) {
    total_window += to_seconds(report.window_end - report.window_start);
    for (const auto& [channel, stats] : report.channels) {
      rates[channel] += static_cast<double>(stats.cpu_us) / 1e6;  // -> core-seconds
    }
  }
  if (total_window <= 0) return {};
  for (auto& [_, v] : rates) v /= total_window;  // core-seconds per second
  return rates;
}

std::vector<ServerId> DynamothLoadBalancer::servers_by_load(
    const Round& r, const std::set<ServerId>& exclude) const {
  std::vector<ServerId> ids;
  for (const auto& [id, state] : servers()) {
    if (state.retiring || releasing_.contains(id) || exclude.contains(id)) continue;
    if (!r.capacity.contains(id)) continue;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [&](ServerId a, ServerId b) {
    const double la = pressure(r, a), lb = pressure(r, b);
    return la != lb ? la < lb : a < b;
  });
  return ids;
}

void DynamothLoadBalancer::apply_entry_change(Round& r, const Channel& channel,
                                              const PlanEntry& new_entry, std::string reason) {
  const PlanEntry before = r.plan.resolve(channel, *base_ring_);
  r.rec.moves.push_back(obs::ChannelMove{channel, before.servers, new_entry.servers,
                                         to_string(before.mode), to_string(new_entry.mode),
                                         new_entry.version, std::move(reason)});

  // Remove the channel's measured load from wherever it currently is.
  double total = 0;
  for (auto& [server, rates] : r.rates) {
    auto it = rates.find(channel);
    if (it == rates.end()) continue;
    total += it->second;
    r.est_out[server] -= it->second;
    rates.erase(it);
  }
  double cpu_total = 0;
  if (config_.cpu_aware) {
    for (auto& [server, rates] : r.cpu_rates) {
      auto it = rates.find(channel);
      if (it == rates.end()) continue;
      cpu_total += it->second;
      r.est_cpu[server] -= it->second;
      rates.erase(it);
    }
  }

  // Redistribute. Both replication schemes split delivery work evenly:
  // all-subscribers splits the publication stream across replicas, and
  // all-publishers splits the subscriber population across replicas.
  const double share = total / static_cast<double>(new_entry.servers.size());
  const double cpu_share = cpu_total / static_cast<double>(new_entry.servers.size());
  for (ServerId s : new_entry.servers) {
    r.est_out[s] += share;
    r.rates[s][channel] += share;
    if (config_.cpu_aware) {
      r.est_cpu[s] += cpu_share;
      r.cpu_rates[s][channel] += cpu_share;
    }
  }
  r.plan.set_entry(channel, new_entry);
  r.changed = true;
}

void DynamothLoadBalancer::repair_dead_entries(Round& r) {
  std::vector<std::pair<Channel, PlanEntry>> repairs;
  for (const auto& [channel, entry] : r.plan.entries()) {
    std::vector<ServerId> live;
    for (ServerId s : entry.servers) {
      if (servers().contains(s)) live.push_back(s);
    }
    if (live.size() == entry.servers.size()) continue;

    PlanEntry fixed = entry;
    fixed.version = entry.version + 1;
    if (live.empty()) {
      const std::vector<ServerId> order = servers_by_load(r, {});
      if (order.empty()) continue;  // nothing to place on; try next round
      fixed.servers = {order.front()};
      fixed.mode = ReplicationMode::kNone;
    } else {
      fixed.servers = std::move(live);
      if (fixed.servers.size() < 2) fixed.mode = ReplicationMode::kNone;
    }
    repairs.emplace_back(channel, std::move(fixed));
  }
  for (auto& [channel, entry] : repairs) {
    apply_entry_change(r, channel, entry, "repair: entry referenced dead server");
  }
}

void DynamothLoadBalancer::channel_level_rebalance(Round& r) {
  if (!config_.enable_replication) return;
  const std::size_t fleet = servers_by_load(r, {}).size();
  if (fleet < 2) return;

  for (const auto& [channel, agg] : r.channels) {
    const PlanEntry current = r.plan.resolve(channel, *base_ring_);

    // Algorithm 1: publication-to-subscriber and subscriber-to-publication
    // ratios over the measurement window.
    const double pubs = agg.publications_per_sec;
    const double subs = std::max(agg.subscribers, 1.0);
    const double p_ratio = pubs / subs;
    const double s_ratio = subs / std::max(pubs, 1.0);

    ReplicationMode want = ReplicationMode::kNone;
    std::size_t n_servers = 1;
    if (p_ratio > config_.all_subs_threshold && pubs > config_.publication_threshold) {
      want = ReplicationMode::kAllSubscribers;
      n_servers = static_cast<std::size_t>(std::ceil(p_ratio / config_.all_subs_threshold));
    } else if (s_ratio > config_.all_pubs_threshold &&
               agg.subscribers > config_.subscriber_threshold) {
      want = ReplicationMode::kAllPublishers;
      n_servers = static_cast<std::size_t>(std::ceil(s_ratio / config_.all_pubs_threshold));
    }
    n_servers = std::clamp<std::size_t>(n_servers, want == ReplicationMode::kNone ? 1 : 2,
                                        std::min(kMaxReplicas, fleet));

    if (want == current.mode &&
        (want == ReplicationMode::kNone || n_servers == current.servers.size())) {
      continue;  // nothing to change
    }

    PlanEntry entry;
    entry.mode = want;
    entry.version = current.version + 1;
    if (want == ReplicationMode::kNone) {
      // Cancel replication: collapse onto the current primary.
      entry.servers = {current.primary()};
      if (current.mode != ReplicationMode::kNone) ++lb_stats_.replications_cancelled;
    } else {
      // Keep current members; grow with the least-loaded servers first,
      // shrink by freeing the busiest members first (paper III-B1).
      std::vector<ServerId> members;
      for (ServerId s : current.servers) {
        if (r.capacity.contains(s) && !releasing_.contains(s)) members.push_back(s);
      }
      if (members.size() > n_servers) {
        std::sort(members.begin(), members.end(), [&](ServerId a, ServerId b) {
          const double la = est_lr(r, a), lb = est_lr(r, b);
          return la != lb ? la < lb : a < b;  // keep least loaded
        });
        members.resize(n_servers);
      } else if (members.size() < n_servers) {
        std::set<ServerId> exclude(members.begin(), members.end());
        for (ServerId s : servers_by_load(r, exclude)) {
          if (members.size() >= n_servers) break;
          members.push_back(s);
        }
      }
      if (members.size() < 2) continue;  // cannot replicate right now
      std::sort(members.begin(), members.end());
      entry.servers = std::move(members);
      if (current.mode == want) {
        ++lb_stats_.replications_resized;
      } else {
        ++lb_stats_.replications_started;
      }
    }
    char why[112];
    if (want == ReplicationMode::kNone) {
      std::snprintf(why, sizeof why,
                    "replication cancelled (p_ratio %.1f, s_ratio %.1f below thresholds)",
                    p_ratio, s_ratio);
    } else if (want == ReplicationMode::kAllSubscribers) {
      std::snprintf(why, sizeof why, "p_ratio %.1f > %.1f -> %zu replicas", p_ratio,
                    config_.all_subs_threshold, entry.servers.size());
    } else {
      std::snprintf(why, sizeof why, "s_ratio %.1f > %.1f -> %zu replicas", s_ratio,
                    config_.all_pubs_threshold, entry.servers.size());
    }
    apply_entry_change(r, channel, entry, why);
    r.kind = RebalanceKind::kChannelLevel;
  }
}

void DynamothLoadBalancer::drain_server(Round& r, ServerId victim) {
  // Nothing maps to the victim in the new plan; release after a drain
  // period so forwarding and stale clients settle.
  servers_mut()[victim].retiring = true;
  releasing_.insert(victim);
  r.changed = true;
  r.rec.drained_server = victim;
  const ServerId id = victim;
  sim_.schedule_after(config_.despawn_drain_delay, [this, id] { release_server(id); });
}

bool DynamothLoadBalancer::request_spawn_if_possible() {
  if (cloud_ == nullptr || spawn_pending_) return false;
  if (active_server_count() >= config_.max_servers) return false;
  spawn_pending_ = true;
  ++lb_stats_.servers_spawned;
  DYN_TRACE(instant(sim_.now(), node_, "fleet", "spawn-request", "active",
                    static_cast<double>(active_server_count())));
  cloud_->request_spawn([this](ServerId id) {
    spawn_pending_ = false;
    attach_server(id);
    force_decide_ = true;  // rebalance onto the fresh server without T_wait
    DYN_TRACE(instant(sim_.now(), node_, "fleet", "spawn-ready", "server",
                      static_cast<double>(id)));
  });
  return true;
}

void DynamothLoadBalancer::release_server(ServerId server) {
  releasing_.erase(server);
  detach_server(server);
  ++lb_stats_.servers_released;
  DYN_TRACE(instant(sim_.now(), node_, "fleet", "server-release", "server",
                    static_cast<double>(server)));
  if (cloud_ != nullptr) cloud_->despawn(server);
}

void DynamothLoadBalancer::handle_server_failure(ServerId server) {
  // Capture what the suspect owned BEFORE detaching: its (stale) reports
  // are the only record of which ring-resolved channels lived there.
  const std::map<Channel, double> orphans = channel_out_rates(server);
  const SimTime silence = detector().silence(server, sim_.now());
  const SimTime threshold = detector().config().timeout;

  // Purge everything the dead server fed into load accounting: detaching
  // drops its report history, so est_lr / servers_by_load can never use its
  // last-window numbers again, and a pending release must not fire later.
  detach_server(server);
  releasing_.erase(server);
  ++lb_stats_.emergency_rebalances;

  Round r = build_round();
  r.kind = RebalanceKind::kEmergency;
  r.rec.suspected_server = server;
  r.rec.triggers.push_back(obs::RebalanceTrigger{"detector: LLA silence exceeded threshold",
                                                 server, to_seconds(silence),
                                                 to_seconds(threshold)});
  if (r.capacity.empty()) {
    // No live reporting server to re-home onto; record the suspicion and let
    // a later round repair the plan once capacity reappears.
    record_audit_only(RebalanceKind::kEmergency, std::move(r.rec));
    return;
  }

  // Plan entries naming the dead server are repaired by the shared pass...
  repair_dead_entries(r);
  // ...but channels it served via the consistent-hash fallback have no entry
  // to repair: the active policy picks a live home for each (the default
  // greedy choice is the least-pressured server, re-ranked per channel as
  // estimated load shifts; ring-based policies walk their own structure).
  RoundOpsImpl ops(*this, r);
  for (const auto& [channel, _] : orphans) {
    const PlanEntry current = r.plan.resolve(channel, *base_ring_);
    if (!current.owns(server)) continue;
    const ServerId home = policy_->emergency_home(ops, channel);
    if (home == kInvalidServer) break;
    PlanEntry fixed;
    fixed.mode = ReplicationMode::kNone;
    fixed.servers = {home};
    fixed.version = current.version + 1;
    apply_entry_change(r, channel, fixed, "emergency: re-home channel off suspected server");
  }

  if (!r.changed) {
    record_audit_only(RebalanceKind::kEmergency, std::move(r.rec));
    return;
  }
  ++lb_stats_.plans_generated;
  publish_plan(std::move(r.plan), RebalanceKind::kEmergency, std::move(r.rec));
}

void DynamothLoadBalancer::decide() {
  // Respect T_wait between plan generations (paper III-B) unless a fresh
  // server just arrived for a pending high-load situation.
  if (!force_decide_ && sim_.now() - last_plan_time_ < config_.t_wait) return;

  Round r = build_round();
  if (r.capacity.empty()) return;
  const bool forced = force_decide_;
  force_decide_ = false;

  repair_dead_entries(r);
  channel_level_rebalance(r);
  // System-level slot: the configured placement policy relieves overload
  // (Algorithm 2 under the default greedy policy) and, when allowed, drains
  // idle servers. Scale-down never runs in a forced (fresh-server) round.
  RoundOpsImpl ops(*this, r);
  policy_->system_rebalance(ops, /*scale_down_allowed=*/!forced);

  r.rec.forced = forced;
  r.rec.releasing = releasing_.size();
  if (!r.changed) {
    // No plan, but the round may still have changed cloud state (requested
    // a spawn while every migration was stuck) — keep that auditable.
    if (r.rec.spawn_requested) record_audit_only(r.kind, std::move(r.rec));
    return;
  }
  ++lb_stats_.plans_generated;
  publish_plan(std::move(r.plan), r.kind, std::move(r.rec));
}

}  // namespace dynamoth::core
