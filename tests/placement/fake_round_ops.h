// A self-contained RoundOps for exercising placement policies without a
// cluster: the test owns the plan, the roster and the per-channel rates, and
// drives rounds by hand. apply() mirrors the balancer's estimated-load
// bookkeeping (remove the channel's load everywhere, credit the new owners).
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "placement/policy.h"

namespace dynamoth::placement::test {

class FakeRoundOps final : public RoundOps {
 public:
  // ---- test setup ----
  void add_server(ServerId id, double capacity, bool on_base_ring) {
    capacity_[id] = capacity;
    est_out_[id] = 0;
    if (on_base_ring) base_ring_.add_server(id);
  }
  void remove_server(ServerId id) {
    capacity_.erase(id);
    est_out_.erase(id);
    rates_.erase(id);
  }
  /// Sets `channel`'s offered load and charges it to its currently resolved
  /// owner (call once per channel per round, before system_rebalance).
  void offer(const Channel& channel, double rate) {
    const Channel& name = *names_.insert(channel).first;
    const core::PlanEntry entry = plan_.resolve(name, base_ring_);
    clear_channel(name);
    const double share = rate / static_cast<double>(entry.servers.size());
    for (ServerId s : entry.servers) {
      if (!capacity_.contains(s)) continue;
      rates_[s][name] += share;
      est_out_[s] += share;
    }
  }
  void clear_channel(const Channel& channel) {
    for (auto& [s, rates] : rates_) {
      auto it = rates.find(channel);
      if (it == rates.end()) continue;
      est_out_[s] -= it->second;
      rates.erase(it);
    }
  }
  Limits& mutable_limits() { return limits_; }
  core::Plan& mutable_plan() { return plan_; }
  core::ConsistentHashRing& mutable_base_ring() { return base_ring_; }
  /// Next request_spawn() adds this server (0 => spawns refused).
  void allow_spawn(ServerId id, double capacity) {
    spawn_id_ = id;
    spawn_capacity_ = capacity;
  }

  // ---- observed effects ----
  struct Move {
    Channel channel;
    std::vector<ServerId> to;
    std::string reason;
  };
  [[nodiscard]] const std::vector<Move>& moves() const { return moves_; }
  [[nodiscard]] std::size_t migrations() const { return migrations_; }
  [[nodiscard]] core::RebalanceKind kind() const { return kind_; }
  [[nodiscard]] ServerId drained() const { return drained_; }
  [[nodiscard]] std::size_t spawns() const { return spawns_; }
  [[nodiscard]] std::size_t triggers() const { return triggers_; }
  void reset_round() {
    moves_.clear();
    migrations_ = 0;
    kind_ = core::RebalanceKind::kChannelLevel;
    drained_ = kInvalidServer;
    triggers_ = 0;
  }

  // ---- RoundOps ----
  [[nodiscard]] const Limits& limits() const override { return limits_; }
  [[nodiscard]] const core::Plan& plan() const override { return plan_; }
  [[nodiscard]] const core::ConsistentHashRing& base_ring() const override {
    return base_ring_;
  }
  [[nodiscard]] const std::map<ServerId, double>& capacity() const override {
    return capacity_;
  }
  [[nodiscard]] const std::map<ServerId, double>& est_out() const override {
    return est_out_;
  }
  [[nodiscard]] double est_lr(ServerId s) const override {
    auto out = est_out_.find(s);
    auto cap = capacity_.find(s);
    if (out == est_out_.end() || cap == capacity_.end() || cap->second <= 0) return 0;
    return out->second / cap->second;
  }
  [[nodiscard]] double est_cpu(ServerId) const override { return 0; }
  [[nodiscard]] double pressure(ServerId s) const override {
    return est_lr(s) / limits_.lr_high;
  }
  [[nodiscard]] const std::map<Channel, double>& rates(ServerId s) const override {
    return rates_[s];
  }
  [[nodiscard]] const std::map<Channel, double>& cpu_rates(ServerId s) const override {
    return cpu_rates_[s];
  }
  [[nodiscard]] std::vector<ServerId> servers_by_load(
      const std::set<ServerId>& exclude) const override {
    std::vector<ServerId> ids;
    for (const auto& [id, _] : capacity_) {
      if (!exclude.contains(id)) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end(), [&](ServerId a, ServerId b) {
      const double la = pressure(a), lb = pressure(b);
      return la != lb ? la < lb : a < b;
    });
    return ids;
  }
  [[nodiscard]] std::vector<ServerId> roster() const override {
    std::vector<ServerId> ids;
    for (const auto& [id, _] : capacity_) ids.push_back(id);
    return ids;
  }
  /// The fake's latest report of a server is its current per-channel rates.
  [[nodiscard]] std::vector<const Channel*> reported_channels(ServerId s) const override {
    std::vector<const Channel*> names;
    for (const auto& [channel, _] : rates_[s]) names.push_back(&channel);
    return names;
  }
  [[nodiscard]] std::vector<ChannelLoad> channel_loads() const override {
    std::map<Channel, double> total;
    for (const auto& [_, rates] : rates_) {
      for (const auto& [channel, rate] : rates) total[channel] += rate;
    }
    std::vector<ChannelLoad> loads;
    for (const auto& [channel, rate] : total) {
      const Channel& name = *names_.insert(channel).first;
      loads.push_back(ChannelLoad{&name, rate});
    }
    return loads;
  }

  void apply(const Channel& channel, const core::PlanEntry& entry,
             std::string reason) override {
    const Channel& name = *names_.insert(channel).first;
    double total = 0;
    for (auto& [s, rates] : rates_) {
      auto it = rates.find(name);
      if (it == rates.end()) continue;
      total += it->second;
      est_out_[s] -= it->second;
      rates.erase(it);
    }
    const double share = total / static_cast<double>(entry.servers.size());
    for (ServerId s : entry.servers) {
      est_out_[s] += share;
      rates_[s][name] += share;
    }
    plan_.set_entry(name, entry);
    moves_.push_back(Move{name, entry.servers, std::move(reason)});
  }
  void add_trigger(std::string, ServerId, double, double) override { ++triggers_; }
  void set_kind(core::RebalanceKind kind) override { kind_ = kind; }
  void note_migration() override { ++migrations_; }
  bool request_spawn() override {
    if (spawn_id_ == kInvalidServer) return false;
    add_server(spawn_id_, spawn_capacity_, /*on_base_ring=*/false);
    spawn_id_ = kInvalidServer;
    ++spawns_;
    return true;
  }
  void begin_drain(ServerId victim) override {
    drained_ = victim;
    remove_server(victim);
  }

 private:
  Limits limits_;
  core::Plan plan_;
  core::ConsistentHashRing base_ring_;
  std::map<ServerId, double> capacity_;
  std::map<ServerId, double> est_out_;
  mutable std::map<ServerId, std::map<Channel, double>> rates_;
  mutable std::map<ServerId, std::map<Channel, double>> cpu_rates_;
  mutable std::set<Channel> names_;  // stable storage for ChannelLoad::name

  std::vector<Move> moves_;
  std::size_t migrations_ = 0;
  core::RebalanceKind kind_ = core::RebalanceKind::kChannelLevel;
  ServerId drained_ = kInvalidServer;
  std::size_t spawns_ = 0;
  std::size_t triggers_ = 0;
  ServerId spawn_id_ = kInvalidServer;
  double spawn_capacity_ = 0;
};

}  // namespace dynamoth::placement::test
