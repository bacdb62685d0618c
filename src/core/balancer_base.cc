#include "core/balancer_base.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::core {

const char* to_string(RebalanceKind kind) {
  switch (kind) {
    case RebalanceKind::kChannelLevel:
      return "channel-level";
    case RebalanceKind::kHighLoad:
      return "high-load";
    case RebalanceKind::kLowLoad:
      return "low-load";
    case RebalanceKind::kHashing:
      return "hashing";
    case RebalanceKind::kEmergency:
      return "emergency";
  }
  return "?";
}

namespace {
/// Decision-round period: the paper's time unit t.
constexpr SimTime kTickInterval = seconds(1);
}  // namespace

BalancerBase::BalancerBase(sim::Simulator& sim, ServerRegistry& registry,
                           std::shared_ptr<const ConsistentHashRing> base_ring, NodeId node,
                           Cloud* cloud, BaseConfig config, PlanDelivery deliver)
    : sim_(sim),
      registry_(registry),
      base_ring_(std::move(base_ring)),
      node_(node),
      cloud_(cloud),
      base_config_(config),
      plan_(make_plan_zero()),
      detector_(config.detector),
      ticker_(sim, kTickInterval, [this] { tick(); }),
      plan_delivery_(std::move(deliver)) {
  DYN_CHECK(base_ring_ != nullptr);
  DYN_CHECK(plan_delivery_ != nullptr);
}

BalancerBase::~BalancerBase() { stop(); }

void BalancerBase::start() {
  if (started_) return;
  started_ = true;
  for (ServerId id : registry_.ids()) attach_server(id);
  ticker_.start();
}

void BalancerBase::stop() {
  if (!started_) return;
  started_ = false;
  ticker_.stop();
  servers_.clear();
}

void BalancerBase::attach_server(ServerId server) {
  if (servers_.contains(server)) return;
  ps::PubSubServer* srv = registry_.find(server);
  if (srv == nullptr || !srv->running()) return;
  servers_.emplace(server, ServerState{});
  if (base_config_.detect_failures) detector_.watch(server, sim_.now());
}

void BalancerBase::detach_server(ServerId server) {
  servers_.erase(server);
  detector_.forget(server);
}

void BalancerBase::ingest_report(const LoadReport& report) {
  auto it = servers_.find(report.server);
  if (it == servers_.end()) {
    // A report from a server we are not tracking. With failure detection on,
    // this is the false-positive recovery path: a server we suspected (and
    // detached) was merely partitioned or slow, and its reports are flowing
    // again — re-attach it so it becomes a placement target once more.
    if (!base_config_.detect_failures) return;
    ps::PubSubServer* srv = registry_.find(report.server);
    if (srv == nullptr || !srv->running()) return;
    attach_server(report.server);
    it = servers_.find(report.server);
    if (it == servers_.end()) return;
    liveness_events_.push_back(LivenessEvent{sim_.now(), report.server,
                                             LivenessEvent::Kind::kRejoined, 0});
    DYN_TRACE(instant(sim_.now(), node_, "liveness", "rejoin", "server",
                      static_cast<double>(report.server)));
  }
  ServerState& state = it->second;
  state.capacity = report.advertised_capacity;
  state.reports.push_back(report);
  while (state.reports.size() > kLrWindow) state.reports.pop_front();
  if (base_config_.detect_failures) detector_.heartbeat(report.server, sim_.now());
}

void BalancerBase::tick() {
  purge_stale_reports();
  if (base_config_.detect_failures) check_liveness();
  decide();
}

void BalancerBase::purge_stale_reports() {
  const SimTime cutoff = sim_.now() - kReportMaxAge;
  for (auto& [id, state] : servers_) {
    while (!state.reports.empty() && state.reports.front().window_end < cutoff) {
      state.reports.pop_front();
    }
  }
}

void BalancerBase::check_liveness() {
  const SimTime now = sim_.now();
  for (ServerId s : detector_.suspects(now)) {
    auto it = servers_.find(s);
    if (it == servers_.end()) continue;
    // A retiring server is already being drained out of the plan; its LLA
    // going quiet at the end of the drain is expected, not a failure.
    if (it->second.retiring) continue;
    const SimTime silence = detector_.silence(s, now);
    liveness_events_.push_back(
        LivenessEvent{now, s, LivenessEvent::Kind::kSuspected, silence});
    DYN_TRACE(instant(sim_.now(), node_, "liveness", "suspect", "server",
                      static_cast<double>(s), "silence_s", to_seconds(silence)));
    handle_server_failure(s);
  }
}

void BalancerBase::handle_server_failure(ServerId server) { detach_server(server); }

const LoadReport* BalancerBase::latest_report(ServerId server) const {
  auto it = servers_.find(server);
  if (it == servers_.end() || it->second.reports.empty()) return nullptr;
  return &it->second.reports.back();
}

double BalancerBase::load_ratio(ServerId server) const {
  auto it = servers_.find(server);
  if (it == servers_.end() || it->second.reports.empty()) return 0;
  double sum = 0;
  for (const LoadReport& r : it->second.reports) sum += r.load_ratio();
  return sum / static_cast<double>(it->second.reports.size());
}

double BalancerBase::average_load_ratio() const {
  if (servers_.empty()) return 0;
  double sum = 0;
  for (const auto& [id, _] : servers_) sum += load_ratio(id);
  return sum / static_cast<double>(servers_.size());
}

std::pair<ServerId, double> BalancerBase::max_load_ratio() const {
  ServerId best = kInvalidServer;
  double best_lr = -1;
  for (const auto& [id, _] : servers_) {
    const double lr = load_ratio(id);
    if (lr > best_lr) {
      best = id;
      best_lr = lr;
    }
  }
  return {best, std::max(best_lr, 0.0)};
}

std::vector<ServerId> BalancerBase::active_servers() const {
  std::vector<ServerId> out;
  out.reserve(servers_.size());
  for (const auto& [id, _] : servers_) out.push_back(id);
  return out;
}

std::map<Channel, double> BalancerBase::channel_out_rates(ServerId server) const {
  std::map<Channel, double> rates;
  auto it = servers_.find(server);
  if (it == servers_.end() || it->second.reports.empty()) return rates;
  double total_window = 0;
  for (const LoadReport& r : it->second.reports) {
    total_window += to_seconds(r.window_end - r.window_start);
    for (const auto& [channel, stats] : r.channels) {
      rates[channel] += static_cast<double>(stats.bytes_out);
    }
  }
  if (total_window <= 0) return {};
  for (auto& [_, v] : rates) v /= total_window;
  return rates;
}

void BalancerBase::publish_plan(Plan plan, RebalanceKind kind, obs::RebalanceRecord record) {
  plan.set_id(next_plan_id_++);
  auto frozen = std::make_shared<const Plan>(std::move(plan));
  plan_ = frozen;
  record.time = sim_.now();
  record.plan_id = frozen->id();
  record.kind = to_string(kind);
  record.active_servers = servers_.size();
  record.since_last_plan = sim_.now() - last_plan_time_;
  audit_.append(std::move(record));
  last_plan_time_ = sim_.now();
  events_.push_back(RebalanceEvent{sim_.now(), kind, frozen->id(), servers_.size()});
  DYN_TRACE(instant(sim_.now(), node_, "rebalance", to_string(kind), "plan_id",
                    static_cast<double>(frozen->id()), "servers",
                    static_cast<double>(servers_.size())));

  for (const auto& [id, _] : servers_) plan_delivery_(id, frozen);
  if (plan_listener_) plan_listener_(frozen, kind);
}

void BalancerBase::record_audit_only(RebalanceKind kind, obs::RebalanceRecord record) {
  record.time = sim_.now();
  record.plan_id = 0;
  record.kind = to_string(kind);
  record.active_servers = servers_.size();
  record.since_last_plan = sim_.now() - last_plan_time_;
  audit_.append(std::move(record));
}

}  // namespace dynamoth::core
