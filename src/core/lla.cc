#include "core/lla.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::core {

namespace {
/// Report period: the paper's time unit t.
constexpr SimTime kReportInterval = seconds(1);
}  // namespace

LocalLoadAnalyzer::LocalLoadAnalyzer(sim::Simulator& sim, net::Network& network,
                                     ps::PubSubServer& server, Config config)
    : sim_(sim),
      network_(network),
      server_(server),
      config_(config),
      reporter_(sim, kReportInterval, [this] { emit_report(); }) {
  DYN_CHECK(config_.advertised_capacity > 0);
}

LocalLoadAnalyzer::~LocalLoadAnalyzer() { stop(); }

void LocalLoadAnalyzer::start() {
  if (started_) return;
  started_ = true;
  server_.add_observer(this);
  window_start_bytes_ = network_.transmitted_bytes(server_.node());
  window_start_cpu_ = server_.cpu_time_executed();
  window_start_time_ = sim_.now();
  reporter_.start();
}

void LocalLoadAnalyzer::set_report_target(NodeId balancer_node, ReportSink sink) {
  balancer_node_ = balancer_node;
  sink_ = std::move(sink);
}

void LocalLoadAnalyzer::clear_report_target() {
  balancer_node_ = kInvalidNode;
  sink_ = nullptr;
}

void LocalLoadAnalyzer::stop() {
  if (!started_) return;
  started_ = false;
  reporter_.stop();
  server_.remove_observer(this);
}

void LocalLoadAnalyzer::on_publish(const ps::EnvelopePtr& env, std::size_t subscriber_count,
                                   std::uint32_t publisher_weight) {
  const ChannelId cid = env->channel_id();
  if (ChannelTable::instance().is_control(cid)) return;
  if (window_.size() <= cid) window_.resize(cid + 1);
  Accum& a = window_[cid];
  const std::size_t bytes = ps::wire_size(*env, ps::kMsgOverheadBytes);
  // subscriber_count arrives already weighted (modeled subscribers), so the
  // delivery/byte/CPU series are exactly what the expanded population would
  // have produced.
  a.stats.publications += 1;
  a.stats.deliveries += subscriber_count;
  a.stats.bytes_in += bytes;
  a.stats.bytes_out += bytes * subscriber_count;
  // Colocation lets the LLA attribute server CPU to channels from the known
  // command cost model (future-work CPU-aware balancing, paper VII).
  a.stats.cpu_us += static_cast<std::uint64_t>(
      server_.config().cpu_publish_cost_us +
      server_.config().cpu_delivery_cost_us * static_cast<double>(subscriber_count));
  const auto pit = std::lower_bound(a.publishers.begin(), a.publishers.end(), env->publisher);
  if (pit == a.publishers.end() || *pit != env->publisher) {
    a.publishers.insert(pit, env->publisher);
    // A cohort connection is N distinct modeled publishers behind one id.
    a.publisher_weight += publisher_weight;
  }
}

void LocalLoadAnalyzer::on_subscribe(ps::ConnId conn, const Channel& channel,
                                     NodeId client_node) {
  if (is_control_channel(channel)) return;
  // Only real clients count as subscribers for balancing decisions;
  // infrastructure connections (LB, dispatchers) are bookkeeping.
  const bool is_client = network_.kind(client_node) == net::NodeKind::kClient;
  if (conn_kind_.size() <= conn) conn_kind_.resize(conn + 1, 0);
  conn_kind_[conn] = is_client ? 2 : 1;
  if (is_client) {
    const ChannelId cid = intern_channel(channel);
    if (subscriber_counts_.size() <= cid) subscriber_counts_.resize(cid + 1, 0);
    subscriber_counts_[cid] += weight_of(conn);
  }
}

void LocalLoadAnalyzer::on_unsubscribe(ps::ConnId conn, const Channel& channel,
                                       NodeId client_node) {
  if (is_control_channel(channel)) return;
  const bool is_client = network_.kind(client_node) == net::NodeKind::kClient;
  if (!is_client) return;
  const ChannelId cid = ChannelTable::instance().find(channel);
  if (cid == kInvalidChannelId || cid >= subscriber_counts_.size()) return;
  const std::uint32_t w = weight_of(conn);
  subscriber_counts_[cid] -= std::min(subscriber_counts_[cid], w);
}

void LocalLoadAnalyzer::on_psubscribe(ps::ConnId conn, const std::string& pattern,
                                      NodeId client_node) {
  const bool is_client = network_.kind(client_node) == net::NodeKind::kClient;
  if (conn_kind_.size() <= conn) conn_kind_.resize(conn + 1, 0);
  conn_kind_[conn] = is_client ? 2 : 1;
  if (!is_client) return;
  pattern_subs_.push_back({conn, ps::CompiledPattern::compile(pattern)});
}

void LocalLoadAnalyzer::on_punsubscribe(ps::ConnId conn, const std::string& pattern,
                                        NodeId /*client_node*/) {
  std::erase_if(pattern_subs_, [&](const PatternSub& ps) {
    return ps.conn == conn && ps.compiled.text() == pattern;
  });
}

void LocalLoadAnalyzer::on_disconnect(ps::ConnId conn, const std::vector<Channel>& channels,
                                      const std::vector<std::string>& patterns,
                                      ps::CloseReason /*reason*/) {
  const bool is_client = conn < conn_kind_.size() && conn_kind_[conn] == 2;
  if (conn < conn_kind_.size()) conn_kind_[conn] = 0;
  // The server resets the connection's weight before this fires; the cached
  // value is what each of its subscriptions was counted at.
  const std::uint32_t w = weight_of(conn);
  if (conn < conn_weight_.size()) conn_weight_[conn] = 0;
  // Release the connection's pattern subscriptions (tracked per conn, so the
  // erase covers exactly the `patterns` the server reports torn down).
  if (!patterns.empty()) {
    std::erase_if(pattern_subs_, [&](const PatternSub& ps) { return ps.conn == conn; });
  }
  if (!is_client) return;
  const ChannelTable& table = ChannelTable::instance();
  for (const Channel& ch : channels) {
    const ChannelId cid = table.find(ch);
    if (cid == kInvalidChannelId || table.is_control(cid)) continue;
    if (cid < subscriber_counts_.size()) {
      subscriber_counts_[cid] -= std::min(subscriber_counts_[cid], w);
    }
  }
}

void LocalLoadAnalyzer::on_weight_update(ps::ConnId conn, const std::vector<Channel>& channels,
                                         NodeId client_node, std::uint32_t old_weight,
                                         std::uint32_t new_weight) {
  if (conn_weight_.size() <= conn) conn_weight_.resize(conn + 1, 0);
  conn_weight_[conn] = new_weight;
  // Subscriptions already held were counted at the old weight; re-count them
  // at the new one. Only client connections feed balancing counts.
  if (network_.kind(client_node) != net::NodeKind::kClient) return;
  const ChannelTable& table = ChannelTable::instance();
  for (const Channel& ch : channels) {
    const ChannelId cid = table.find(ch);
    if (cid == kInvalidChannelId || table.is_control(cid)) continue;
    if (cid >= subscriber_counts_.size()) continue;
    const std::uint64_t cur = subscriber_counts_[cid];
    const std::uint64_t next = cur + new_weight - std::min<std::uint64_t>(cur, old_weight);
    subscriber_counts_[cid] = static_cast<std::uint32_t>(next);
  }
}

void LocalLoadAnalyzer::emit_report() {
  const SimTime now = sim_.now();
  const double window_s = to_seconds(now - window_start_time_);
  if (window_s <= 0) return;

  LoadReport report;
  report.server = server_.node();
  report.window_start = window_start_time_;
  report.window_end = now;
  const std::uint64_t bytes_now = network_.transmitted_bytes(server_.node());
  report.measured_out_bytes_per_sec =
      static_cast<double>(bytes_now - window_start_bytes_) / window_s;
  report.advertised_capacity = config_.advertised_capacity;
  const SimTime cpu_now = server_.cpu_time_executed();
  report.cpu_utilization =
      to_seconds(cpu_now - window_start_cpu_) / window_s;
  window_start_cpu_ = cpu_now;

  // Channels with traffic this window. The report's channel map is
  // name-ordered, so scanning the id-indexed accumulator slab in id order
  // stays deterministic.
  const ChannelTable& table = ChannelTable::instance();
  // Weighted pattern-listener count for one channel: every (conn, pattern)
  // subscription matching the name counts at the connection's weight. Zero
  // cost in pattern-free runs (the vector is empty).
  const auto pattern_weight = [&](const Channel& name) -> std::uint32_t {
    if (pattern_subs_.empty()) return 0;
    std::uint64_t sum = 0;
    for (const PatternSub& ps : pattern_subs_) {
      if (ps.compiled.match(name)) sum += weight_of(ps.conn);
    }
    return static_cast<std::uint32_t>(sum);
  };
  for (ChannelId cid = 0; cid < window_.size(); ++cid) {
    Accum& accum = window_[cid];
    if (!accum.active()) continue;  // carried-over entry, quiet this window
    ChannelStats stats = accum.stats;
    // Weighted: equals publishers.size() unless cohort connections published.
    stats.publishers = static_cast<std::uint32_t>(accum.publisher_weight);
    stats.subscribers = cid < subscriber_counts_.size() ? subscriber_counts_[cid] : 0;
    stats.pattern_subscribers = pattern_weight(table.name(cid));
    report.channels.emplace(table.name(cid), stats);
  }
  // Quiet channels that still have subscribers (they hold server state and
  // are migration candidates too).
  for (ChannelId cid = 0; cid < subscriber_counts_.size(); ++cid) {
    const std::uint32_t count = subscriber_counts_[cid];
    if (count == 0) continue;
    if (cid < window_.size() && window_[cid].active()) continue;
    ChannelStats stats;
    stats.subscribers = count;
    stats.pattern_subscribers = pattern_weight(table.name(cid));
    report.channels.emplace(table.name(cid), stats);
  }

  last_load_ratio_ = report.load_ratio();
  DYN_TRACE(instant(now, server_.node(), "lla", "report", "load_ratio", last_load_ratio_,
                    "channels", static_cast<double>(report.channels.size())));
  DYN_TRACE(counter(now, server_.node(), "lla", "load_ratio", last_load_ratio_));
  // Reset in place: slots and their publisher vectors keep their memory, so
  // the first publication of the next window allocates nothing. Only active
  // slots need the reset — inactive ones are already zeroed.
  for (Accum& accum : window_) {
    if (accum.active()) accum.reset_window();
  }
  window_start_bytes_ = bytes_now;
  window_start_time_ = now;

  // Direct path to the balancer (does not queue behind the data plane).
  if (sink_ && balancer_node_ != kInvalidNode) {
    auto sent = std::make_shared<const LoadReport>(std::move(report));
    network_.send(server_.node(), balancer_node_, sent->wire_size(),
                  [sink = sink_, sent] { sink(*sent); });
  }
}

}  // namespace dynamoth::core
