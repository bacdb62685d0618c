#include "net/network.h"

#include <algorithm>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::net {

Network::Network(sim::Simulator& sim, std::unique_ptr<LatencyModel> latency, Rng rng)
    : sim_(sim), latency_(std::move(latency)), rng_(rng) {
  DYN_CHECK(latency_ != nullptr);
}

NodeId Network::add_node(const NodeConfig& config) {
  DYN_CHECK(config.egress_bytes_per_sec > 0);
  nodes_.push_back(Node{config, sim_.now(), {}, true});
  return static_cast<NodeId>(nodes_.size() - 1);
}

SimTime Network::send(NodeId from, NodeId to, std::size_t bytes, DeliverFn on_deliver,
                      SimTime extra_delay, SimTime min_arrival) {
  DYN_CHECK(from < nodes_.size() && to < nodes_.size());
  DYN_CHECK(extra_delay >= 0);
  // Single-send entry point; the implementation lives inline in the header
  // (send_impl) and is shared verbatim with FanoutBatch::push.
  return send_impl(nodes_[from], nodes_[to], from, to, bytes, 1, std::move(on_deliver),
                   extra_delay, min_arrival);
}

NodeKind Network::kind(NodeId node) const {
  DYN_CHECK(node < nodes_.size());
  return nodes_[node].config.kind;
}

bool Network::active(NodeId node) const {
  DYN_CHECK(node < nodes_.size());
  return nodes_[node].active;
}

void Network::set_active(NodeId node, bool active) {
  DYN_CHECK(node < nodes_.size());
  nodes_[node].active = active;
}

double Network::egress_capacity(NodeId node) const {
  DYN_CHECK(node < nodes_.size());
  return nodes_[node].config.egress_bytes_per_sec;
}

void Network::set_egress_capacity(NodeId node, double bytes_per_sec) {
  DYN_CHECK(node < nodes_.size());
  DYN_CHECK(bytes_per_sec > 0);
  nodes_[node].config.egress_bytes_per_sec = bytes_per_sec;
}

SimTime Network::egress_backlog(NodeId node) const {
  DYN_CHECK(node < nodes_.size());
  return std::max<SimTime>(0, nodes_[node].egress_free - sim_.now());
}

const EgressCounters& Network::counters(NodeId node) const {
  DYN_CHECK(node < nodes_.size());
  return nodes_[node].counters;
}

std::uint64_t Network::transmitted_bytes(NodeId node) const {
  DYN_CHECK(node < nodes_.size());
  const Node& n = nodes_[node];
  const SimTime backlog = std::max<SimTime>(0, n.egress_free - sim_.now());
  const auto backlog_bytes = static_cast<std::uint64_t>(
      to_seconds(backlog) * n.config.egress_bytes_per_sec);
  return n.counters.bytes_sent > backlog_bytes ? n.counters.bytes_sent - backlog_bytes : 0;
}

void Network::set_partition_group(NodeId node, std::uint32_t group) {
  DYN_CHECK(node < nodes_.size());
  nodes_[node].partition_group = group;
  refresh_faults_active();
}

std::uint32_t Network::partition_group(NodeId node) const {
  DYN_CHECK(node < nodes_.size());
  return nodes_[node].partition_group;
}

void Network::clear_partitions() {
  for (Node& n : nodes_) n.partition_group = 0;
  refresh_faults_active();
}

void Network::set_node_loss(NodeId node, double rate) {
  DYN_CHECK(node < nodes_.size());
  DYN_CHECK(rate >= 0 && rate < 1);
  nodes_[node].loss = rate;
  refresh_faults_active();
}

std::vector<Network::LinkLoss>::const_iterator Network::find_link_loss(
    std::uint64_t key) const {
  const auto it = std::lower_bound(
      link_loss_.begin(), link_loss_.end(), key,
      [](const LinkLoss& entry, std::uint64_t k) { return entry.key < k; });
  return it != link_loss_.end() && it->key == key ? it : link_loss_.end();
}

void Network::set_link_loss(NodeId from, NodeId to, double rate) {
  DYN_CHECK(from < nodes_.size() && to < nodes_.size());
  DYN_CHECK(rate >= 0 && rate < 1);
  const std::uint64_t key = link_key(from, to);
  const auto it = std::lower_bound(
      link_loss_.begin(), link_loss_.end(), key,
      [](const LinkLoss& entry, std::uint64_t k) { return entry.key < k; });
  const bool present = it != link_loss_.end() && it->key == key;
  if (rate == 0) {
    if (present) link_loss_.erase(it);
  } else if (present) {
    const auto idx = it - link_loss_.begin();
    link_loss_[static_cast<std::size_t>(idx)].rate = rate;
  } else {
    link_loss_.insert(it, LinkLoss{key, rate});
  }
  refresh_faults_active();
}

void Network::set_fault_extra_latency(NodeId node, SimTime extra) {
  DYN_CHECK(node < nodes_.size());
  DYN_CHECK(extra >= 0);
  nodes_[node].fault_extra_latency = extra;
  refresh_faults_active();
}

void Network::refresh_faults_active() {
  faults_active_ = !link_loss_.empty();
  if (faults_active_) return;
  for (const Node& n : nodes_) {
    if (n.partition_group != 0 || n.loss > 0 || n.fault_extra_latency > 0) {
      faults_active_ = true;
      return;
    }
  }
}

std::uint64_t Network::total_infrastructure_messages() const {
  std::uint64_t total = 0;
  for (const Node& n : nodes_) {
    if (n.config.kind == NodeKind::kInfrastructure) total += n.counters.messages_sent;
  }
  return total;
}

}  // namespace dynamoth::net
