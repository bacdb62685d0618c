#include "harness/fault_adapter.h"

namespace dynamoth::harness {

std::vector<ServerId> ClusterFaultAdapter::crashable_servers() const {
  std::vector<ServerId> live = cluster_.server_ids();
  if (live.size() <= 1) return {};  // never take the whole fleet down
  return live;
}

void ClusterFaultAdapter::partition(const std::vector<ServerId>& group) {
  net::Network& net = cluster_.network();
  net.clear_partitions();
  for (ServerId s : group) net.set_partition_group(s, 1);
}

void ClusterFaultAdapter::heal_partition() { cluster_.network().clear_partitions(); }

void ClusterFaultAdapter::set_server_loss(ServerId server, double rate) {
  cluster_.network().set_node_loss(server, rate);
}

void ClusterFaultAdapter::set_server_extra_latency(ServerId server, SimTime extra) {
  cluster_.network().set_fault_extra_latency(server, extra);
}

void ClusterFaultAdapter::degrade_egress(ServerId server, double factor) {
  net::Network& net = cluster_.network();
  // Remember the rate from before the *first* degradation; stacking a second
  // one rescales from the original, not the already-degraded rate.
  auto [it, fresh] = degraded_.try_emplace(server, net.egress_capacity(server));
  net.set_egress_capacity(server, it->second * std::clamp(factor, 0.01, 1.0));
}

void ClusterFaultAdapter::restore_egress(ServerId server) {
  auto it = degraded_.find(server);
  if (it == degraded_.end()) return;
  cluster_.network().set_egress_capacity(server, it->second);
  degraded_.erase(it);
}

}  // namespace dynamoth::harness
