// Bridges the fault injector onto a live Cluster: FaultTarget calls turn
// into Cluster crash/restart operations and Network fault hooks. While two
// or more servers are live, all of them are crashable, consistent-hash ring
// members included: the experiments that drive it push plans eagerly, so
// the emergency rebalance can re-home a dead ring owner's channels.
#pragma once

#include <map>
#include <set>

#include "fault/fault_target.h"
#include "harness/cluster.h"

namespace dynamoth::harness {

class ClusterFaultAdapter final : public fault::FaultTarget {
 public:
  explicit ClusterFaultAdapter(Cluster& cluster) : cluster_(cluster) {}

  [[nodiscard]] std::vector<ServerId> crashable_servers() const override;
  [[nodiscard]] std::vector<ServerId> crashed_servers() const override {
    return cluster_.crashed_servers();
  }
  [[nodiscard]] std::vector<ServerId> live_servers() const override {
    return cluster_.server_ids();
  }

  void crash_server(ServerId server) override { cluster_.crash_server(server); }
  void restart_server(ServerId server) override { cluster_.restart_server(server); }
  void crash_dispatcher(ServerId server) override { cluster_.crash_dispatcher(server); }
  void restart_dispatcher(ServerId server) override { cluster_.restart_dispatcher(server); }

  void partition(const std::vector<ServerId>& group) override;
  void heal_partition() override;

  void set_server_loss(ServerId server, double rate) override;
  void set_server_extra_latency(ServerId server, SimTime extra) override;
  void degrade_egress(ServerId server, double factor) override;
  void restore_egress(ServerId server) override;

 private:
  Cluster& cluster_;
  /// Original egress line rates of currently degraded servers.
  std::map<ServerId, double> degraded_;
};

}  // namespace dynamoth::harness
