// Experiment harness: assembles a complete Dynamoth deployment inside one
// simulator — network, pub/sub servers with colocated LLA + dispatcher, the
// cloud provisioner, an optional Dynamoth balancer (whose placement policy
// also runs the consistent-hashing comparator), and clients.
//
// This is the emulation counterpart of the paper's 80-machine lab setup
// (V-B): servers live on infrastructure nodes behind LAN latencies, clients
// on client nodes behind King-sampled WAN latencies.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/client.h"
#include "core/cloud.h"
#include "core/consistent_hash.h"
#include "core/dispatcher.h"
#include "core/lla.h"
#include "core/load_balancer.h"
#include "core/registry.h"
#include "latency/latency_model.h"
#include "net/network.h"
#include "pubsub/server.h"
#include "sim/simulator.h"

namespace dynamoth::harness {

struct ClusterConfig {
  std::uint64_t seed = 42;
  std::size_t initial_servers = 1;

  /// Advertised maximum outgoing bandwidth T_i per pub/sub server. The NIC
  /// line rate is headroom x T_i, so the measured load ratio can exceed 1
  /// before hard saturation (the paper observes Redis failing near 1.15).
  double server_capacity = 1.5e6;
  double server_nic_headroom = 1.15;
  double client_egress = 12.5e6;

  ps::PubSubServer::Config pubsub;
  core::LocalLoadAnalyzer::Config lla;  // advertised_capacity overwritten
  core::Dispatcher::Config dispatcher;
  core::Cloud::Config cloud;

  /// WAN latency: synthetic King model by default; fixed for unit-style runs.
  net::KingModelParams king;
  bool fixed_latency = false;
  SimTime fixed_latency_value = millis(40);
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ---- fabric access ----
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] core::ServerRegistry& registry() { return registry_; }
  [[nodiscard]] core::Cloud& cloud() { return *cloud_; }
  [[nodiscard]] const std::shared_ptr<const core::ConsistentHashRing>& base_ring() const {
    return base_ring_;
  }
  [[nodiscard]] Rng fork_rng(std::string_view name) const { return root_rng_.fork(name); }

  // ---- servers ----
  /// Spawns a pub/sub server (+ LLA + dispatcher) on a fresh node; also the
  /// Cloud's spawn factory.
  ServerId spawn_server();
  void despawn_server(ServerId id);

  [[nodiscard]] std::vector<ServerId> server_ids() const { return registry_.ids(); }
  [[nodiscard]] std::size_t active_servers() const { return registry_.size(); }
  [[nodiscard]] ps::PubSubServer& server(ServerId id) { return registry_.get(id); }
  [[nodiscard]] core::Dispatcher& dispatcher(ServerId id);
  [[nodiscard]] core::LocalLoadAnalyzer& lla(ServerId id);

  // ---- fault injection ----
  /// Hard-kills the whole stack on a node: server, LLA and dispatcher die
  /// instantly and silently (no close notifications reach clients — they
  /// find out from timeouts / resets). The VM stays rented, so billing
  /// keeps running until restart_server() or despawn_server().
  void crash_server(ServerId id);
  /// Boots a fresh, empty stack on the crashed server's node. Same ServerId,
  /// none of the old subscriptions or forwarding state.
  void restart_server(ServerId id);
  /// Kills only the dispatcher process: the pub/sub server keeps serving
  /// local subscribers but cross-server forwarding and plan updates stop.
  void crash_dispatcher(ServerId id);
  void restart_dispatcher(ServerId id);
  [[nodiscard]] bool crashed(ServerId id) const { return crashed_.contains(id); }
  [[nodiscard]] std::vector<ServerId> crashed_servers() const {
    return {crashed_.begin(), crashed_.end()};
  }

  // ---- balancer (at most one) ----
  core::DynamothLoadBalancer& use_dynamoth(core::DynamothLoadBalancer::Config config);
  [[nodiscard]] core::DynamothLoadBalancer* balancer() { return balancer_.get(); }
  /// Node the balancer runs on (kInvalidNode before use_dynamoth). The
  /// eager-propagation ablation charges its broadcast traffic to this node.
  [[nodiscard]] NodeId balancer_node() const { return balancer_node_; }

  /// Installs a plan directly on every dispatcher (micro-benchmarks that fix
  /// the configuration by hand, as the paper's Experiment 1 does).
  void install_plan(core::Plan plan);

  // ---- clients ----
  /// Creates a Dynamoth client on its own WAN client node.
  core::DynamothClient& add_client(core::DynamothClient::Config config = {});

  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  /// Total bytes sent by infrastructure nodes (the cloud's billable egress).
  [[nodiscard]] std::uint64_t infrastructure_egress_bytes() const;

  /// Dollar cost of the deployment so far under `model`: server rental
  /// hours plus client-facing egress (paper future work VII).
  [[nodiscard]] double estimated_cost(const core::CostModel& model = {}) const;

 private:
  struct ServerStack {
    ServerId id = kInvalidServer;
    std::unique_ptr<ps::PubSubServer> server;
    std::unique_ptr<core::LocalLoadAnalyzer> lla;
    std::unique_ptr<core::Dispatcher> dispatcher;
  };

  /// Connects a server's LLA to the balancer (direct monitoring path).
  void wire_balancer(ServerStack& stack);
  /// Direct LB -> dispatcher plan transport (paper IV-A1).
  void deliver_plan(ServerId server, const core::PlanPtr& plan);

  ClusterConfig config_;
  Rng root_rng_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  core::ServerRegistry registry_;
  std::shared_ptr<core::ConsistentHashRing> base_ring_mut_;
  std::shared_ptr<const core::ConsistentHashRing> base_ring_;
  std::unique_ptr<core::Cloud> cloud_;
  std::unique_ptr<core::DynamothLoadBalancer> balancer_;
  NodeId balancer_node_ = kInvalidNode;

  std::map<ServerId, ServerStack> stacks_;      // live + retired (kept alive)
  /// Stacks replaced by restart_server(); in-flight callbacks may still
  /// reference the dead incarnation, so it must outlive the simulation.
  std::vector<ServerStack> graveyard_;
  std::set<ServerId> crashed_;
  std::map<ServerId, std::uint64_t> restart_counts_;
  std::vector<std::unique_ptr<core::DynamothClient>> clients_;
  ClientId next_client_id_ = 1;
  std::uint64_t next_plan_id_ = 1'000'000;  // manual plans, above balancer ids
};

}  // namespace dynamoth::harness
