// Control payloads, the LLA's load report, and the control-channel naming
// scheme.
//
// Dispatcher traffic rides the pub/sub substrate as ordinary publications on
// reserved "@ctl:" channels, as in the paper's implementation ("all
// inter-component communications are done using the pub/sub primitives"):
//   @ctl:c:<client-id>  per-client channel; each client subscribes to it on
//                       every server it connects to, so the local dispatcher
//                       can send it wrong-server replies (kWrongServer).
//   @ctl:disp           per-server dispatcher inbox (drain notices).
// Control channels are excluded from load metrics and never appear in plans.
//
// LLA reports and plans do not ride the substrate: each LLA sends its
// LoadReport straight to the load balancer node, and the balancer sends each
// plan straight to every dispatcher (paper Figure 1, IV-A1), so neither
// queues behind a saturated data plane (DESIGN.md section 6).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/plan.h"
#include "pubsub/envelope.h"

namespace dynamoth::core {

inline constexpr const char* kCtlPrefix = "@ctl:";
inline constexpr const char* kDispatcherChannel = "@ctl:disp";

[[nodiscard]] inline bool is_control_channel(const Channel& c) {
  return c.rfind(kCtlPrefix, 0) == 0;
}

[[nodiscard]] inline Channel client_control_channel(ClientId client) {
  return std::string("@ctl:c:") + std::to_string(client);
}

/// kSwitch (on the data channel, old server) and kWrongServer (on the
/// publisher's control channel): carries the fresh entry for one channel.
struct EntryUpdateBody final : ps::ControlBody {
  Channel channel;
  PlanEntry entry;

  [[nodiscard]] std::size_t wire_size() const override {
    return 24 + channel.size() + 4 * entry.servers.size();
  }
};

/// Per-channel metrics for one measurement window on one server (paper
/// III-A: number/list of publishers, publications, subscribers, sent
/// messages, bytes in/out).
struct ChannelStats {
  std::uint64_t publications = 0;  // publishes processed in the window
  std::uint64_t deliveries = 0;    // messages sent to subscribers
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint32_t subscribers = 0;   // current client subscriptions
  /// Client connections receiving this channel through a pattern (weighted,
  /// like subscribers). Kept separate so the balancer can fold pattern
  /// listeners into replication/migration decisions without double counting
  /// them as plain subscriptions (DESIGN.md section 14).
  std::uint32_t pattern_subscribers = 0;
  std::uint32_t publishers = 0;    // distinct publishers seen in the window
  std::uint64_t cpu_us = 0;        // server CPU attributed to this channel
};

/// One LLA report: all channels on one server for one window, plus the
/// NIC-level bandwidth figures the load ratio is computed from.
struct LoadReport {
  ServerId server = kInvalidServer;
  SimTime window_start = 0;
  SimTime window_end = 0;
  double measured_out_bytes_per_sec = 0;  // M_i
  double advertised_capacity = 0;         // T_i
  /// Fraction of the window the server's CPU was busy, in [0, 1]. The
  /// paper's balancer ignores CPU ("not a limiting factor" on their
  /// hardware, III-A); CPU-aware balancing is its stated future work (VII)
  /// and is implemented behind DynamothLoadBalancer::Config::cpu_aware.
  double cpu_utilization = 0;
  std::map<Channel, ChannelStats> channels;

  [[nodiscard]] double load_ratio() const {
    return advertised_capacity > 0 ? measured_out_bytes_per_sec / advertised_capacity : 0;
  }

  /// Bytes the report costs on the LLA -> balancer link.
  [[nodiscard]] std::size_t wire_size() const {
    std::size_t bytes = 48;
    for (const auto& [channel, _] : channels) bytes += channel.size() + 40;
    return bytes;
  }
};

/// kDrainNotice: old-owner dispatcher tells the new owner that no local
/// subscribers remain for `channel`, so cross-forwarding can stop early
/// (paper IV-A5).
struct DrainNoticeBody final : ps::ControlBody {
  Channel channel;
  ServerId drained_server = kInvalidServer;

  [[nodiscard]] std::size_t wire_size() const override { return 16 + channel.size(); }
};

}  // namespace dynamoth::core
