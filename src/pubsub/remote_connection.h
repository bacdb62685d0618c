// Client-side stub for a connection to one PubSubServer.
//
// Commands (SUBSCRIBE / UNSUBSCRIBE / PUBLISH) are transported over the
// simulated network from the client's node to the server's node before the
// server processes them; deliveries travel back through the server's egress
// port, the WAN link, and the per-connection drain. This is the "standard
// Redis client library" layer the Dynamoth client library builds on.
#pragma once

#include <functional>
#include <memory>

#include "common/small_function.h"
#include "common/types.h"
#include "net/network.h"
#include "pubsub/envelope.h"
#include "pubsub/server.h"
#include "sim/simulator.h"

namespace dynamoth::ps {

class RemoteConnection {
 public:
  /// Per-message path: move-only, inline captures (see PubSubServer::DeliverFn).
  using DeliverFn = SmallFunction<void(const EnvelopePtr&), 48>;
  using ClosedFn = std::function<void(CloseReason)>;

  /// Opens a connection from `client_node` to `server`. Delivery and close
  /// callbacks run on the client side (after transport).
  RemoteConnection(sim::Simulator& sim, net::Network& network, NodeId client_node,
                   PubSubServer& server, DeliverFn on_deliver, ClosedFn on_closed);
  ~RemoteConnection();

  RemoteConnection(const RemoteConnection&) = delete;
  RemoteConnection& operator=(const RemoteConnection&) = delete;

  void subscribe(const Channel& channel);
  void unsubscribe(const Channel& channel);
  void psubscribe(const std::string& pattern);
  void punsubscribe(const std::string& pattern);
  void publish(EnvelopePtr env);
  /// Declares this connection's multiplicity (cohort mode): it stands in
  /// for `weight` identical clients. Rides the command stream like any
  /// other command, so a weight update ordered before a SUBSCRIBE is
  /// processed before it.
  void update_weight(std::uint32_t weight);

  /// Client-initiated close. Idempotent.
  void close();

  [[nodiscard]] bool open() const { return open_; }
  [[nodiscard]] PubSubServer& server() const { return server_; }
  [[nodiscard]] ServerId server_id() const { return server_.node(); }
  [[nodiscard]] ConnId conn_id() const { return conn_; }

 private:
  /// Shared guard for callbacks that outlive this stub (in-flight commands
  /// and deliveries): `self` is nulled by the destructor, so a callback
  /// checks one pointer instead of locking a weak_ptr, and the capture is a
  /// single shared_ptr (16 bytes) — publish command callbacks fit inline in
  /// the network's 48-byte callback buffer where the old per-command
  /// std::function wrapper forced two heap allocations per message.
  struct Ctx {
    RemoteConnection* self = nullptr;
  };

  /// TCP-RST path, shared by every command callback: a *running* server that
  /// no longer knows the connection resets it. This is how a client whose
  /// close notification was lost (dropped by a partition, or the server
  /// crashed and came back) finally learns the connection is dead — the next
  /// command it sends bounces. Suppressed when the stub already knows
  /// (nobody listens to a reset on a closed socket). Cold by construction,
  /// hence out of line.
  static void bounce_reset(const std::shared_ptr<Ctx>& ctx, PubSubServer* srv);

  /// Ships an already-built command callback to the server, preserving
  /// per-connection FIFO arrival (a TCP-like stream).
  void send_command(std::size_t bytes, net::Network::DeliverFn action);

  sim::Simulator& sim_;
  net::Network& network_;
  NodeId client_node_;
  PubSubServer& server_;
  ConnId conn_ = kInvalidConn;
  SimTime last_cmd_arrival_ = 0;  // per-connection FIFO (TCP-like stream)
  bool open_ = false;
  std::shared_ptr<Ctx> ctx_;
  /// The user's delivery callback. The wrapper the server holds reaches it
  /// through ctx_, so it runs only while this stub is alive. A handler may
  /// destroy the stub while deliver_ runs (the client drops connections to
  /// dead servers), so neither the wrapper nor deliver_ may touch their
  /// captures after the handler returns.
  DeliverFn deliver_;
  /// The user's close callback; the reset path can fire it (through ctx_)
  /// even though the server-side close wrapper is already gone.
  ClosedFn closed_;
};

}  // namespace dynamoth::ps
