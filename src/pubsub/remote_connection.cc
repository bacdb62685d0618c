#include "pubsub/remote_connection.h"

#include <utility>

#include "common/check.h"

namespace dynamoth::ps {

RemoteConnection::RemoteConnection(sim::Simulator& sim, net::Network& network,
                                   NodeId client_node, PubSubServer& server,
                                   DeliverFn on_deliver, ClosedFn on_closed)
    : sim_(sim),
      network_(network),
      client_node_(client_node),
      server_(server),
      ctx_(std::make_shared<Ctx>()),
      deliver_(std::move(on_deliver)),
      closed_(std::move(on_closed)) {
  ctx_->self = this;
  conn_ = server_.open_connection(
      client_node_,
      // Captures only the guard (16 bytes), so the server's callback holds
      // it inline; the user's callback stays here in deliver_.
      deliver_ ? PubSubServer::DeliverFn([ctx = ctx_](const EnvelopePtr& env) {
                   if (RemoteConnection* self = ctx->self) self->deliver_(env);
                 })
               : nullptr,
      // The open_ check makes the close callback one-shot: a server-sent
      // close notification and a connection reset can race (e.g. an overflow
      // close whose notification was delayed), and the client must hear
      // about the drop exactly once.
      [ctx = ctx_](CloseReason reason) {
        RemoteConnection* self = ctx->self;
        if (self != nullptr && self->open_) {
          self->open_ = false;
          if (self->closed_) self->closed_(reason);
        }
      });
  open_ = true;
}

RemoteConnection::~RemoteConnection() {
  ctx_->self = nullptr;
  if (open_ && server_.running()) server_.close_connection(conn_);
}

void RemoteConnection::send_command(std::size_t bytes, net::Network::DeliverFn action) {
  if (!open_) return;
  // Commands on one connection arrive in order (it models a TCP stream):
  // clamp each arrival to the previous one. Without this, a SUBSCRIBE could
  // overtake the preceding control-channel subscription and the dispatcher
  // would not know whom to correct.
  last_cmd_arrival_ = network_.send(client_node_, server_.node(), bytes, std::move(action),
                                    /*extra_delay=*/0, /*min_arrival=*/last_cmd_arrival_);
}

void RemoteConnection::bounce_reset(const std::shared_ptr<Ctx>& ctx, PubSubServer* srv) {
  RemoteConnection* self = ctx->self;
  if (self == nullptr || !self->open_) return;
  self->network_.send(srv->node(), self->client_node_, kMsgOverheadBytes,
                      [ctx] {
                        RemoteConnection* s = ctx->self;
                        if (s != nullptr && s->open_) {
                          s->open_ = false;
                          if (s->closed_) s->closed_(CloseReason::kConnectionReset);
                        }
                      });
}

void RemoteConnection::subscribe(const Channel& channel) {
  const std::size_t bytes = kMsgOverheadBytes + channel.size();
  send_command(bytes, [ctx = ctx_, srv = &server_, conn = conn_, channel] {
    if (!srv->running()) return;  // dead host: the command just vanishes
    if (srv->connection_alive(conn)) {
      srv->handle_subscribe(conn, channel);
      return;
    }
    bounce_reset(ctx, srv);
  });
}

void RemoteConnection::unsubscribe(const Channel& channel) {
  const std::size_t bytes = kMsgOverheadBytes + channel.size();
  send_command(bytes, [ctx = ctx_, srv = &server_, conn = conn_, channel] {
    if (!srv->running()) return;
    if (srv->connection_alive(conn)) {
      srv->handle_unsubscribe(conn, channel);
      return;
    }
    bounce_reset(ctx, srv);
  });
}

void RemoteConnection::psubscribe(const std::string& pattern) {
  const std::size_t bytes = kMsgOverheadBytes + pattern.size();
  send_command(bytes, [ctx = ctx_, srv = &server_, conn = conn_, pattern] {
    if (!srv->running()) return;
    if (srv->connection_alive(conn)) {
      srv->handle_psubscribe(conn, pattern);
      return;
    }
    bounce_reset(ctx, srv);
  });
}

void RemoteConnection::punsubscribe(const std::string& pattern) {
  const std::size_t bytes = kMsgOverheadBytes + pattern.size();
  send_command(bytes, [ctx = ctx_, srv = &server_, conn = conn_, pattern] {
    if (!srv->running()) return;
    if (srv->connection_alive(conn)) {
      srv->handle_punsubscribe(conn, pattern);
      return;
    }
    bounce_reset(ctx, srv);
  });
}

void RemoteConnection::update_weight(std::uint32_t weight) {
  const std::size_t bytes = kMsgOverheadBytes + sizeof(weight);
  send_command(bytes, [ctx = ctx_, srv = &server_, conn = conn_, weight] {
    if (!srv->running()) return;
    if (srv->connection_alive(conn)) {
      srv->handle_update_weight(conn, weight);
      return;
    }
    bounce_reset(ctx, srv);
  });
}

void RemoteConnection::publish(EnvelopePtr env) {
  DYN_CHECK(env != nullptr);
  const std::size_t bytes = wire_size(*env, kMsgOverheadBytes);
  // 40 capture bytes (guard + server + conn + envelope ref): inline in the
  // network callback — the steady-state publish command allocates nothing.
  send_command(bytes, [ctx = ctx_, srv = &server_, conn = conn_, env = std::move(env)] {
    if (!srv->running()) return;
    if (srv->connection_alive(conn)) {
      srv->handle_publish(conn, env);
      return;
    }
    bounce_reset(ctx, srv);
  });
}

void RemoteConnection::close() {
  if (!open_) return;
  open_ = false;
  if (server_.running()) server_.close_connection(conn_);
}

}  // namespace dynamoth::ps
