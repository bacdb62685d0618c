// Gap-detecting subscriber wrapper: at-least-once delivery on top of the
// standard Dynamoth subscription API (paper VII future work).
//
// Publications carry per-(publisher, channel) sequence numbers. The wrapper
// tracks the highest sequence seen per publisher; when a message arrives
// with a gap before it, a replay request is published on @rel:replay after a
// short reorder grace (reconfiguration can reorder deliveries without any
// loss). Recovered messages arrive on @rel:to:<client> and are handed to the
// application handler exactly once (the underlying dedup has already run;
// the wrapper keeps its own seen-set for replayed envelopes).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/channel_table.h"
#include "common/types.h"
#include "core/client.h"
#include "reliability/protocol.h"
#include "sim/simulator.h"

namespace dynamoth::rel {

class ReliableSubscriber {
 public:
  struct Config {
    /// Re-request cadence for gaps that stay open (lost requests/batches).
    /// A retry fires only when a check interval passes with NO progress —
    /// paced replay that is still streaming in is left alone.
    SimTime retry_interval = seconds(5);
    int max_retries = 4;
  };

  struct Stats {
    std::uint64_t delivered = 0;         // messages handed to handlers
    std::uint64_t gaps_detected = 0;     // missing-sequence spans noticed
    std::uint64_t replays_requested = 0; // request messages published
    std::uint64_t recovered = 0;         // gap messages filled by replay
    std::uint64_t gave_up = 0;           // gaps abandoned after max_retries

    /// Adds every counter of `other` (fleet-wide totals).
    Stats& operator+=(const Stats& other);
  };

  ReliableSubscriber(sim::Simulator& sim, core::DynamothClient& client, Config config);
  ~ReliableSubscriber();

  ReliableSubscriber(const ReliableSubscriber&) = delete;
  ReliableSubscriber& operator=(const ReliableSubscriber&) = delete;

  using MessageHandler = core::DynamothClient::MessageHandler;

  /// Subscribes to `channel` with loss detection + replay recovery.
  void subscribe(const Channel& channel, MessageHandler handler);
  void unsubscribe(const Channel& channel);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Open (unrecovered) gap spans across all channels.
  [[nodiscard]] std::size_t open_gaps() const;

 private:
  struct Gap {
    Channel channel;
    ClientId publisher = 0;
    std::uint64_t from_seq = 0;
    std::uint64_t to_seq = 0;
    int retries = 0;
  };
  struct ChannelState {
    Channel name;  // for replay-request protocol bodies
    MessageHandler handler;
    std::map<ClientId, std::uint64_t> last_seq;           // per publisher
    std::map<ClientId, std::set<std::uint64_t>> pending;  // missing seqs
  };

  void on_message(ChannelId cid, const ps::EnvelopePtr& env);
  void on_replay(const ps::EnvelopePtr& env);
  void check_gap(ChannelId cid, ClientId publisher);
  /// Publishes a replay request for the still-missing span and arms the
  /// progress-checked retry timer. `retry` counts consecutive no-progress
  /// intervals; `last_missing` is the pending count at the previous check.
  void request_replay(ChannelId cid, ClientId publisher, int retry,
                      std::size_t last_missing);

  sim::Simulator& sim_;
  core::DynamothClient& client_;
  Config config_;
  /// Keyed by interned id: the per-delivery on_message lookup hashes 4 bytes
  /// instead of the channel string, and the timer lambdas capture the id —
  /// small enough to stay inline in the scheduler's callback buffer.
  /// Iterated only by open_gaps() (an order-insensitive sum).
  std::unordered_map<ChannelId, ChannelState> channels_;
  Stats stats_;
  std::shared_ptr<bool> alive_;
};

}  // namespace dynamoth::rel
