// Replay service: persistence-based reliability (paper VII future work).
//
// Runs on an infrastructure node as an ordinary Dynamoth client. For every
// channel it covers, it subscribes like any subscriber (so it receives the
// same stream, through the same plans and reconfigurations) and records the
// publications in a bounded HistoryStore. Subscribers that detect a sequence
// gap publish a ReplayRequest on @rel:replay; the service answers with the
// missing envelopes on the requester's @rel:to:<id> channel. Original
// message ids are preserved, so client-side dedup makes redelivery
// idempotent.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>

#include "common/channel_table.h"
#include "core/client.h"
#include "sim/simulator.h"
#include "reliability/history_store.h"
#include "reliability/protocol.h"

namespace dynamoth::rel {

class ReplayService {
 public:
  struct Config {
    std::size_t history_per_channel = 4096;
    /// Replay is paced: recovered messages are sent in chunks of at most
    /// `chunk_bytes`, one chunk every `chunk_interval`, so the replay burst
    /// itself cannot overflow the recovering subscriber's output buffer.
    std::size_t chunk_bytes = 2048;
    SimTime chunk_interval = millis(750);
  };

  struct Stats {
    std::uint64_t recorded = 0;
    std::uint64_t requests = 0;
    std::uint64_t replayed = 0;       // messages sent back
    std::uint64_t unavailable = 0;    // requested but evicted/never seen
  };

  /// `client` must live on an infrastructure node (it subscribes broadly and
  /// must not be counted as an application subscriber by the LLAs).
  ReplayService(sim::Simulator& sim, core::DynamothClient& client, Config config);

  ReplayService(const ReplayService&) = delete;
  ReplayService& operator=(const ReplayService&) = delete;

  /// Starts listening for replay requests.
  void start();

  /// Begins covering `channel`: subscribe + record history.
  void cover(const Channel& channel);
  void uncover(const Channel& channel);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const HistoryStore& store() const { return store_; }
  [[nodiscard]] bool covering(const Channel& channel) const {
    const ChannelId cid = ChannelTable::instance().find(channel);
    return cid != kInvalidChannelId && covered_.contains(cid);
  }

 private:
  void on_covered_message(const ps::EnvelopePtr& env);
  void on_request(const ps::EnvelopePtr& env);

  sim::Simulator& sim_;
  core::DynamothClient& client_;
  Config config_;
  HistoryStore store_;
  std::unordered_set<ChannelId> covered_;  // interned; never iterated
  Stats stats_;
  std::shared_ptr<bool> alive_;
  bool started_ = false;
};

}  // namespace dynamoth::rel
