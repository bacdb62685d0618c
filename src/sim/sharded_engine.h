// Block-parallel simulation engine: K independent Simulators in lockstep.
//
// ROADMAP item 2(b), DESIGN.md section 15. The single-threaded engine in
// simulator.h stays exactly as it is; this layer runs K of them — one per
// *shard*, each on its own thread with its own event queue, slab, envelope
// pool, channel table and RNG streams — and synchronizes them with the
// classic conservative-PDES epoch scheme:
//
//   epoch:  drain boundary mailboxes -> publish next-event time -> BARRIER
//           -> everyone computes epoch_end = min(T, min_next + lookahead - 1)
//           -> run_until(epoch_end) -> BARRIER -> repeat
//
// `lookahead` is the minimum cross-shard delivery latency: an event a shard
// executes at time s may only post boundary work with at >= s + lookahead,
// so while every shard runs events with time <= epoch_end < min_next +
// lookahead, nothing a peer is concurrently executing can affect it. Merged
// boundary events therefore always land strictly in the destination's
// future, and each epoch's end is fast-forwarded past idle gaps by the
// min-next-event reduction (a GVT computation, degenerate because the
// barrier makes it exact).
//
// Determinism: for a fixed (seed, K) the run is bit-reproducible. Within a
// shard the single-threaded engine is already deterministic; across shards,
// every mailbox is drained in ascending source-shard order and FIFO within
// a source, so merged events are scheduled (and so ordered among equal
// times) in an order that does not depend on thread scheduling. K = 1 short-circuits the epoch
// machinery entirely — no threads are spawned, the factory and every
// callback run on the caller's thread (sharing its thread-local pools), and
// the single run_until is byte-identical to the unsharded engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/boundary.h"
#include "sim/epoch_barrier.h"
#include "sim/simulator.h"

namespace dynamoth::sim {

/// One block of the partitioned simulation. Implementations own a complete
/// single-threaded world (for Dynamoth: a Cluster plus its game region) and
/// expose its Simulator to the engine. All methods run on the shard's
/// thread.
class Shard {
 public:
  virtual ~Shard() = default;

  /// The shard's private event engine.
  virtual Simulator& simulator() = 0;

  /// Delivers one boundary event posted by `src` during an earlier epoch.
  /// Called during drain phases, in ascending src order, FIFO within a src.
  /// Implementations typically schedule local work at ev.at (guaranteed to
  /// be > simulator().now()); they must NOT call ShardedEngine::post() from
  /// here — posting is only legal while the epoch's run phase executes.
  virtual void on_boundary(std::size_t src, const BoundaryEvent& ev) = 0;
};

struct ShardedEngineConfig {
  /// Number of blocks. 1 = inline mode: no threads, no barriers.
  std::size_t shards = 1;
  /// Conservative lookahead: the minimum cross-shard delivery latency.
  /// Every post() must satisfy ev.at >= src_now + lookahead. Must be > 0
  /// when shards > 1 (it bounds epoch length, so it is also the progress
  /// guarantee).
  SimTime lookahead = 0;
};

class ShardedEngine {
 public:
  using ShardFactory = std::function<std::unique_ptr<Shard>(std::size_t shard_id)>;
  using VisitFn = std::function<void(Shard&)>;

  explicit ShardedEngine(const ShardedEngineConfig& cfg);
  /// Destroys every shard on its owning thread (their envelopes and
  /// refcounts must release into that thread's pools), then joins.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Spawns the worker threads and calls factory(i) on shard i's own thread
  /// (i = 0 runs on the caller's thread), so every thread-local service the
  /// shard touches binds to the thread that will run it. Call exactly once.
  void build(const ShardFactory& factory);

  /// Enqueues `ev` for delivery to shard `dst`. Legal only from shard
  /// `src`'s thread while its run phase executes; the event is handed to
  /// dst->on_boundary() at the next drain phase. The lookahead contract
  /// (ev.at >= src's now + lookahead) is DCHECKed here.
  void post(std::size_t src, std::size_t dst, const BoundaryEvent& ev);

  /// Runs every shard to simulated time `t` in lockstep epochs. Blocks the
  /// calling thread (which executes shard 0). May be called repeatedly with
  /// increasing t; chunking is transparent.
  void run_until(SimTime t);

  /// Runs `fn(shard)` on shard i's thread and waits for it to finish. Use
  /// this for anything that touches thread-bound state: construction of
  /// clients, result extraction that releases envelopes, teardown.
  void visit(std::size_t shard_id, const VisitFn& fn);

  /// visit() over every shard in ascending order (sequentially).
  void visit_all(const VisitFn& fn);

  /// Direct access for idle-engine reads of plain data (test assertions on
  /// counters and the like). Anything involving refcounts, pools or interned
  /// ids must go through visit() instead.
  [[nodiscard]] Shard& shard(std::size_t shard_id);

  [[nodiscard]] std::size_t shard_count() const { return cfg_.shards; }
  [[nodiscard]] SimTime lookahead() const { return cfg_.lookahead; }

  struct Stats {
    std::uint64_t epochs = 0;           // lockstep epochs completed
    std::uint64_t boundary_events = 0;  // total cross-shard posts
  };
  [[nodiscard]] Stats stats() const;

 private:
  // Worker command protocol: the coordinator (caller thread) serializes one
  // command at a time to each persistent worker; workers execute and ack.
  enum class Cmd { kNone, kBuild, kRun, kVisit, kExit };

  struct Worker;

  // Per-shard scratch touched from that shard's thread during epochs; padded
  // so neighbouring shards' writes never share a cache line.
  struct alignas(64) PerShard {
    SimTime next = 0;            // published next-event time (drain phase)
    std::uint64_t posted = 0;    // lifetime boundary posts (stats)
    bool draining = false;       // DCHECK guard: no post() from on_boundary
  };

  void worker_main(std::size_t shard_id);
  void epoch_loop(std::size_t shard_id, SimTime t);
  void drain(std::size_t shard_id);
  void issue_all(Cmd cmd);
  void await_all();

  const ShardedEngineConfig cfg_;
  bool built_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<BoundaryBuffer> mailboxes_;  // src-major: [src * K + dst]
  std::vector<PerShard> per_shard_;
  EpochBarrier barrier_;

  // Command payload, valid while a command is outstanding.
  const ShardFactory* factory_ = nullptr;
  const VisitFn* visit_fn_ = nullptr;
  std::size_t visit_target_ = 0;
  SimTime run_target_ = 0;

  std::vector<std::unique_ptr<Worker>> workers_;  // shards 1..K-1
  std::uint64_t epochs_ = 0;                      // written by shard 0 only
};

}  // namespace dynamoth::sim
