// Deterministic discrete-event simulator.
//
// All Dynamoth components (pub/sub servers, dispatchers, LLAs, the load
// balancer, clients, game players) are actors driven by callbacks scheduled
// on a single Simulator. Events at equal timestamps fire in scheduling order,
// which makes every experiment bit-reproducible.
//
// Engine layout (this is the hottest loop in the repo — the scalability
// experiments execute tens of millions of events):
//  - Callbacks are SmallFunction<void(), 48>: capture lists up to 48 bytes
//    (a shared_ptr'd envelope plus a deliver function) live inline, so the
//    common schedule does not touch the allocator.
//  - Callback storage is a slab of fixed-size blocks with generation-stamped
//    slots chained through a free list. Blocks are never moved, so growing
//    the slab relocates nothing and slot addresses are stable — callbacks
//    are invoked in place, not moved out first.
//  - The priority queue is a 4-ary heap of 24-byte POD entries
//    (time, seq, slot, generation): half the depth of a binary heap, hole
//    percolation instead of swaps, and sifts never touch callables.
//  - Cancellation is O(1) and hash-free: bump the slot's generation; the pop
//    loop discards heap entries whose stamped generation no longer matches.
//    (The previous engine kept an unordered_set of live event ids, costing a
//    node allocation plus two hashed operations per event.)
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/small_function.h"
#include "common/types.h"

namespace dynamoth::sim {

/// Sentinel slab index for "no event".
inline constexpr std::uint32_t kNoEventSlot = 0xFFFF'FFFF;

/// Sentinel returned by Simulator::next_event_time() for an empty queue.
inline constexpr SimTime kNoNextEvent = std::numeric_limits<SimTime>::max();

/// Handle to a scheduled event; used for cancellation. Default-constructed
/// handles are inert (cancel() returns false). A handle names a slab slot at
/// a specific generation, so it stays invalid after the event fires, is
/// cancelled, or its slot is reused.
struct EventId {
  std::uint32_t slot = kNoEventSlot;
  std::uint32_t generation = 0;

  friend bool operator==(const EventId&, const EventId&) = default;
};

class Simulator {
 public:
  using Callback = SmallFunction<void(), 48>;

  Simulator() { heap_.resize(kHeapBase); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now()). Returns a handle usable
  /// with cancel(). Defined inline so that, for callers passing a fresh
  /// lambda, the Callback materializes directly in the event slot with no
  /// intermediate moves.
  EventId schedule_at(SimTime t, Callback cb) {
    DYN_CHECK(t >= now_);
    DYN_CHECK(cb != nullptr);
    const std::uint32_t s = acquire_slot(std::move(cb));
    const std::uint32_t generation = slot(s).generation;
    heap_push(HeapItem{t, next_seq_++, s, generation});
    ++live_;
    return EventId{s, generation};
  }

  /// Schedules `cb` after `delay` (>= 0) from now.
  EventId schedule_after(SimTime delay, Callback cb) {
    DYN_CHECK(delay >= 0);
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns true if it was pending (not yet fired
  /// or previously cancelled). O(1): bumps the slot generation; the heap
  /// entry is discarded lazily when it reaches the root.
  bool cancel(const EventId& id) {
    if (id.slot >= slot_count_) return false;
    Slot& s = slot(id.slot);
    if (s.generation != id.generation) return false;
    s.cb = nullptr;
    ++s.generation;  // kills the heap entry; discarded lazily at the root
    s.next_free = free_head_;
    free_head_ = id.slot;
    --live_;
    return true;
  }

  /// Time of the earliest pending event, or kNoNextEvent when the queue is
  /// empty. Cancelled entries at the root are discarded first, so the answer
  /// is exact. The block-parallel engine's epoch fast-forward reduces this
  /// across shards to bound each lockstep epoch (DESIGN.md section 15).
  [[nodiscard]] SimTime next_event_time() {
    drop_dead_roots();
    return heap_empty() ? kNoNextEvent : heap_root().time;
  }

  /// Runs a single event. Returns false if the queue is empty.
  bool step();

  /// Runs until the queue is empty or stop() is called.
  void run();

  /// Runs all events with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t);

  /// Runs for `duration` of simulated time from now.
  void run_for(SimTime duration) { run_until(now_ + duration); }

  /// Stops run()/run_until() after the current event returns.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t pending_events() const { return live_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  /// Slab slot holding one scheduled callback. The generation distinguishes
  /// successive occupants of the same slot; it is bumped on every release
  /// (fire or cancel), so outstanding EventIds and heap entries stamped with
  /// an older generation are dead. (Generations are 32-bit; a stale handle
  /// would only false-match after 2^32 reuses of one slot while it is held,
  /// which no caller pattern approaches.)
  /// Exactly one cache line: 48 inline callback bytes + vtable pointer (56)
  /// + generation + free-list link. Keeps every schedule/fire touching a
  /// single aligned line.
  struct alignas(64) Slot {
    Callback cb;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoEventSlot;
  };
  static_assert(sizeof(Slot) == 64);

  /// Min-heap entry: plain data, cheap to sift. Padded to 32 bytes so a
  /// 4-child sibling group spans exactly 128 bytes (two cache lines) instead
  /// of straddling three.
  struct HeapItem {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    std::uint64_t pad = 0;

    // Min-heap on (time, seq): strict FIFO among same-time events. Written
    // with bitwise ops so the data-dependent comparisons in heap sifts
    // compile to flag arithmetic + cmov instead of unpredictable branches.
    bool later_than(const HeapItem& other) const {
      return bool(time > other.time) | (bool(time == other.time) & bool(seq > other.seq));
    }
  };
  static_assert(sizeof(HeapItem) == 32);

  // 4-ary heap layout: logical node k lives at physical index k + 3, i.e.
  // the root is at kHeapBase = 3 and the children of physical node i are
  // {4i-8 .. 4i-5}. The +3 shift makes every sibling group start at an index
  // divisible by 4, so a group of four 32-byte items spans exactly two cache
  // lines instead of straddling three. Indices 0..2 are unused padding.
  static constexpr std::size_t kHeapBase = 3;
  static constexpr std::size_t heap_child(std::size_t i) { return 4 * i - 8; }
  static constexpr std::size_t heap_parent(std::size_t i) { return ((i - 4) >> 2) + 3; }

  // Slab blocks hold 4096 slots each; block addresses are stable for the
  // simulator's lifetime.
  static constexpr std::uint32_t kSlabBlockBits = 12;
  static constexpr std::uint32_t kSlabBlockSize = 1u << kSlabBlockBits;

  [[nodiscard]] Slot& slot(std::uint32_t i) {
    return slab_[i >> kSlabBlockBits][i & (kSlabBlockSize - 1)];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t i) const {
    return slab_[i >> kSlabBlockBits][i & (kSlabBlockSize - 1)];
  }

  std::uint32_t acquire_slot(Callback&& cb) {
    std::uint32_t s = free_head_;
    if (s != kNoEventSlot) {
      free_head_ = slot(s).next_free;
    } else {
      if (slot_count_ == slab_.size() * kSlabBlockSize) grow_slab();
      s = slot_count_++;
    }
    slot(s).cb = std::move(cb);
    return s;
  }

  void heap_push(HeapItem item) {
    std::size_t i = heap_.size();
    heap_.push_back(item);
    // Hole percolation: shift later parents down, write the item once.
    while (i > kHeapBase) {
      const std::size_t parent = heap_parent(i);
      if (!heap_[parent].later_than(item)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = item;
  }

  [[nodiscard]] bool heap_empty() const { return heap_.size() == kHeapBase; }
  [[nodiscard]] const HeapItem& heap_root() const { return heap_[kHeapBase]; }

  void grow_slab();  // cold path: appends one slab block
  /// Fires the heap root (must be live). Pops it, advances the clock, invokes
  /// the callback in place, then frees the slot.
  void fire_root();
  void heap_pop_root();
  /// Discards root entries whose slot generation no longer matches (fired is
  /// impossible — firing pops — so these are cancellations).
  void drop_dead_roots();

  std::vector<HeapItem> heap_;
  std::vector<std::unique_ptr<Slot[]>> slab_;
  std::uint32_t slot_count_ = 0;  // slab high-water mark
  std::uint32_t free_head_ = kNoEventSlot;
  std::size_t live_ = 0;  // scheduled, not yet fired/cancelled
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

/// Repeating task helper: reschedules itself every `period` until cancelled
/// or its Simulator drains. Used by LLAs (1 s metric windows), the load
/// balancer, player AI ticks, and metric samplers.
class PeriodicTask {
 public:
  /// Move-only with 48 inline capture bytes: constructing a periodic task
  /// (LLA windows, balancer rounds, player ticks) does not heap-allocate.
  using TickFn = SmallFunction<void(), 48>;

  PeriodicTask(Simulator& sim, SimTime period, TickFn fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTask() { stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Starts ticking; first tick after one period (or `initial_delay`).
  void start();
  void start_after(SimTime initial_delay);

  /// Stops future ticks. Safe to call repeatedly or from within the tick.
  void stop();

  /// Re-paces the task (cohort resize: the aggregate publish rate follows
  /// the member count). A pending tick keeps its already-scheduled deadline;
  /// ticks after it use the new period. Deterministic: no events move.
  void set_period(SimTime period) {
    DYN_CHECK(period > 0);
    period_ = period;
  }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] SimTime period() const { return period_; }

 private:
  void arm(SimTime delay);

  Simulator& sim_;
  SimTime period_;
  TickFn fn_;
  EventId pending_{};
  bool running_ = false;
};

}  // namespace dynamoth::sim
