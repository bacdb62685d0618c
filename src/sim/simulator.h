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
//  - The ready queue is a monotone radix queue (a radix heap, Ahuja,
//    Mehlhorn, Orlin, Tarjan 1990, with 16-way digits) of 24-byte POD
//    entries (time, slot, generation, spare). Every schedule has time >=
//    now(), so keys only grow past the last pop; an entry waits in the
//    bucket named by the highest hex digit in which its time differs from
//    the queue's base time, and moves to a lower bucket only when the base
//    catches up with it. Push is O(1); each entry moves at most once per
//    hex digit of its distance. See the "Ready queue" block below for the
//    same-time FIFO argument.
//  - Cancellation is O(1) and hash-free: bump the slot's generation; the pop
//    loop discards queue entries whose stamped generation no longer matches.
#pragma once

#include <bit>
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

  Simulator() = default;
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
    queue_push(QueueItem{t, s, generation});
    ++live_;
    return EventId{s, generation};
  }

  /// Schedules `cb` after `delay` (>= 0) from now.
  EventId schedule_after(SimTime delay, Callback cb) {
    DYN_CHECK(delay >= 0);
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns true if it was pending (not yet fired
  /// or previously cancelled). O(1): bumps the slot generation; the queue
  /// entry is discarded lazily when it reaches the front.
  bool cancel(const EventId& id) {
    if (id.slot >= slot_count_) return false;
    Slot& s = slot(id.slot);
    if (s.generation != id.generation) return false;
    s.cb = nullptr;
    ++s.generation;  // kills the queue entry; discarded lazily at the front
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
    return settle_root() ? front_[front_head_].time : kNoNextEvent;
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
  /// (fire or cancel), so outstanding EventIds and queue entries stamped with
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

  /// Ready-queue entry: plain data, cheap to move between buckets. There is
  /// no sequence number: every container below keeps its entries in
  /// scheduling order, which is all that same-time FIFO needs. The spare
  /// bytes leave room for a per-event tag (such as an event category byte)
  /// without growing the entry.
  struct QueueItem {
    SimTime time;
    std::uint32_t slot;
    std::uint32_t generation;
    std::uint64_t spare = 0;
  };
  static_assert(sizeof(QueueItem) == 24);

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

  // ---- Ready queue ----
  //
  // Entries with time <= base_ sit in the front run, front_[front_head_..],
  // sorted by (time, scheduling order); the head is the next event. Entries
  // with time > base_ sit in buckets keyed by (level, digit): the highest
  // 4-bit digit in which the time differs from base_, and the time's value
  // in that digit (see bucket_of). Each bucket is an append-only FIFO list
  // of chunks. When the front run empties, refill() takes the lowest
  // non-empty bucket, raises base_ to its minimum time and redistributes its
  // entries: those at the new base go to the front run, the rest to lower
  // buckets, which were empty. Same-time FIFO follows by
  // induction: a bucket receives entries either as fresh schedules (the
  // newest so far) or as an in-order pass over one older bucket while it is
  // empty, so every bucket and the refilled front run stay in scheduling
  // order without a sequence number or a sort.
  //
  // A peek (next_event_time, the stop test of run_until) refills without
  // firing, so base_ can run ahead of now(). A schedule at now() <= t <
  // base_ is then legal and must fire before the base's entries: it is
  // inserted into the front run after every entry of time <= t (it is the
  // newest, so it goes last among equal times).
  //
  // Bucket storage is bounded by the queued entries plus one partly filled
  // chunk per bucket: chunks come from one free list shared by all buckets
  // and are recycled as soon as a refill has read them. The front run is a
  // single vector whose capacity is the largest front run so far. Nothing is
  // reserved up front: a fresh Simulator allocates on its first schedules.
  static constexpr std::uint32_t kChunkItems = 42;  // a chunk is ~1 KiB
  static constexpr int kDigitBits = 4;
  static constexpr int kDigits = 1 << kDigitBits;
  static constexpr int kBuckets = 64 / kDigitBits * kDigits;

  struct Chunk {
    Chunk* next = nullptr;
    QueueItem items[kChunkItems];
  };
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::uint32_t tail_size = 0;  // entries in the tail chunk
    SimTime min = 0;              // earliest time in the bucket
  };

  void queue_push(const QueueItem& item) {
    if (item.time > base_) {
      bucket_push(item);
    } else if (item.time == base_) {
      front_push_back(item);
    } else {
      insert_below_base(item);
    }
  }

  /// Bucket of an entry with time > base_: level = the highest 4-bit digit
  /// in which its time differs from base_, then that digit's value. Bucket
  /// indices grow with (level, digit), so the lowest non-empty bucket holds
  /// the earliest entries.
  [[nodiscard]] int bucket_of(SimTime t) const {
    const int level = (std::bit_width(static_cast<std::uint64_t>(t ^ base_)) - 1) / kDigitBits;
    const int digit = static_cast<int>(static_cast<std::uint64_t>(t) >> (level * kDigitBits)) & (kDigits - 1);
    return level * kDigits + digit;
  }

  void bucket_push(const QueueItem& item) {
    const int b = bucket_of(item.time);
    Bucket& k = buckets_[b];
    std::uint64_t& word = bucket_mask_[b / 64];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    if ((word & bit) == 0) {
      word |= bit;
      k.head = k.tail = take_chunk();
      k.tail_size = 0;
      k.min = item.time;
    } else {
      if (item.time < k.min) k.min = item.time;
      if (k.tail_size == kChunkItems) {
        Chunk* c = take_chunk();
        k.tail->next = c;
        k.tail = c;
        k.tail_size = 0;
      }
    }
    k.tail->items[k.tail_size++] = item;
  }

  void front_push_back(const QueueItem& item) {
    if (front_.size() == front_.capacity() && front_head_ > 0) compact_front();
    front_.push_back(item);
  }

  Chunk* take_chunk() {
    Chunk* c = free_chunks_;
    if (c == nullptr) return new_chunk();
    free_chunks_ = c->next;
    c->next = nullptr;
    return c;
  }

  /// Makes the next event the front run's head, discarding cancelled
  /// entries on the way. Returns false when no event is pending.
  bool settle_root() {
    for (;;) {
      if (front_head_ == front_.size() && !refill()) return false;
      const QueueItem& root = front_[front_head_];
      if (slot(root.slot).generation == root.generation) return true;
      ++front_head_;  // cancelled: discard lazily
    }
  }

  void grow_slab();  // cold path: appends one slab block
  Chunk* new_chunk();  // cold path: the free list is empty
  /// Moves the lowest bucket into the front run (which must be empty) and
  /// lower buckets. Returns false when every bucket is empty.
  bool refill();
  void compact_front();
  void insert_below_base(const QueueItem& item);
  /// Fires the front run's head (must be live): pops it, advances the clock,
  /// invokes the callback in place, then frees the slot.
  void fire_root();

  std::vector<QueueItem> front_;
  std::size_t front_head_ = 0;  // front_[..front_head_) is consumed
  SimTime base_ = 0;
  std::uint64_t bucket_mask_[kBuckets / 64] = {};  // bit b: buckets_[b] non-empty
  Bucket buckets_[kBuckets];
  Chunk* free_chunks_ = nullptr;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // owns every chunk
  std::vector<std::unique_ptr<Slot[]>> slab_;
  std::uint32_t slot_count_ = 0;  // slab high-water mark
  std::uint32_t free_head_ = kNoEventSlot;
  std::size_t live_ = 0;  // scheduled, not yet fired/cancelled
  SimTime now_ = 0;
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
