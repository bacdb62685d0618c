#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::sim {

namespace {
// Sampled counter track for the event engine: one sample per 2^16 executed
// events keeps the flight recorder's share of the hot loop negligible even
// in DYNAMOTH_TRACING builds.
[[maybe_unused]] constexpr std::uint64_t kEngineSampleMask = (1u << 16) - 1;
}  // namespace

void Simulator::grow_slab() {
  DYN_CHECK(slot_count_ <= kNoEventSlot - kSlabBlockSize);
  slab_.push_back(std::make_unique<Slot[]>(kSlabBlockSize));
}

Simulator::Chunk* Simulator::new_chunk() {
  chunks_.push_back(std::make_unique<Chunk>());
  return chunks_.back().get();
}

bool Simulator::refill() {
  front_.clear();
  front_head_ = 0;
  int w = 0;
  while (bucket_mask_[w] == 0) {
    if (++w == kBuckets / 64) return false;
  }
  const int b = w * 64 + std::countr_zero(bucket_mask_[w]);
  bucket_mask_[w] &= bucket_mask_[w] - 1;
  const Bucket src = buckets_[b];
  base_ = src.min;
  // One in-order pass: every entry lands at the front (time == base_) or in
  // a bucket below b, all of which are empty, so scheduling order carries
  // over. Each chunk returns to the free list as soon as it is read.
  for (Chunk* c = src.head; c != nullptr;) {
    const std::uint32_t n = c == src.tail ? src.tail_size : kChunkItems;
    for (std::uint32_t i = 0; i < n; ++i) {
      const QueueItem& item = c->items[i];
      if (item.time == base_) {
        front_.push_back(item);
      } else {
        bucket_push(item);
      }
    }
    Chunk* next = c->next;
    c->next = free_chunks_;
    free_chunks_ = c;
    c = next;
  }
  return true;
}

void Simulator::compact_front() {
  front_.erase(front_.begin(), front_.begin() + static_cast<std::ptrdiff_t>(front_head_));
  front_head_ = 0;
}

void Simulator::insert_below_base(const QueueItem& item) {
  if (front_head_ == front_.size() &&
      std::all_of(std::begin(bucket_mask_), std::end(bucket_mask_), [](std::uint64_t w) { return w == 0; })) {
    // Nothing is pending: the base may simply move down to the new entry.
    base_ = item.time;
    front_push_back(item);
    return;
  }
  // The entry is the newest, so it goes after every entry of time <= its
  // own. The gap opens towards the consumed prefix when there is one: the
  // insertion point sits near the head, ahead of the base's entries.
  const auto first = front_.begin() + static_cast<std::ptrdiff_t>(front_head_);
  const auto pos = std::upper_bound(first, front_.end(), item.time,
                                    [](SimTime t, const QueueItem& q) { return t < q.time; });
  if (front_head_ > 0) {
    std::move(first, pos, first - 1);
    --front_head_;
    *(pos - 1) = item;
  } else {
    front_.insert(pos, item);
  }
}

void Simulator::fire_root() {
  const QueueItem item = front_[front_head_++];
  now_ = item.time;
  ++executed_;
  --live_;
  if constexpr (obs::kTraceHotCompiled) {
    if ((executed_ & kEngineSampleMask) == 0) {
      DYN_TRACE_HOT(counter(now_, kInvalidNode, "sim", "pending_events",
                            static_cast<double>(live_)));
    }
  }
  // Bump the generation before invoking: a cancel of the now-firing event
  // must report false. The slot is not on the free list yet, so callbacks
  // scheduling new events cannot clobber it, and slab addresses are stable,
  // so the callback runs in place without being moved out first.
  Slot& s = slot(item.slot);
  ++s.generation;
  s.cb();
  s.cb = nullptr;
  s.next_free = free_head_;
  free_head_ = item.slot;
}

bool Simulator::step() {
  if (!settle_root()) return false;
  fire_root();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && settle_root()) fire_root();
}

void Simulator::run_until(SimTime t) {
  DYN_CHECK(t >= now_);
  stopped_ = false;
  while (!stopped_ && settle_root() && front_[front_head_].time <= t) fire_root();
  if (!stopped_ && now_ < t) now_ = t;
}

void PeriodicTask::start() { start_after(period_); }

void PeriodicTask::start_after(SimTime initial_delay) {
  stop();
  running_ = true;
  arm(initial_delay);
}

void PeriodicTask::stop() {
  if (running_) sim_.cancel(pending_);
  running_ = false;
}

void PeriodicTask::arm(SimTime delay) {
  pending_ = sim_.schedule_after(delay, [this] {
    // Re-arm before the tick so the tick may call stop() to end the cycle.
    arm(period_);
    fn_();
  });
}

}  // namespace dynamoth::sim
