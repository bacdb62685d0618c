// Exact duplicate filter for message ids, used by the Dynamoth client library
// to drop publications that arrive through more than one pub/sub server during
// reconfiguration (paper Section IV-A3: "globally unique message identifiers").
//
// A MessageId is {origin, per-origin seq}, so the set of ids already delivered
// is, per origin, a sorted list of disjoint seq ranges. Gaps between ranges are
// seqs this subscriber has not received: messages on channels it does not
// hold, lost messages, and reordered messages still in flight. Every
// received publication runs one insert(), so the layout serves the common
// case first:
//
//  - an open-addressed origin index (linear probing, power-of-two size), so
//    finding an origin is one hash and, typically, one probe;
//  - the origin's newest range {lo, hi} lives inline in its slot, so an
//    in-order arrival is that probe plus `hi = seq`;
//  - older ranges sit in a side list per origin, touched only by arrivals
//    that jump ahead or land below the newest range.
//
// The filter is exact: however many other ids arrive in between, insert()
// returns true exactly once per id, unless the id falls in a gap closed by the
// one bound, kMaxRangesPerOrigin. When an origin would exceed that many
// ranges, the oldest gap (lowest seqs) is closed: its ids read as already
// delivered from then on, and gaps_closed() counts the closure. A duplicate
// therefore never gets through; a first copy that arrives inside a closed gap
// is dropped, which counts as loss. Recovering such a message is the
// reliability layer's job (its replay batches deliver straight to the
// application, not through this filter).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/types.h"

namespace dynamoth {

/// Seq ranges retained per origin before the oldest gap is closed. Every
/// figure, smoke, test and benchmark workload stays below it (peak 382, in
/// the flash-crowd property test). Only the overloaded 10^5- and 10^6-user
/// fig_scale points reach it (DESIGN.md section 9.3).
inline constexpr std::size_t kMaxRangesPerOrigin = 2048;

class SeenIds {
 public:
  /// Records `id`. Returns true on its first sighting, false for a duplicate
  /// (or for an id inside a gap closed by the range cap).
  bool insert(const MessageId& id) {
    const std::uint64_t seq = id.seq;
    Slot* slot = find(id.origin);
    if (slot == nullptr) {
      add(id.origin, seq);
      return true;
    }
    if (seq > slot->hi) {
      if (seq - slot->hi == 1) {  // in order
        slot->hi = seq;
        return true;
      }
      // Jump ahead: the newest range becomes an older one.
      std::vector<Range>& older = older_of(*slot);
      older.push_back(Range{slot->lo, slot->hi});
      slot->lo = slot->hi = seq;
      enforce_cap(older);
      return true;
    }
    if (seq >= slot->lo) return false;
    return insert_below(*slot, seq);
  }

  /// Origins seen so far.
  [[nodiscard]] std::size_t origins() const { return size_; }

  /// Disjoint seq ranges held for `origin` (0 if it was never seen).
  [[nodiscard]] std::size_t ranges(std::uint64_t origin) const {
    const Slot* slot = find(origin);
    if (slot == nullptr) return 0;
    return 1 + (slot->older == kNoList ? 0 : older_[slot->older].size());
  }

  /// Gaps closed because an origin hit kMaxRangesPerOrigin.
  [[nodiscard]] std::uint64_t gaps_closed() const { return gaps_closed_; }

 private:
  static constexpr std::uint32_t kNoList = 0xFFFFFFFFu;

  struct Range {
    std::uint64_t lo;
    std::uint64_t hi;
  };

  /// One origin: its newest range inline, older ranges in older_[older].
  /// An empty slot has lo > hi.
  struct Slot {
    std::uint64_t origin = 0;
    std::uint64_t lo = 1;
    std::uint64_t hi = 0;
    std::uint32_t older = kNoList;
  };

  [[nodiscard]] std::size_t home(std::uint64_t origin) const {
    return static_cast<std::size_t>((origin * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  const Slot* find(std::uint64_t origin) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(origin);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.lo > slot.hi) return nullptr;
      if (slot.origin == origin) return &slot;
    }
  }
  Slot* find(std::uint64_t origin) {
    return const_cast<Slot*>(std::as_const(*this).find(origin));
  }

  void add(std::uint64_t origin, std::uint64_t seq) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();  // load factor <= 3/4
    place(Slot{origin, seq, seq, kNoList});
    ++size_;
  }

  void place(const Slot& fresh) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(fresh.origin);
    while (slots_[i].lo <= slots_[i].hi) i = (i + 1) & mask;
    slots_[i] = fresh;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
    slots_.assign(capacity, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& slot : old) {
      if (slot.lo <= slot.hi) place(slot);
    }
  }

  std::vector<Range>& older_of(Slot& slot) {
    if (slot.older == kNoList) {
      slot.older = static_cast<std::uint32_t>(older_.size());
      older_.emplace_back();
    }
    return older_[slot.older];
  }

  /// seq < slot.lo: fills a gap below the newest range (or extends below
  /// the lowest range).
  bool insert_below(Slot& slot, std::uint64_t seq) {
    if (slot.older == kNoList && seq + 1 == slot.lo) {  // downward extension
      slot.lo = seq;
      return true;
    }
    std::vector<Range>& older = older_of(slot);
    // First range ending at or above seq; seq lies in it or in the gap below.
    const auto next = std::lower_bound(older.begin(), older.end(), seq,
                                       [](const Range& r, std::uint64_t v) { return r.hi < v; });
    if (next != older.end() && next->lo <= seq) return false;
    const bool joins_prev = next != older.begin() && std::prev(next)->hi + 1 == seq;
    std::uint64_t& next_lo = next != older.end() ? next->lo : slot.lo;
    const bool joins_next = seq + 1 == next_lo;
    if (joins_prev && joins_next) {
      next_lo = std::prev(next)->lo;
      older.erase(std::prev(next));
    } else if (joins_prev) {
      std::prev(next)->hi = seq;
    } else if (joins_next) {
      next_lo = seq;
    } else {
      older.insert(next, Range{seq, seq});
      enforce_cap(older);
    }
    return true;
  }

  /// Holds an origin to kMaxRangesPerOrigin ranges (older + the inline one)
  /// by merging its two lowest ranges.
  void enforce_cap(std::vector<Range>& older) {
    if (older.size() < kMaxRangesPerOrigin) return;
    older[1].lo = older[0].lo;
    older.erase(older.begin());
    ++gaps_closed_;
  }

  std::vector<Slot> slots_;
  std::vector<std::vector<Range>> older_;  // sorted, disjoint, below the inline range
  std::size_t size_ = 0;
  unsigned shift_ = 64;
  std::uint64_t gaps_closed_ = 0;
};

}  // namespace dynamoth
