#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dynamoth::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired = -1;
  sim.schedule_at(seconds(5), [&] {
    sim.schedule_after(seconds(2), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, seconds(7));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(seconds(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, StaleHandleNeverTouchesTheSlotsNextOccupant) {
  // Cancelling frees the slot and the next schedule reuses it with a bumped
  // generation: the stale handle must neither cancel nor disturb the new
  // occupant.
  Simulator sim;
  int stale_fired = 0;
  int fresh_fired = 0;
  const EventId stale = sim.schedule_at(millis(1), [&] { ++stale_fired; });
  ASSERT_TRUE(sim.cancel(stale));

  const EventId fresh = sim.schedule_at(millis(2), [&] { ++fresh_fired; });
  ASSERT_EQ(fresh.slot, stale.slot);
  ASSERT_NE(fresh.generation, stale.generation);
  EXPECT_FALSE(sim.cancel(stale));

  sim.run();
  EXPECT_EQ(stale_fired, 0);
  EXPECT_EQ(fresh_fired, 1);
  EXPECT_FALSE(sim.cancel(fresh));  // dead after firing too
}

TEST(Simulator, NextEventTimeSkipsCancelledRootAndKeepsLiveHandles) {
  // next_event_time() (the sharded engine's epoch reduction hook) discards
  // cancelled roots; a later live event stays valid and fires.
  Simulator sim;
  int fired = 0;
  const EventId cancelled = sim.schedule_at(millis(1), [&] { fired = -100; });
  const EventId kept = sim.schedule_at(millis(2), [&] { ++fired; });
  ASSERT_TRUE(sim.cancel(cancelled));

  EXPECT_EQ(sim.next_event_time(), millis(2));
  EXPECT_EQ(sim.next_event_time(), millis(2));  // the peek is idempotent
  EXPECT_EQ(sim.pending_events(), 1u);

  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(kept));
  EXPECT_EQ(sim.next_event_time(), kNoNextEvent);
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(10), [&] { ++fired; });
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(5));
  sim.run_until(seconds(10));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_for(seconds(2));
  sim.run_for(seconds(3));
  EXPECT_EQ(sim.now(), seconds(5));
}

TEST(Simulator, EventAtBoundaryOfRunUntilFires) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(seconds(5), [&] { ran = true; });
  sim.run_until(seconds(5));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(seconds(1), recurse);
  };
  sim.schedule_after(seconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), seconds(10));
}

TEST(Simulator, ExecutedEventsCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool ordered = true;
  // Pseudo-random times, inserted out of order.
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sim.schedule_at(static_cast<SimTime>(x % 1'000'000), [&, t = static_cast<SimTime>(x % 1'000'000)] {
      if (t < last) ordered = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(ordered);
}

TEST(Simulator, ScheduleBelowAPeekedRootFiresFirstInOrder) {
  // A peek (next_event_time, or run_until's stop test) finds the next event
  // without firing it. Schedules made afterwards between now() and that
  // event's time must still fire first, in (time, scheduling) order.
  Simulator sim;
  std::string order;
  const auto mark = [&order](char c) { return [&order, c] { order.push_back(c); }; };
  sim.schedule_at(1000, mark('a'));
  sim.schedule_at(1000, mark('b'));
  sim.schedule_at(5000, mark('c'));
  ASSERT_EQ(sim.next_event_time(), 1000);

  sim.schedule_at(500, mark('d'));
  sim.schedule_at(0, mark('e'));
  sim.schedule_at(500, mark('f'));
  sim.schedule_at(1000, mark('g'));
  sim.schedule_at(999, mark('h'));
  EXPECT_EQ(sim.next_event_time(), 0);

  sim.run_until(700);  // fires e, d, f; the stop test peeks h at 999
  EXPECT_EQ(order, "edf");
  sim.schedule_at(800, mark('i'));
  sim.schedule_at(700, mark('j'));
  sim.run();
  EXPECT_EQ(order, "edfjihabgc");
  EXPECT_EQ(sim.now(), 5000);
}

// Randomized differential check of the ready queue against a reference
// std::priority_queue on (time, seq): every event that fires must be the
// reference's earliest live entry, at the time the reference names. The mix
// covers delays from 0 to 2^40 us, same-time bursts, cancels (of the root
// too), events that schedule events, run_until to times between events, and
// next_event_time peeks, each followed by schedules below the peeked root.
class QueueDifferential {
 public:
  explicit QueueDifferential(std::uint64_t seed) : rng_(seed) {}

  /// Runs `ops` random driver operations, then drains the queue. Returns an
  /// empty string when the simulator matched the reference throughout.
  std::string run(int ops) {
    for (int i = 0; i < ops && error_.empty(); ++i) operation();
    if (error_.empty()) {
      sim_.run();
      if (ref_top() != kNoNextEvent) fail("run() left reference events pending");
    }
    if (error_.empty() && sim_.pending_events() != 0) fail("pending_events() is not 0 after run()");
    return error_;
  }

  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::uint64_t below_root_schedules() const { return below_root_; }

 private:
  enum class State : char { kPending, kFired, kCancelled };
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, seq)

  void operation() {
    const std::uint64_t r = rng_.next() % 100;
    if (r < 35) {
      schedule(sim_.now() + delay());
    } else if (r < 40) {
      const SimTime t = sim_.now() + delay();
      for (std::uint64_t n = 2 + rng_.next() % 15; n > 0; --n) schedule(t);
    } else if (r < 48) {
      cancel_recent();
    } else if (r < 51) {
      cancel_root();
    } else if (r < 82) {
      for (std::uint64_t n = 1 + rng_.next() % 4; n > 0 && error_.empty(); --n) step();
    } else if (r < 91) {
      run_until_between();
    } else {
      peek_then_schedule_below();
    }
  }

  /// 0 (same time), a few us, or anything up to 2^40 us.
  SimTime delay() {
    const std::uint64_t r = rng_.next();
    switch (r % 4) {
      case 0: return 0;
      case 1: return static_cast<SimTime>((r >> 8) % 64);
      default: {
        const std::uint64_t bits = (r >> 8) % 41;  // 0..40
        return static_cast<SimTime>((r >> 16) & ((std::uint64_t{1} << bits) - 1));
      }
    }
  }

  void schedule(SimTime t) {
    const std::uint64_t seq = ids_.size();
    ids_.push_back(sim_.schedule_at(t, [this, seq] { on_fire(seq); }));
    state_.push_back(State::kPending);
    ref_.emplace(t, seq);
  }

  void on_fire(std::uint64_t seq) {
    ++fired_;
    if (!error_.empty()) return;
    const SimTime top = ref_top();
    if (top == kNoNextEvent || ref_.top().second != seq || top != sim_.now()) {
      fail("fired seq " + std::to_string(seq) + " at " + std::to_string(sim_.now()) +
           ", reference root is seq " +
           (top == kNoNextEvent ? std::string("none") : std::to_string(ref_.top().second)) +
           " at " + std::to_string(top));
      return;
    }
    ref_.pop();
    state_[seq] = State::kFired;
    const std::uint64_t r = rng_.next();
    if (r % 4 == 0) schedule(sim_.now() + delay());       // events that schedule events
    if (r % 16 == 1) schedule(sim_.now());                // ... at the firing time itself
    if (r % 32 == 2) cancel_recent();
  }

  void cancel(std::uint64_t seq) {
    const bool pending = state_[seq] == State::kPending;
    if (sim_.cancel(ids_[seq]) != pending) {
      fail("cancel(seq " + std::to_string(seq) + ") disagreed with the reference");
      return;
    }
    if (pending) state_[seq] = State::kCancelled;
  }

  void cancel_recent() {
    if (ids_.empty()) return;
    const std::uint64_t window = std::min<std::uint64_t>(ids_.size(), 512);
    cancel(ids_.size() - 1 - rng_.next() % window);
  }

  void cancel_root() {
    if (ref_top() != kNoNextEvent) cancel(ref_.top().second);
  }

  void step() {
    const std::uint64_t before = fired_;
    const bool expect = ref_top() != kNoNextEvent;
    if (sim_.step() != expect) fail("step() disagreed on whether an event is pending");
    if (error_.empty() && fired_ != before + (expect ? 1 : 0)) fail("step() fired the wrong count");
  }

  /// run_until to a time strictly between pending events when it can, then
  /// schedules below the root its stop test peeked.
  void run_until_between() {
    SimTime t = sim_.now() + delay();
    const SimTime top = ref_top();
    if (top != kNoNextEvent && rng_.next() % 2 == 0 && top > sim_.now()) t = top - 1;
    sim_.run_until(t);
    if (!error_.empty()) return;
    if (sim_.now() != t) fail("run_until did not stop at its target");
    if (ref_top() <= t) fail("run_until left an event at or before its target");
    schedule_below_root();
  }

  void peek_then_schedule_below() {
    if (sim_.next_event_time() != ref_top()) {
      fail("next_event_time() disagreed with the reference");
      return;
    }
    schedule_below_root();
  }

  /// Schedules 1..4 events in [now, root], mostly strictly below the root.
  void schedule_below_root() {
    const SimTime top = ref_top();
    if (top == kNoNextEvent) return;
    const SimTime span = top - sim_.now();
    for (std::uint64_t n = 1 + rng_.next() % 4; n > 0; --n) {
      const std::uint64_t r = rng_.next();
      SimTime t = sim_.now();
      if (r % 8 == 0) {
        t = top;
      } else if (span > 0) {
        t += static_cast<SimTime>((r >> 8) % static_cast<std::uint64_t>(span));
      }
      if (t < top) ++below_root_;
      schedule(t);
    }
  }

  /// Earliest live reference time, or kNoNextEvent.
  SimTime ref_top() {
    while (!ref_.empty() && state_[ref_.top().second] != State::kPending) ref_.pop();
    return ref_.empty() ? kNoNextEvent : ref_.top().first;
  }

  void fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
  }

  Simulator sim_;
  Rng rng_;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ref_;
  std::vector<EventId> ids_;  // by seq
  std::vector<State> state_;  // by seq
  std::uint64_t fired_ = 0;
  std::uint64_t below_root_ = 0;
  std::string error_;
};

TEST(Simulator, PopOrderMatchesAReferencePriorityQueue) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    QueueDifferential diff(seed);
    EXPECT_EQ(diff.run(100'000), "") << "seed " << seed;
    EXPECT_GT(diff.fired(), 50'000u) << "seed " << seed;
    EXPECT_GT(diff.below_root_schedules(), 1'000u) << "seed " << seed;
  }
}

TEST(PeriodicTask, TicksAtPeriod) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, seconds(1), [&] { ++ticks; });
  task.start();
  sim.run_until(seconds(5) + millis(1));
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTask, StartAfterDelaysFirstTick) {
  Simulator sim;
  std::vector<SimTime> at;
  PeriodicTask task(sim, seconds(2), [&] { at.push_back(sim.now()); });
  task.start_after(seconds(5));
  sim.run_until(seconds(10));
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], seconds(5));
  EXPECT_EQ(at[1], seconds(7));
  EXPECT_EQ(at[2], seconds(9));
}

TEST(PeriodicTask, StopFromWithinTick) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, seconds(1), [&] {
    if (++ticks == 3) task.stop();
  });
  task.start();
  sim.run_until(seconds(10));
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, RestartResetsPhase) {
  Simulator sim;
  std::vector<SimTime> at;
  PeriodicTask task(sim, seconds(4), [&] { at.push_back(sim.now()); });
  task.start();
  sim.run_until(seconds(2));
  task.start();  // restart at t=2 -> next tick t=6
  sim.run_until(seconds(7));
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], seconds(6));
}

TEST(PeriodicTask, DestructorCancels) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTask task(sim, seconds(1), [&] { ++ticks; });
    task.start();
    sim.run_until(seconds(2));
  }
  sim.run_until(seconds(10));
  EXPECT_EQ(ticks, 2);
}

}  // namespace
}  // namespace dynamoth::sim
