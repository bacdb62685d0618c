#include "sim/sharded_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dynamoth::sim {
namespace {

/// Minimal shard: records boundary deliveries as (time, src, payload) rows
/// and remembers which thread built it.
class TestShard : public Shard {
 public:
  explicit TestShard(std::size_t id) : id_(id), built_on_(std::this_thread::get_id()) {}

  Simulator& simulator() override { return sim_; }

  void on_boundary(std::size_t src, const BoundaryEvent& ev) override {
    sim_.schedule_at(ev.at, [this, src, ev] {
      log_.push_back({sim_.now(), src, ev.b});
    });
  }

  struct Row {
    SimTime at;
    std::size_t src;
    std::uint64_t payload;
    friend bool operator==(const Row&, const Row&) = default;
  };

  std::size_t id_;
  std::thread::id built_on_;
  Simulator sim_;
  std::vector<Row> log_;
};

TEST(ShardedEngine, SingleShardRunsInlineOnCallerThread) {
  ShardedEngine eng({.shards = 1, .lookahead = 0});
  eng.build([](std::size_t id) { return std::make_unique<TestShard>(id); });

  auto& s0 = static_cast<TestShard&>(eng.shard(0));
  EXPECT_EQ(s0.built_on_, std::this_thread::get_id());

  int fired = 0;
  s0.sim_.schedule_at(millis(5), [&] { ++fired; });
  eng.run_until(millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s0.sim_.now(), millis(10));
  EXPECT_EQ(eng.stats().boundary_events, 0u);
}

TEST(ShardedEngine, BuildAndVisitRunOnTheShardThread) {
  ShardedEngine eng({.shards = 3, .lookahead = millis(1)});
  eng.build([](std::size_t id) { return std::make_unique<TestShard>(id); });

  auto& s0 = static_cast<TestShard&>(eng.shard(0));
  auto& s1 = static_cast<TestShard&>(eng.shard(1));
  auto& s2 = static_cast<TestShard&>(eng.shard(2));
  EXPECT_EQ(s0.built_on_, std::this_thread::get_id());
  EXPECT_NE(s1.built_on_, std::this_thread::get_id());
  EXPECT_NE(s2.built_on_, s1.built_on_);

  for (std::size_t i = 0; i < 3; ++i) {
    eng.visit(i, [&](Shard& s) {
      EXPECT_EQ(std::this_thread::get_id(), static_cast<TestShard&>(s).built_on_);
    });
  }
}

TEST(ShardedEngine, CrossShardPostDeliversAtPostedTime) {
  constexpr std::size_t kShards = 3;
  ShardedEngine eng({.shards = kShards, .lookahead = millis(10)});
  eng.build([&eng](std::size_t id) {
    auto shard = std::make_unique<TestShard>(id);
    TestShard* raw = shard.get();
    // At t = 1ms each shard posts its id to its clockwise neighbour,
    // arriving one lookahead later.
    raw->sim_.schedule_at(millis(1), [&eng, raw] {
      eng.post(raw->id_, (raw->id_ + 1) % kShards,
               BoundaryEvent{.at = raw->sim_.now() + millis(10), .b = raw->id_});
    });
    return shard;
  });

  eng.run_until(millis(100));

  for (std::size_t i = 0; i < kShards; ++i) {
    auto& s = static_cast<TestShard&>(eng.shard(i));
    const std::size_t src = (i + kShards - 1) % kShards;
    ASSERT_EQ(s.log_.size(), 1u) << "shard " << i;
    EXPECT_EQ(s.log_[0], (TestShard::Row{millis(11), src, src}));
    EXPECT_EQ(s.sim_.now(), millis(100));
  }
  EXPECT_EQ(eng.stats().boundary_events, kShards);
}

TEST(ShardedEngine, TokenRelayHopsAcrossManyEpochs) {
  // A token circles the ring: each arrival immediately posts the next hop at
  // now + lookahead. Every hop forces a fresh epoch, so this exercises the
  // drain -> reduce -> run cycle end to end.
  constexpr std::size_t kShards = 4;
  constexpr int kHops = 25;
  struct RelayShard : TestShard {
    RelayShard(std::size_t id, ShardedEngine* eng) : TestShard(id), eng_(eng) {}
    void on_boundary(std::size_t src, const BoundaryEvent& ev) override {
      sim_.schedule_at(ev.at, [this, src, ev] {
        log_.push_back({sim_.now(), src, ev.b});
        if (ev.b > 0) {
          eng_->post(id_, (id_ + 1) % kShards,
                     BoundaryEvent{.at = sim_.now() + millis(5), .b = ev.b - 1});
        }
      });
    }
    ShardedEngine* eng_;
  };

  ShardedEngine eng({.shards = kShards, .lookahead = millis(5)});
  eng.build([&eng](std::size_t id) {
    auto shard = std::make_unique<RelayShard>(id, &eng);
    RelayShard* raw = shard.get();
    if (id == 0) {
      raw->sim_.schedule_at(0, [&eng, raw] {
        eng.post(0, 1, BoundaryEvent{.at = millis(5), .b = kHops});
      });
    }
    return shard;
  });

  eng.run_until(seconds(1));

  int total = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    auto& s = static_cast<TestShard&>(eng.shard(i));
    for (const auto& row : s.log_) {
      // Hop h (counting down from kHops) lands at h-th multiple of 5 ms.
      EXPECT_EQ(row.at, millis(5) * (kHops - static_cast<int>(row.payload) + 1));
      ++total;
    }
  }
  EXPECT_EQ(total, kHops + 1);
  EXPECT_EQ(eng.stats().boundary_events, static_cast<std::uint64_t>(kHops + 1));
  EXPECT_GE(eng.stats().epochs, static_cast<std::uint64_t>(kHops));
}

TEST(ShardedEngine, MergeOrderIsSourceShardThenFifo) {
  // Shards 1..3 all post to shard 0 with the SAME delivery time; shard 2
  // posts twice. The merged firing order must be (src ascending, FIFO
  // within src) regardless of thread scheduling.
  ShardedEngine eng({.shards = 4, .lookahead = millis(1)});
  eng.build([&eng](std::size_t id) {
    auto shard = std::make_unique<TestShard>(id);
    TestShard* raw = shard.get();
    if (id > 0) {
      raw->sim_.schedule_at(0, [&eng, raw] {
        eng.post(raw->id_, 0, BoundaryEvent{.at = millis(2), .b = raw->id_ * 10});
        if (raw->id_ == 2) {
          eng.post(raw->id_, 0, BoundaryEvent{.at = millis(2), .b = 21});
        }
      });
    }
    return shard;
  });

  eng.run_until(millis(10));

  auto& s0 = static_cast<TestShard&>(eng.shard(0));
  ASSERT_EQ(s0.log_.size(), 4u);
  EXPECT_EQ(s0.log_[0], (TestShard::Row{millis(2), 1, 10}));
  EXPECT_EQ(s0.log_[1], (TestShard::Row{millis(2), 2, 20}));
  EXPECT_EQ(s0.log_[2], (TestShard::Row{millis(2), 2, 21}));
  EXPECT_EQ(s0.log_[3], (TestShard::Row{millis(2), 3, 30}));
}

TEST(ShardedEngine, EpochFastForwardSkipsIdleGaps) {
  // Ten events spaced one second apart with a 1 ms lookahead: the next-event
  // reduction must jump epoch ends to the work, not crawl in 1 ms steps
  // (which would need ~10000 epochs).
  ShardedEngine eng({.shards = 2, .lookahead = millis(1)});
  eng.build([](std::size_t id) {
    auto shard = std::make_unique<TestShard>(id);
    TestShard* raw = shard.get();
    for (int k = 1; k <= 10; ++k) {
      raw->sim_.schedule_at(seconds(k), [raw] { raw->log_.push_back({raw->sim_.now(), 0, 0}); });
    }
    return shard;
  });

  eng.run_until(seconds(11));

  EXPECT_EQ(static_cast<TestShard&>(eng.shard(0)).log_.size(), 10u);
  EXPECT_EQ(static_cast<TestShard&>(eng.shard(1)).log_.size(), 10u);
  EXPECT_LE(eng.stats().epochs, 50u);
}

TEST(ShardedEngine, CancelIssuedEpochsEarlierSuppressesTheTarget) {
  // Target at 50 ms, cancelled at 20 ms, with cross-shard chatter every
  // 4 ms forcing many epochs in between: the epoch loop's run_until chunking
  // and next_event_time peeks must keep the handle valid, the target must
  // never run, and two identical runs agree event-for-event.
  struct CancellingShard : TestShard {
    using TestShard::TestShard;
    EventId target{};
    int target_fired = 0;
  };
  auto run = [] {
    ShardedEngine eng({.shards = 2, .lookahead = millis(1)});
    eng.build([&eng](std::size_t id) {
      auto shard = std::make_unique<CancellingShard>(id);
      CancellingShard* raw = shard.get();
      raw->target = raw->sim_.schedule_at(millis(50), [raw] { ++raw->target_fired; });
      raw->sim_.schedule_at(millis(20), [raw] { EXPECT_TRUE(raw->sim_.cancel(raw->target)); });
      for (int k = 0; k < 10; ++k) {
        raw->sim_.schedule_at(millis(4 * k), [&eng, raw] {
          eng.post(raw->id_, 1 - raw->id_, BoundaryEvent{.at = raw->sim_.now() + millis(1)});
        });
      }
      return shard;
    });
    eng.run_until(millis(60));
    EXPECT_GT(eng.stats().epochs, 5u);
    std::vector<std::uint64_t> executed;
    for (std::size_t i = 0; i < 2; ++i) {
      auto& s = static_cast<CancellingShard&>(eng.shard(i));
      EXPECT_EQ(s.target_fired, 0) << "shard " << i;
      EXPECT_EQ(s.log_.size(), 10u) << "shard " << i;
      EXPECT_FALSE(s.sim_.cancel(s.target));
      executed.push_back(s.sim_.executed_events());
    }
    return executed;
  };
  EXPECT_EQ(run(), run());
}

// Workload used by the determinism tests: every shard runs a seeded random
// mix of local events and cross-posts, then the full logs are compared.
std::vector<std::vector<TestShard::Row>> run_random_workload(std::size_t shards,
                                                             std::uint64_t seed,
                                                             bool chunked) {
  struct RandomShard : TestShard {
    RandomShard(std::size_t id, ShardedEngine* eng, std::uint64_t seed)
        : TestShard(id), eng_(eng), rng_(Rng(seed).fork(id)) {}
    void tick() {
      log_.push_back({sim_.now(), id_, 0xFFFF});
      if (rng_.chance(0.6)) {
        const auto dst = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(eng_->shard_count()) - 1));
        eng_->post(id_, dst,
                   BoundaryEvent{.at = sim_.now() + millis(3) +
                                       millis(rng_.uniform_int(0, 7)),
                                 .b = rng_.next() % 1000});
      }
      if (hops_-- > 0) {
        sim_.schedule_after(millis(rng_.uniform_int(1, 9)), [this] { tick(); });
      }
    }
    ShardedEngine* eng_;
    Rng rng_;
    int hops_ = 40;
  };

  ShardedEngine eng({.shards = shards, .lookahead = millis(3)});
  eng.build([&eng, seed](std::size_t id) {
    auto shard = std::make_unique<RandomShard>(id, &eng, seed);
    RandomShard* raw = shard.get();
    raw->sim_.schedule_at(0, [raw] { raw->tick(); });
    return shard;
  });

  if (chunked) {
    eng.run_until(millis(100));
    eng.run_until(millis(350));
    eng.run_until(seconds(2));
  } else {
    eng.run_until(seconds(2));
  }

  std::vector<std::vector<TestShard::Row>> logs;
  for (std::size_t i = 0; i < shards; ++i) {
    logs.push_back(static_cast<TestShard&>(eng.shard(i)).log_);
  }
  return logs;
}

TEST(ShardedEngine, TwoRunsWithSameSeedAndShardCountAreIdentical) {
  const auto a = run_random_workload(4, 99, /*chunked=*/false);
  const auto b = run_random_workload(4, 99, /*chunked=*/false);
  EXPECT_EQ(a, b);
}

TEST(ShardedEngine, ChunkedRunMatchesSingleRun) {
  const auto whole = run_random_workload(3, 7, /*chunked=*/false);
  const auto chunked = run_random_workload(3, 7, /*chunked=*/true);
  EXPECT_EQ(whole, chunked);
}

TEST(ShardedEngine, SelfPostInSingleShardModeDeliversOnNextChunk) {
  // K = 1 still supports post(): the mailbox drains at the next run_until
  // call, so chunked drivers behave the same with and without threads.
  ShardedEngine eng({.shards = 1, .lookahead = 0});
  eng.build([&eng](std::size_t id) {
    auto shard = std::make_unique<TestShard>(id);
    TestShard* raw = shard.get();
    raw->sim_.schedule_at(millis(1), [&eng, raw] {
      eng.post(0, 0, BoundaryEvent{.at = millis(4), .b = 42});
    });
    return shard;
  });

  eng.run_until(millis(2));  // posts; mailbox not yet drained
  auto& s0 = static_cast<TestShard&>(eng.shard(0));
  EXPECT_TRUE(s0.log_.empty());
  eng.run_until(millis(10));  // drains, schedules at 4 ms, fires
  ASSERT_EQ(s0.log_.size(), 1u);
  EXPECT_EQ(s0.log_[0], (TestShard::Row{millis(4), 0, 42}));
}

}  // namespace
}  // namespace dynamoth::sim
