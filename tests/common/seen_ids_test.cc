// Tests for the client's exact duplicate filter: range bookkeeping per
// origin, the gap-closing cap, and every verdict checked against a
// std::set oracle over shuffled arrival orders with duplicates.
#include "common/seen_ids.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"

namespace dynamoth {
namespace {

TEST(SeenIds, InOrderArrivalsKeepOneRange) {
  SeenIds seen;
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    EXPECT_TRUE(seen.insert(MessageId{7, seq}));
  }
  EXPECT_EQ(seen.ranges(7), 1u);
  EXPECT_EQ(seen.origins(), 1u);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    EXPECT_FALSE(seen.insert(MessageId{7, seq}));
  }
  EXPECT_EQ(seen.ranges(7), 1u);
}

TEST(SeenIds, OriginsAreIndependent) {
  SeenIds seen;
  EXPECT_TRUE(seen.insert(MessageId{1, 5}));
  EXPECT_TRUE(seen.insert(MessageId{2, 5}));
  EXPECT_FALSE(seen.insert(MessageId{1, 5}));
  EXPECT_FALSE(seen.insert(MessageId{2, 5}));
  EXPECT_EQ(seen.origins(), 2u);
  EXPECT_EQ(seen.ranges(3), 0u);
}

TEST(SeenIds, ReorderedArrivalsFillTheGapAndMerge) {
  SeenIds seen;
  for (std::uint64_t seq : {1u, 2u, 5u, 4u, 3u}) {
    EXPECT_TRUE(seen.insert(MessageId{9, seq})) << "seq " << seq;
  }
  EXPECT_EQ(seen.ranges(9), 1u);  // [1,5]
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_FALSE(seen.insert(MessageId{9, seq}));
  }
}

TEST(SeenIds, JumpAheadLeavesTheSkippedSeqsUnseen) {
  SeenIds seen;
  EXPECT_TRUE(seen.insert(MessageId{3, 10}));
  EXPECT_TRUE(seen.insert(MessageId{3, 11}));
  EXPECT_TRUE(seen.insert(MessageId{3, 100}));  // [10,11] [100,100]
  EXPECT_EQ(seen.ranges(3), 2u);
  EXPECT_TRUE(seen.insert(MessageId{3, 50}));  // [10,11] [50,50] [100,100]
  EXPECT_EQ(seen.ranges(3), 3u);
  EXPECT_FALSE(seen.insert(MessageId{3, 11}));
  EXPECT_FALSE(seen.insert(MessageId{3, 50}));
  EXPECT_FALSE(seen.insert(MessageId{3, 100}));
  EXPECT_TRUE(seen.insert(MessageId{3, 12}));  // joins [10,11]
  EXPECT_TRUE(seen.insert(MessageId{3, 99}));  // joins [100,100] from below
  EXPECT_EQ(seen.ranges(3), 3u);
}

TEST(SeenIds, DownwardExtensionBelowTheFirstSighting) {
  SeenIds seen;
  EXPECT_TRUE(seen.insert(MessageId{4, 20}));
  EXPECT_TRUE(seen.insert(MessageId{4, 19}));  // extends the inline range down
  EXPECT_EQ(seen.ranges(4), 1u);
  EXPECT_TRUE(seen.insert(MessageId{4, 0}));  // seq 0 is a valid id
  EXPECT_EQ(seen.ranges(4), 2u);
  EXPECT_FALSE(seen.insert(MessageId{4, 0}));
  for (std::uint64_t seq = 18; seq >= 1; --seq) {
    EXPECT_TRUE(seen.insert(MessageId{4, seq}));
  }
  EXPECT_EQ(seen.ranges(4), 1u);  // [0,20]
}

TEST(SeenIds, ForgetsNothingAfterManyOtherIds) {
  SeenIds seen;
  EXPECT_TRUE(seen.insert(MessageId{1, 1}));
  for (std::uint64_t origin = 2; origin < 2000; ++origin) {
    for (std::uint64_t seq = 1; seq <= 10; ++seq) seen.insert(MessageId{origin, seq});
  }
  EXPECT_FALSE(seen.insert(MessageId{1, 1}));
  EXPECT_EQ(seen.origins(), 1999u);
}

TEST(SeenIds, RangeCapClosesTheOldestGapAndCountsIt) {
  SeenIds seen;
  // Ranges [0,1] [3,3] [5,5] ... [2k+1, 2k+1]: one per arrival after seq 1.
  EXPECT_TRUE(seen.insert(MessageId{5, 0}));
  std::uint64_t seq = 1;
  for (std::size_t i = 0; i < kMaxRangesPerOrigin; ++i, seq += 2) {
    EXPECT_TRUE(seen.insert(MessageId{5, seq}));
  }
  EXPECT_EQ(seen.ranges(5), kMaxRangesPerOrigin);
  EXPECT_EQ(seen.gaps_closed(), 0u);

  EXPECT_TRUE(seen.insert(MessageId{5, seq}));  // one range too many
  EXPECT_EQ(seen.ranges(5), kMaxRangesPerOrigin);
  EXPECT_EQ(seen.gaps_closed(), 1u);
  // The oldest gap (seq 2) now reads as delivered: a first copy arriving
  // there is dropped. The next gap (seq 4) is still open.
  EXPECT_FALSE(seen.insert(MessageId{5, 2}));
  EXPECT_TRUE(seen.insert(MessageId{5, 4}));  // joins [0,3] and [5,5]
  EXPECT_EQ(seen.ranges(5), kMaxRangesPerOrigin - 1);
  // Duplicates never get through, closed gap or not.
  for (std::uint64_t dup : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3}, seq}) {
    EXPECT_FALSE(seen.insert(MessageId{5, dup})) << "seq " << dup;
  }

  // A fill below the newest range that adds a range closes a gap too.
  EXPECT_TRUE(seen.insert(MessageId{5, seq + 6}));  // jump ahead: back at the cap
  EXPECT_EQ(seen.gaps_closed(), 1u);
  EXPECT_TRUE(seen.insert(MessageId{5, seq + 3}));  // alone between seq and seq + 6
  EXPECT_EQ(seen.gaps_closed(), 2u);
  EXPECT_EQ(seen.ranges(5), kMaxRangesPerOrigin);
}

// Randomized: per origin, a seq set with gaps (channels the subscriber does
// not hold), each id delivered 1-3 times, in an order that is shuffled
// within a bounded reorder window. Every verdict must match std::set.
TEST(SeenIds, MatchesSetOracleOverShuffledArrivalsWithDuplicates) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng(seed);
    auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
      return static_cast<std::uint64_t>(rng.uniform_int(lo, hi));
    };
    std::vector<MessageId> arrivals;
    const std::uint64_t origins = draw(1, 40);
    for (std::uint64_t origin = 0; origin < origins; ++origin) {
      std::uint64_t seq = draw(0, 3);
      const std::uint64_t count = draw(1, 300);
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t copies = draw(1, 3);
        for (std::uint64_t c = 0; c < copies; ++c) {
          arrivals.push_back(MessageId{origin * 977, seq});
        }
        seq += rng.chance(0.3) ? draw(2, 50) : 1;
      }
    }
    // Interleave origins, then displace each arrival by up to `window`.
    std::sort(arrivals.begin(), arrivals.end(),
              [](const MessageId& a, const MessageId& b) { return a.seq < b.seq; });
    const std::int64_t window = rng.uniform_int(1, 400);
    for (std::size_t i = 0; i + 1 < arrivals.size(); ++i) {
      const std::size_t j = std::min<std::size_t>(arrivals.size() - 1, i + draw(0, window));
      std::swap(arrivals[i], arrivals[j]);
    }

    SeenIds seen;
    std::set<MessageId> oracle;
    for (const MessageId& id : arrivals) {
      ASSERT_EQ(seen.insert(id), oracle.insert(id).second)
          << "origin " << id.origin << " seq " << id.seq;
    }
    EXPECT_EQ(seen.gaps_closed(), 0u);
    EXPECT_EQ(seen.origins(), origins);
  }
}

}  // namespace
}  // namespace dynamoth
