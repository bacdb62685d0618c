#include "fault/failure_detector.h"

#include <gtest/gtest.h>

namespace dynamoth::fault {
namespace {

TEST(FailureDetector, TimeoutModeSuspectsAfterSilence) {
  FailureDetector::Config config;
  config.timeout = seconds(5);
  FailureDetector det(config);

  det.watch(1, seconds(0));
  for (int t = 1; t <= 4; ++t) det.heartbeat(1, seconds(t));

  EXPECT_FALSE(det.suspected(1, seconds(8)));   // silence 4s < timeout
  EXPECT_FALSE(det.suspected(1, seconds(9)));   // exactly at the bound
  EXPECT_TRUE(det.suspected(1, seconds(9) + 1));
  EXPECT_EQ(det.silence(1, seconds(10)), seconds(6));
}

TEST(FailureDetector, WatchCountsAsFirstHeartbeat) {
  FailureDetector det;
  det.watch(7, seconds(100));
  // A fresh server gets the full grace period even if it never reported.
  EXPECT_FALSE(det.suspected(7, seconds(104)));
  EXPECT_TRUE(det.suspected(7, seconds(106)));
}

TEST(FailureDetector, HeartbeatClearsSuspicion) {
  FailureDetector det;
  det.watch(1, 0);
  ASSERT_TRUE(det.suspected(1, seconds(6)));
  det.heartbeat(1, seconds(6));
  EXPECT_FALSE(det.suspected(1, seconds(7)));
}

TEST(FailureDetector, ForgetStopsWatching) {
  FailureDetector det;
  det.watch(1, 0);
  det.forget(1);
  EXPECT_FALSE(det.watching(1));
  EXPECT_FALSE(det.suspected(1, seconds(60)));
  EXPECT_TRUE(det.suspects(seconds(60)).empty());
}

TEST(FailureDetector, SuspectsAreAscendingAndExhaustive) {
  FailureDetector det;
  det.watch(9, 0);
  det.watch(3, 0);
  det.watch(5, 0);
  det.heartbeat(5, seconds(4));  // stays fresh
  const std::vector<ServerId> suspects = det.suspects(seconds(6));
  ASSERT_EQ(suspects.size(), 2u);
  EXPECT_EQ(suspects[0], 3u);
  EXPECT_EQ(suspects[1], 9u);
}

}  // namespace
}  // namespace dynamoth::fault
