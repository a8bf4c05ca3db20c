// Unit tests for the virtual clock and its submission lanes.
#include <gtest/gtest.h>

#include <thread>

#include "sim/clock.h"

namespace ptsb::sim {
namespace {

TEST(SimClockTest, StartsAtZero) {
  SimClock c;
  EXPECT_EQ(c.NowNanos(), 0);
  EXPECT_EQ(c.NowSeconds(), 0.0);
}

TEST(SimClockTest, AdvanceAccumulates) {
  SimClock c;
  c.Advance(kNanosPerSecond);
  c.Advance(500 * kNanosPerMilli);
  EXPECT_DOUBLE_EQ(c.NowSeconds(), 1.5);
  EXPECT_DOUBLE_EQ(c.NowMinutes(), 1.5 / 60.0);
}

TEST(SimClockTest, AdvanceToOnlyMovesForward) {
  SimClock c;
  c.AdvanceTo(100);
  EXPECT_EQ(c.NowNanos(), 100);
  c.AdvanceTo(50);
  EXPECT_EQ(c.NowNanos(), 100);
  c.AdvanceTo(200);
  EXPECT_EQ(c.NowNanos(), 200);
}

TEST(SimClockTest, Reset) {
  SimClock c;
  c.Advance(123);
  c.Reset();
  EXPECT_EQ(c.NowNanos(), 0);
}

TEST(BytesToNanosTest, MatchesBandwidthMath) {
  // 1 MiB at 1 MiB/s = 1 second.
  EXPECT_EQ(BytesToNanos(1u << 20, static_cast<double>(1u << 20)),
            kNanosPerSecond);
  // 4 KiB at 550 MB/s ~ 7.45 us.
  EXPECT_NEAR(static_cast<double>(BytesToNanos(4096, 550e6)), 7447.0, 1.0);
  EXPECT_EQ(BytesToNanos(0, 100.0), 0);
}

TEST(SimClockLaneTest, LanesForkAndJoinByMax) {
  SimClock clock;
  clock.Advance(1000);
  ASSERT_TRUE(clock.BeginAsync(3));
  EXPECT_TRUE(clock.InAsync());
  EXPECT_EQ(clock.AsyncQueue(), 3u);
  EXPECT_EQ(clock.NowNanos(), 1000);  // lane seeded with global now
  clock.Advance(500);
  EXPECT_EQ(clock.NowNanos(), 1500);
  // Nested begin is refused: the inner submission runs in this lane.
  EXPECT_FALSE(clock.BeginAsync(7));
  EXPECT_EQ(clock.AsyncQueue(), 3u);
  const int64_t t1 = clock.EndAsync();
  EXPECT_EQ(t1, 1500);
  // Ending the lane did not touch the global clock.
  EXPECT_FALSE(clock.InAsync());
  EXPECT_EQ(clock.NowNanos(), 1000);

  // A second lane from the same instant overlaps the first: joining both
  // advances to the max, not the sum.
  ASSERT_TRUE(clock.BeginAsync(4));
  clock.Advance(200);
  const int64_t t2 = clock.EndAsync();
  clock.AdvanceTo(t1);
  clock.AdvanceTo(t2);
  EXPECT_EQ(clock.NowNanos(), 1500);
}

TEST(SimClockLaneTest, LanesAreThreadLocal) {
  SimClock clock;
  ASSERT_TRUE(clock.BeginAsync(1));
  clock.Advance(700);
  std::thread other([&clock] {
    // This thread has no lane: it sees (and moves) the global clock.
    EXPECT_FALSE(clock.InAsync());
    EXPECT_EQ(clock.NowNanos(), 0);
    clock.Advance(50);
  });
  other.join();
  EXPECT_EQ(clock.NowNanos(), 700);  // lane view unaffected
  const int64_t done = clock.EndAsync();
  EXPECT_EQ(clock.NowNanos(), 50);  // global moved only by the other thread
  clock.AdvanceTo(done);
  // The join is a monotonic max with the other thread's progress, not a
  // sum: the lane's work overlapped it.
  EXPECT_EQ(clock.NowNanos(), 700);
}

}  // namespace
}  // namespace ptsb::sim
