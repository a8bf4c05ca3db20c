// Tests for SsdDevice: content integrity, SMART accounting, and the timing
// model (cache stalls, sustained-bandwidth behavior, read costs, channel
// overlap).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "ssd/precondition.h"
#include "ssd/profiles.h"
#include "ssd/ssd_device.h"
#include "util/logging.h"
#include "util/random.h"

namespace ptsb::ssd {
namespace {

SsdConfig TestConfig(uint64_t logical_mib = 16) {
  SsdConfig c;
  c.geometry.page_bytes = 4096;
  c.geometry.pages_per_block = 64;
  c.geometry.logical_bytes = logical_mib << 20;
  c.geometry.hardware_op_frac = 0.15;
  c.timing.cache_bytes = 1 << 20;
  c.timing.program_bw = 500e6;
  c.timing.host_write_bw = 2e9;
  c.timing.write_ack_latency_ns = 10'000;
  c.timing.read_latency_ns = 50'000;
  return c;
}

TEST(SsdDeviceTest, WriteReadRoundTrip) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  std::vector<uint8_t> out(4096 * 3), in(4096 * 3);
  Rng rng(1);
  rng.FillBytes(out.data(), out.size());
  ASSERT_TRUE(dev.Write(10, 3, out.data()).ok());
  ASSERT_TRUE(dev.Read(10, 3, in.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), in.data(), out.size()), 0);
}

TEST(SsdDeviceTest, UnwrittenReadsZero) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  std::vector<uint8_t> in(4096, 0xff);
  ASSERT_TRUE(dev.Read(42, 1, in.data()).ok());
  for (uint8_t b : in) EXPECT_EQ(b, 0);
}

TEST(SsdDeviceTest, TrimZeroesContent) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  std::vector<uint8_t> buf(4096, 0xab);
  ASSERT_TRUE(dev.Write(5, 1, buf.data()).ok());
  ASSERT_TRUE(dev.Trim(5, 1).ok());
  ASSERT_TRUE(dev.Read(5, 1, buf.data()).ok());
  for (uint8_t b : buf) EXPECT_EQ(b, 0);
  EXPECT_FALSE(dev.ftl().IsMapped(5));
}

TEST(SsdDeviceTest, BoundsChecked) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  std::vector<uint8_t> buf(4096);
  EXPECT_TRUE(dev.Read(dev.num_lbas(), 1, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(dev.Write(dev.num_lbas() - 1, 2, nullptr).IsInvalidArgument());
  EXPECT_TRUE(dev.Trim(dev.num_lbas(), 1).IsInvalidArgument());
}

TEST(SsdDeviceTest, SmartCountsHostAndNandBytes) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  ASSERT_TRUE(dev.Write(0, 8, nullptr).ok());
  const auto smart = dev.smart();
  EXPECT_EQ(smart.host_bytes_written, 8u * 4096);
  EXPECT_EQ(smart.nand_bytes_written, 8u * 4096);
  EXPECT_DOUBLE_EQ(smart.WaD(), 1.0);
}

TEST(SsdDeviceTest, WaDGrowsUnderRandomOverwrite) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  const uint64_t lbas = dev.num_lbas();
  for (uint64_t lba = 0; lba < lbas; lba++) {
    ASSERT_TRUE(dev.Write(lba, 1, nullptr).ok());
  }
  Rng rng(2);
  for (uint64_t i = 0; i < 3 * lbas; i++) {
    ASSERT_TRUE(dev.Write(rng.Uniform(lbas), 1, nullptr).ok());
  }
  EXPECT_GT(dev.smart().WaD(), 1.3);
}

TEST(SsdDeviceTest, PayloadFreeWritesAllocateNoContentMemory) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(64), &clock);
  ASSERT_TRUE(Precondition(&dev, 1.0).ok());
  EXPECT_EQ(dev.ContentMemoryBytes(), 0u);
}

TEST(SsdDeviceTest, WritesAdvanceClock) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  ASSERT_TRUE(dev.Write(0, 1, nullptr).ok());
  // At least the ack latency plus the bus transfer.
  EXPECT_GE(clock.NowNanos(), 10'000);
}

TEST(SsdDeviceTest, ReadsAdvanceClockByLatencyAndBandwidth) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  const int64_t t0 = clock.NowNanos();
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(dev.Read(0, 1, buf.data()).ok());
  EXPECT_GE(clock.NowNanos() - t0, 50'000);
}

TEST(SsdDeviceTest, SustainedWritesConvergeToProgramBandwidth) {
  // Write far more than the cache size; the long-run rate must approach
  // program_bw (no GC here: sequential overwrite).
  sim::SimClock clock;
  SsdConfig cfg = TestConfig(64);
  cfg.timing.cache_bytes = 1 << 20;
  cfg.timing.program_bw = 100e6;
  cfg.timing.host_write_bw = 2e9;
  SsdDevice dev(cfg, &clock);
  const uint64_t lbas = dev.num_lbas();
  uint64_t written = 0;
  for (int lap = 0; lap < 3; lap++) {
    for (uint64_t lba = 0; lba < lbas; lba += 16) {
      ASSERT_TRUE(dev.Write(lba, 16, nullptr).ok());
      written += 16 * 4096;
    }
  }
  const double rate =
      static_cast<double>(written) / clock.NowSeconds();  // bytes/s
  EXPECT_NEAR(rate, 100e6, 15e6);
}

TEST(SsdDeviceTest, BurstSmallerThanCacheIsFast) {
  sim::SimClock clock;
  SsdConfig cfg = TestConfig(64);
  cfg.timing.cache_bytes = 32 << 20;
  cfg.timing.program_bw = 50e6;   // slow flash
  cfg.timing.host_write_bw = 2e9; // fast bus
  cfg.timing.write_ack_latency_ns = 1000;
  SsdDevice dev(cfg, &clock);
  // 8 MiB burst into an empty 32 MiB cache: bus speed, not flash speed.
  const uint64_t pages = (8 << 20) / 4096;
  ASSERT_TRUE(dev.Write(0, pages, nullptr).ok());
  const double elapsed = clock.NowSeconds();
  EXPECT_LT(elapsed, 0.05);  // 8 MiB at 50 MB/s would take 0.16 s
}

TEST(SsdDeviceTest, CacheFullStallsWrites) {
  sim::SimClock clock;
  SsdConfig cfg = TestConfig(64);
  cfg.timing.cache_bytes = 1 << 20;
  cfg.timing.program_bw = 50e6;
  cfg.timing.host_write_bw = 2e9;
  SsdDevice dev(cfg, &clock);
  // 16 MiB sustained: must take ~flash time (0.32 s), not bus time.
  const uint64_t pages = (16 << 20) / 4096;
  ASSERT_TRUE(dev.Write(0, pages, nullptr).ok());
  EXPECT_GT(clock.NowSeconds(), 0.25);
}

TEST(SsdDeviceTest, FlushAdvancesClock) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  const int64_t t0 = clock.NowNanos();
  ASSERT_TRUE(dev.Flush().ok());
  EXPECT_GT(clock.NowNanos(), t0);
}

TEST(SsdDeviceTest, ClassBusyIsBacklogAdjustedPerClass) {
  // Under read/write contention on one channel, class_busy_ns must be a
  // true utilization: the unserved backend tail is deducted from the
  // backend (write) class, while read occupancy — always waited out —
  // stays fully elapsed. Exact-arithmetic timing: 10 us/page programs
  // and reads, 1 us/page bus, no ack/read latency, no interference.
  sim::SimClock clock;
  SsdConfig cfg = TestConfig(64);
  cfg.timing.cache_bytes = 8 << 20;
  cfg.timing.program_bw = 409.6e6;
  cfg.timing.host_write_bw = 4.096e9;
  cfg.timing.write_ack_latency_ns = 0;
  cfg.timing.read_latency_ns = 0;
  cfg.timing.read_bw = 409.6e6;
  cfg.timing.read_interference = 0;
  SsdDevice dev(cfg, &clock);

  // 256 cached pages book 2.56 ms of backend; the host only pays the
  // 256 us bus transfer. A 4-page read then runs to completion.
  ASSERT_TRUE(dev.Write(0, 256, nullptr).ok());
  ASSERT_EQ(clock.NowNanos(), 256'000);
  std::vector<uint8_t> buf(4096 * 4);
  ASSERT_TRUE(dev.Read(0, 4, buf.data()).ok());
  ASSERT_EQ(clock.NowNanos(), 296'000);

  const auto fw = static_cast<size_t>(sim::IoClass::kForegroundWrite);
  const auto fr = static_cast<size_t>(sim::IoClass::kForegroundRead);
  auto s = dev.channel_stats()[0];
  // Backlog = 2'560'000 booked - 296'000 elapsed; the write class is
  // the only backend class, so it absorbs the whole deduction.
  EXPECT_EQ(s.busy_ns, 296'000);
  EXPECT_EQ(s.class_busy_ns[fw], 296'000);
  EXPECT_EQ(s.class_busy_ns[fr], 40'000);  // fully elapsed
  // scheduled_ns is backlog-independent.
  EXPECT_EQ(s.scheduled_ns, 2'560'000);
  EXPECT_EQ(s.class_scheduled_ns[fw], 2'560'000);

  // Once the backlog drains, the write class's busy time converges to
  // its scheduled work; the read share does not move.
  clock.Advance(3'000'000);
  s = dev.channel_stats()[0];
  EXPECT_EQ(s.busy_ns, 2'560'000);
  EXPECT_EQ(s.class_busy_ns[fw], 2'560'000);
  EXPECT_EQ(s.class_busy_ns[fr], 40'000);
  EXPECT_EQ(s.scheduled_ns, 2'560'000);
}

// ---- Channels: a command in a submission lane serializes on channel
// (lane queue % channels) only.

SsdConfig ChannelConfig(int channels) {
  SsdConfig cfg;
  cfg.geometry.logical_bytes = 64ull << 20;
  cfg.channels = channels;
  // No write cache: host writes are synchronous with the channel
  // backend, so program time is visible in every command's latency and
  // overlap (or its absence) shows up directly in the clock.
  cfg.timing.cache_bytes = 0;
  return cfg;
}

// Runs op(q) for queues q = 0..3. With `lanes`, each runs in its own
// submission lane on queue q, all forked from the same instant, and the
// clock then joins every lane (a monotonic max); without, the four run
// one after another on the clock.
template <typename Op>
void RunOnFourQueues(sim::SimClock* clock, bool lanes, sim::IoClass cls,
                     const Op& op) {
  std::vector<int64_t> done;
  for (uint32_t q = 0; q < 4; q++) {
    if (!lanes) {
      EXPECT_TRUE(op(q).ok());
      continue;
    }
    const sim::LaneResult r =
        sim::RunInLane(clock, q, cls, [&] { return op(q); });
    EXPECT_TRUE(r.status.ok());
    done.push_back(r.complete_ns);
  }
  for (int64_t t : done) clock->AdvanceTo(t);
}

// The same four writes on distinct queues of a multi-channel device cost
// ~max of the command latencies; on a single channel they stay
// serialized. Content is identical either way.
TEST(SsdChannelTest, DistinctQueuesOverlapOnDistinctChannels) {
  constexpr uint64_t kPages = 512;  // 2 MiB per command
  const std::string payload(kPages * 4096, 'x');
  const auto* src = reinterpret_cast<const uint8_t*>(payload.data());

  auto run = [&](int channels, bool lanes) -> int64_t {
    sim::SimClock clock;
    SsdDevice dev(ChannelConfig(channels), &clock);
    RunOnFourQueues(&clock, lanes, sim::IoClass::kForegroundWrite,
                    [&](uint32_t q) {
                      return dev.Write(q * kPages, kPages, src);
                    });
    // Contents are applied at submit regardless of timing model.
    std::vector<uint8_t> page(4096);
    EXPECT_TRUE(dev.Read(3 * kPages, 1, page.data()).ok());
    EXPECT_EQ(page[0], 'x');
    return clock.NowNanos();
  };

  const int64_t sync_1ch = run(1, /*lanes=*/false);
  const int64_t lanes_1ch = run(1, /*lanes=*/true);
  const int64_t lanes_4ch = run(4, /*lanes=*/true);

  // One channel serializes lanes too (queue % 1 == 0 always).
  EXPECT_GT(lanes_1ch, lanes_4ch);
  // Four channels overlap the four commands: far below the serialized
  // run.
  EXPECT_LT(lanes_4ch, sync_1ch / 2);
  // Determinism: the virtual timeline is a pure function of the inputs.
  EXPECT_EQ(lanes_4ch, run(4, /*lanes=*/true));
}

// Reads in lanes on distinct queues overlap on distinct channels; on a
// single channel they serialize on the read pipeline to exactly the
// sequential total. Contents and class accounting are independent of
// the timing model.
TEST(SsdChannelTest, ReadsOverlapAcrossChannelsAndSerializeWithinOne) {
  constexpr uint64_t kPages = 256;  // 1 MiB per command
  const std::string payload(kPages * 4096, 'r');
  const auto* src = reinterpret_cast<const uint8_t*>(payload.data());

  auto run = [&](int channels, bool lanes) -> int64_t {
    sim::SimClock clock;
    SsdDevice dev(ChannelConfig(channels), &clock);
    for (uint32_t q = 0; q < 4; q++) {
      EXPECT_TRUE(dev.Write(q * kPages, kPages, src).ok());
    }
    // Let the programs drain so read interference is identical across
    // timing modes.
    clock.Advance(sim::kNanosPerSecond);
    const int64_t t0 = clock.NowNanos();
    std::vector<std::vector<uint8_t>> bufs(
        4, std::vector<uint8_t>(kPages * 4096));
    RunOnFourQueues(&clock, lanes, sim::IoClass::kForegroundRead,
                    [&](uint32_t q) {
                      return dev.Read(q * kPages, kPages, bufs[q].data());
                    });
    for (const auto& buf : bufs) EXPECT_EQ(buf[0], 'r');
    // Read occupancy is accounted under the foreground-read class.
    int64_t read_busy = 0;
    for (const auto& ch : dev.channel_stats()) {
      read_busy +=
          ch.class_busy_ns[static_cast<int>(sim::IoClass::kForegroundRead)];
    }
    EXPECT_GT(read_busy, 0);
    return clock.NowNanos() - t0;
  };

  const int64_t sync_1ch = run(1, /*lanes=*/false);
  const int64_t lanes_1ch = run(1, /*lanes=*/true);
  const int64_t lanes_4ch = run(4, /*lanes=*/true);
  // One channel: concurrent reads serialize on the read pipeline to the
  // nanosecond of the sequential run.
  EXPECT_EQ(lanes_1ch, sync_1ch);
  // Four channels: the four reads overlap (well under half the total).
  EXPECT_LT(lanes_4ch, sync_1ch / 2);
  EXPECT_EQ(lanes_4ch, run(4, /*lanes=*/true));  // deterministic
}

TEST(PreconditionTest, TrimmedDeviceHasNoValidPages) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  ASSERT_TRUE(dev.Write(0, 100, nullptr).ok());
  ASSERT_TRUE(ApplyInitialState(&dev, InitialState::kTrimmed).ok());
  EXPECT_EQ(dev.ftl().GetStats().valid_pages, 0u);
}

TEST(PreconditionTest, PreconditionedDeviceIsFullAndScrambled) {
  sim::SimClock clock;
  SsdDevice dev(TestConfig(), &clock);
  ASSERT_TRUE(ApplyInitialState(&dev, InitialState::kPreconditioned).ok());
  const auto s = dev.ftl().GetStats();
  // Every logical page valid.
  EXPECT_EQ(s.valid_pages, dev.num_lbas());
  // Random phase forced garbage collection.
  EXPECT_GT(s.gc_pages_relocated, 0u);
  EXPECT_GT(dev.smart().WaD(), 1.0);
}

TEST(PreconditionTest, DeterministicAcrossRuns) {
  auto run = [] {
    sim::SimClock clock;
    SsdDevice dev(TestConfig(), &clock);
    PTSB_CHECK_OK(ApplyInitialState(&dev, InitialState::kPreconditioned, 99));
    return dev.ftl().GetStats().gc_pages_relocated;
  };
  EXPECT_EQ(run(), run());
}

TEST(ProfilesTest, ScalingDividesCapacityAndCache) {
  const auto full = MakeProfile(ProfileKind::kSsd1Enterprise,
                                kPaperDeviceBytes, 1);
  const auto scaled = MakeProfile(ProfileKind::kSsd1Enterprise,
                                  kPaperDeviceBytes, 100);
  EXPECT_EQ(full.geometry.logical_bytes, kPaperDeviceBytes);
  EXPECT_EQ(scaled.geometry.logical_bytes, kPaperDeviceBytes / 100);
  EXPECT_EQ(scaled.timing.cache_bytes, full.timing.cache_bytes / 100);
  // Latencies are not scaled.
  EXPECT_EQ(scaled.timing.read_latency_ns, full.timing.read_latency_ns);
}

TEST(ProfilesTest, NamesRoundTrip) {
  for (auto kind : {ProfileKind::kSsd1Enterprise, ProfileKind::kSsd2ConsumerQlc,
                    ProfileKind::kSsd3Optane}) {
    EXPECT_EQ(ProfileFromName(ProfileName(kind)), kind);
  }
}

TEST(ProfilesTest, Ssd3HasNoGcPressure) {
  // The Optane-like profile models in-place updates via huge OP: random
  // overwrites should keep WA-D essentially at 1.
  sim::SimClock clock;
  auto cfg = MakeProfile(ProfileKind::kSsd3Optane, 64ull << 20, 1);
  SsdDevice dev(cfg, &clock);
  const uint64_t lbas = dev.num_lbas();
  Rng rng(3);
  for (uint64_t i = 0; i < 2 * lbas; i++) {
    ASSERT_TRUE(dev.Write(rng.Uniform(lbas), 1, nullptr).ok());
  }
  EXPECT_LT(dev.smart().WaD(), 1.25);
}

}  // namespace
}  // namespace ptsb::ssd
