// Tests for the SSD's inter-class QoS scheduler (SsdConfig::
// background_slice_ns / class_weights / background_rate_mbps): exact
// preemption bounds, weighted-service grants, token-bucket refill
// arithmetic, FIFO equivalence of the no-knob configuration, and
// per-class conservation of scheduled backend work across settings.
//
// Timing parameters are chosen so every expected timestamp is exact
// integer nanoseconds: 4 KiB pages program at 10 us/page
// (program_bw 409.6 MB/s), cross the host bus at 1 us/page
// (host_write_bw 4.096 GB/s), and read at 10 us/page with zero command
// latency. No write cache: commands are synchronous with the backend,
// so the schedule is directly visible in the clock.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <thread>
#include <vector>

#include "sim/clock.h"
#include "sim/io_class.h"
#include "ssd/ssd_device.h"
#include "util/random.h"

namespace ptsb::ssd {
namespace {

constexpr int64_t kPageProgramNs = 10'000;  // 4096 B at 409.6 MB/s
constexpr int64_t kPageHostNs = 1'000;      // 4096 B at 4.096 GB/s

SsdConfig QosTestConfig() {
  SsdConfig c;
  c.geometry.page_bytes = 4096;
  c.geometry.pages_per_block = 64;
  c.geometry.logical_bytes = 16ull << 20;
  c.timing.cache_bytes = 0;  // synchronous with the backend
  c.timing.program_bw = 409.6e6;
  c.timing.host_write_bw = 4.096e9;
  c.timing.write_ack_latency_ns = 0;
  c.timing.read_latency_ns = 0;
  c.timing.read_bw = 409.6e6;
  c.timing.read_interference = 0;
  c.timing.flush_latency_ns = 0;
  return c;
}

// Books a background span of `pages` programs on channel 0 via a
// background lane forked at the CURRENT global time (the global clock
// does not move — exactly how kv::BackgroundPool books compaction
// ahead of the foreground).
void BookBackground(sim::SimClock* clock, SsdDevice* dev, uint64_t lba,
                    uint64_t pages) {
  ASSERT_TRUE(clock->BeginAsync(1, sim::IoClass::kBackground));
  ASSERT_TRUE(dev->Write(lba, pages, nullptr).ok());
  clock->EndAsync();
}

SsdDevice::ChannelStats Chan0(const SsdDevice& dev) {
  return dev.channel_stats()[0];
}

TEST(QosSchedulerTest, ForegroundWaitBoundedByOneQuantumExactly) {
  sim::SimClock clock;
  SsdConfig cfg = QosTestConfig();
  cfg.background_slice_ns = 100'000;  // 100 us quantum
  SsdDevice dev(cfg, &clock);

  // 32 background pages book one service period [0, 320us) while the
  // foreground clock stays at 0.
  BookBackground(&clock, &dev, 1000, 32);
  ASSERT_EQ(clock.NowNanos(), 0);

  // A foreground write arriving 50 us into the period starts at the
  // next slice boundary (100 us), NOT at the period's end (320 us):
  // scheduling delay is 50 us, bounded by one quantum.
  clock.Advance(50'000);
  ASSERT_TRUE(dev.Write(0, 1, nullptr).ok());
  // AdvanceTo(boundary 100us) + 1 page host transfer.
  EXPECT_EQ(clock.NowNanos(), 101'000);
  auto s = Chan0(dev);
  EXPECT_EQ(s.preemptions, 1u);
  const auto fw = static_cast<size_t>(sim::IoClass::kForegroundWrite);
  const auto bg = static_cast<size_t>(sim::IoClass::kBackground);
  EXPECT_EQ(s.class_wait_ns[fw], 50'000);

  // A second write (ready when the first completes at 110 us, still
  // mid-period) waits exactly to the NEXT boundary of the same grid:
  // 200 us, a 90 us delay — again under one quantum.
  ASSERT_TRUE(dev.Write(1, 1, nullptr).ok());
  EXPECT_EQ(clock.NowNanos(), 201'000);
  s = Chan0(dev);
  EXPECT_EQ(s.preemptions, 2u);
  EXPECT_EQ(s.class_wait_ns[fw], 50'000 + 90'000);

  // The two preempted programs (10 us each) displaced 20 us of booked
  // background; the next background booking pays that debt: it starts
  // at 320us (its own backlog) + 20us of debt, waiting 20 us.
  BookBackground(&clock, &dev, 1100, 1);
  s = Chan0(dev);
  EXPECT_EQ(s.class_wait_ns[bg], 20'000);
  // Conservation: 33 background + 2 foreground programs, to the ns.
  EXPECT_EQ(s.class_scheduled_ns[bg], 33 * kPageProgramNs);
  EXPECT_EQ(s.class_scheduled_ns[fw], 2 * kPageProgramNs);
}

TEST(QosSchedulerTest, WeightedServiceGrantsFollowTheRatios) {
  // At a preemption point, the displaced background may interleave up
  // to cost * w_bg / w_fg inside the foreground window; the foreground
  // command's completion (and its class_wait) stretch by the grant.
  const auto run = [](std::array<int, sim::kNumIoClasses> weights) {
    sim::SimClock clock;
    SsdConfig cfg = QosTestConfig();
    cfg.background_slice_ns = 100'000;
    cfg.class_weights = weights;
    SsdDevice dev(cfg, &clock);
    BookBackground(&clock, &dev, 1000, 32);  // period [0, 320us)
    clock.Advance(50'000);
    EXPECT_TRUE(dev.Write(0, 1, nullptr).ok());
    const auto fw = static_cast<size_t>(sim::IoClass::kForegroundWrite);
    return Chan0(dev).class_wait_ns[fw];
  };
  // w_bg : w_fw = 2 : 1 -> grant 2 x cost = 20 us on top of the 50 us
  // boundary wait; 1 : 2 -> grant cost / 2 = 5 us; zero weights ->
  // strict priority, no grant.
  EXPECT_EQ(run({1, 1, 2}), 50'000 + 20'000);
  EXPECT_EQ(run({1, 2, 1}), 50'000 + 5'000);
  EXPECT_EQ(run({0, 0, 0}), 50'000);
}

TEST(QosSchedulerTest, TokenBucketRefillArithmeticExact) {
  // rate = 100 MB/s, bucket capacity max(rate/100, 1 MiB) = 1 MiB.
  // A 2 MiB background write goes in two 1 MiB batches: the first
  // drains the full bucket; by the time the second asks (256 us of
  // host transfer later) the bucket holds 256us * 100MB/s = 25600
  // bytes, so it waits ceil((1048576 - 25600) * 1e9 / 1e8) ns.
  sim::SimClock clock;
  SsdConfig cfg = QosTestConfig();
  cfg.background_rate_mbps = 100;
  SsdDevice dev(cfg, &clock);

  ASSERT_TRUE(clock.BeginAsync(1, sim::IoClass::kBackground));
  ASSERT_TRUE(dev.Write(0, 512, nullptr).ok());
  clock.EndAsync();

  const auto s = Chan0(dev);
  EXPECT_EQ(s.bg_throttled_ns, 10'229'760);
  EXPECT_EQ(dev.smart().host_bytes_written, 2ull << 20);
  // Throttling delays work; it must not create or destroy any.
  const auto bg = static_cast<size_t>(sim::IoClass::kBackground);
  EXPECT_EQ(s.class_scheduled_ns[bg], 512 * kPageProgramNs);
}

// A mixed foreground/background workload (no background reads — those
// are schedulable spans only under QoS) used for the equivalence and
// conservation checks below.
struct WorkloadResult {
  int64_t final_ns = 0;
  SsdDevice::TimeBreakdown times;
  SsdDevice::ChannelStats chan;
  SmartCounters smart;
};

WorkloadResult RunMixedWorkload(const SsdConfig& cfg) {
  sim::SimClock clock;
  SsdDevice dev(cfg, &clock);
  std::vector<uint8_t> buf(4096 * 4);
  Rng rng(11);
  rng.FillBytes(buf.data(), buf.size());
  for (int i = 0; i < 24; i++) {
    EXPECT_TRUE(dev.Write(4 * static_cast<uint64_t>(i), 4, buf.data()).ok());
    if (i % 3 == 0) {
      EXPECT_TRUE(clock.BeginAsync(1, sim::IoClass::kBackground));
      EXPECT_TRUE(
          dev.Write(2000 + 16 * static_cast<uint64_t>(i), 16, nullptr).ok());
      clock.EndAsync();
    }
    if (i % 5 == 0) {
      EXPECT_TRUE(dev.Read(4 * static_cast<uint64_t>(i), 4, buf.data()).ok());
    }
  }
  WorkloadResult r;
  r.final_ns = clock.NowNanos();
  r.times = dev.time_breakdown();
  r.chan = dev.channel_stats()[0];
  r.smart = dev.smart();
  return r;
}

TEST(QosSchedulerTest, NoKnobConfigIsFifoToTheNanosecond) {
  // The zero-config device must reproduce pre-QoS FIFO timing exactly.
  // An effectively-inert QoS config (slice 0 = no preemption, weights 0
  // = no interleave, admission rate far above the workload) routes every
  // command through the scheduler yet must land every one of them on
  // the very same nanosecond as the legacy FIFO path.
  WorkloadResult fifo = RunMixedWorkload(QosTestConfig());
  SsdConfig inert = QosTestConfig();
  inert.background_rate_mbps = 1e6;  // QoS on, never throttles
  WorkloadResult qos = RunMixedWorkload(inert);

  EXPECT_EQ(fifo.final_ns, qos.final_ns);
  EXPECT_EQ(fifo.times.read_ns, qos.times.read_ns);
  EXPECT_EQ(fifo.times.read_interference_ns, qos.times.read_interference_ns);
  EXPECT_EQ(fifo.times.write_host_ns, qos.times.write_host_ns);
  EXPECT_EQ(fifo.times.write_stall_ns, qos.times.write_stall_ns);
  EXPECT_EQ(fifo.chan.busy_ns, qos.chan.busy_ns);
  EXPECT_EQ(fifo.chan.scheduled_ns, qos.chan.scheduled_ns);
  EXPECT_EQ(fifo.chan.class_busy_ns, qos.chan.class_busy_ns);
  EXPECT_EQ(fifo.chan.class_bytes, qos.chan.class_bytes);
  EXPECT_EQ(fifo.smart.host_bytes_written, qos.smart.host_bytes_written);
  EXPECT_EQ(fifo.smart.nand_bytes_written, qos.smart.nand_bytes_written);

  // And the no-knob run never touches a QoS counter.
  EXPECT_EQ(fifo.chan.preemptions, 0u);
  EXPECT_EQ(fifo.chan.bg_throttled_ns, 0);
  for (int64_t w : fifo.chan.class_wait_ns) EXPECT_EQ(w, 0);
}

TEST(QosSchedulerTest, ScheduledWorkConservedAcrossSettings) {
  // Per-class scheduled_ns is a pure function of the command byte
  // stream: every QoS setting must agree with FIFO exactly, class by
  // class, even though the settings place the work at different times.
  const WorkloadResult base = RunMixedWorkload(QosTestConfig());
  SsdConfig sliced = QosTestConfig();
  sliced.background_slice_ns = 50'000;
  SsdConfig weighted = QosTestConfig();
  weighted.background_slice_ns = 200'000;
  weighted.class_weights = {1, 1, 1};
  SsdConfig throttled = QosTestConfig();
  throttled.background_slice_ns = 100'000;
  throttled.background_rate_mbps = 40;
  SsdConfig rate_only = QosTestConfig();
  rate_only.background_rate_mbps = 25;
  for (const SsdConfig& cfg : {sliced, weighted, throttled, rate_only}) {
    const WorkloadResult r = RunMixedWorkload(cfg);
    EXPECT_EQ(r.chan.scheduled_ns, base.chan.scheduled_ns);
    EXPECT_EQ(r.chan.class_scheduled_ns, base.chan.class_scheduled_ns);
    EXPECT_EQ(r.chan.class_bytes, base.chan.class_bytes);
    EXPECT_EQ(r.smart.nand_bytes_written, base.smart.nand_bytes_written);
  }
}

TEST(QosSchedulerTest, BackgroundReadsAreSchedulableSpansUnderQos) {
  // Under QoS a background read books into the background timeline, so
  // a later foreground write preempts the read span at a slice
  // boundary instead of ignoring it.
  sim::SimClock clock;
  SsdConfig cfg = QosTestConfig();
  cfg.background_slice_ns = 100'000;
  SsdDevice dev(cfg, &clock);
  ASSERT_TRUE(dev.Write(1000, 32, nullptr).ok());
  // Let the write's own booked span elapse, so the read books a fresh
  // background period anchored at t0.
  clock.Advance(320'000);
  const int64_t t0 = clock.NowNanos();

  std::vector<uint8_t> buf(4096 * 32);
  ASSERT_TRUE(clock.BeginAsync(1, sim::IoClass::kBackground));
  ASSERT_TRUE(dev.Read(1000, 32, buf.data()).ok());  // [t0, t0+320us)
  clock.EndAsync();

  clock.Advance(50'000);
  ASSERT_TRUE(dev.Write(0, 1, nullptr).ok());
  // Boundary of the read span's grid at t0 + 100us, + 1 page host.
  EXPECT_EQ(clock.NowNanos(), t0 + 101'000);
  EXPECT_EQ(Chan0(dev).preemptions, 1u);
}

TEST(QosSchedulerTest, ConcurrentMixedClassesKeepInvariants) {
  // Multi-threaded hammering of one channel with all knobs on: the
  // scheduler state lives under the device lock, so this is primarily
  // a TSan target. Invariants: totals match per-class splits, contents
  // survive, and conservation holds against a serial run of the same
  // per-thread command streams.
  sim::SimClock clock;
  SsdConfig cfg = QosTestConfig();
  cfg.background_slice_ns = 20'000;
  cfg.class_weights = {1, 1, 1};
  cfg.background_rate_mbps = 50;
  SsdDevice dev(cfg, &clock);

  std::thread fg([&] {
    std::vector<uint8_t> buf(4096 * 2, 0x5a);
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(dev.Write(2 * (static_cast<uint64_t>(i) % 64), 2,
                            buf.data()).ok());
    }
  });
  std::thread bg([&] {
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(clock.BeginAsync(1, sim::IoClass::kBackground));
      ASSERT_TRUE(dev.Write(1024 + 8 * (static_cast<uint64_t>(i) % 32), 8,
                            nullptr).ok());
      clock.EndAsync();
    }
  });
  std::thread rd([&] {
    std::vector<uint8_t> buf(4096);
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(dev.Read(static_cast<uint64_t>(i) % 128, 1,
                           buf.data()).ok());
    }
  });
  fg.join();
  bg.join();
  rd.join();

  const auto s = Chan0(dev);
  int64_t class_sum = 0;
  for (int64_t v : s.class_scheduled_ns) class_sum += v;
  EXPECT_EQ(class_sum, s.scheduled_ns);
  const auto fw = static_cast<size_t>(sim::IoClass::kForegroundWrite);
  const auto bg_c = static_cast<size_t>(sim::IoClass::kBackground);
  EXPECT_EQ(s.class_scheduled_ns[fw], 200 * 2 * kPageProgramNs);
  EXPECT_EQ(s.class_scheduled_ns[bg_c], 50 * 8 * kPageProgramNs);
  // Foreground contents survived the scheduling scrum.
  std::vector<uint8_t> buf(4096 * 2);
  ASSERT_TRUE(dev.Read(0, 2, buf.data()).ok());
  for (uint8_t b : buf) EXPECT_EQ(b, 0x5a);
  (void)kPageHostNs;
}

}  // namespace
}  // namespace ptsb::ssd
