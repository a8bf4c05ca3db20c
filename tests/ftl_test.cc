// Unit and property tests for the flash translation layer: mapping
// correctness, GC behavior, conservation invariants, and the emergent
// write-amplification characteristics the paper's analysis relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <tuple>
#include <vector>

#include "ssd/config.h"
#include "ssd/ftl.h"
#include "util/random.h"

namespace ptsb::ssd {
namespace {

FlashGeometry SmallGeometry(uint64_t logical_mib = 16, double op = 0.15) {
  FlashGeometry g;
  g.page_bytes = 4096;
  g.pages_per_block = 64;
  g.logical_bytes = logical_mib << 20;
  g.hardware_op_frac = op;
  return g;
}

TEST(FtlTest, FreshDeviceUnmapped) {
  FlashTranslationLayer ftl(SmallGeometry());
  EXPECT_FALSE(ftl.IsMapped(0));
  EXPECT_FALSE(ftl.IsMapped(ftl.geometry().LogicalPages() - 1));
  EXPECT_EQ(ftl.GetStats().valid_pages, 0u);
  EXPECT_EQ(ftl.DeviceWriteAmplification(), 1.0);
}

TEST(FtlTest, WriteMapsPage) {
  FlashTranslationLayer ftl(SmallGeometry());
  auto work = ftl.HostWrite(5);
  EXPECT_EQ(work.host_pages, 1u);
  EXPECT_EQ(work.gc_write_pages, 0u);
  EXPECT_TRUE(ftl.IsMapped(5));
  EXPECT_EQ(ftl.GetStats().valid_pages, 1u);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

TEST(FtlTest, OverwriteKeepsOneValidCopy) {
  FlashTranslationLayer ftl(SmallGeometry());
  for (int i = 0; i < 10; i++) ftl.HostWrite(7);
  EXPECT_EQ(ftl.GetStats().valid_pages, 1u);
  EXPECT_EQ(ftl.GetStats().host_pages_written, 10u);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

TEST(FtlTest, TrimUnmapsAndIsIdempotent) {
  FlashTranslationLayer ftl(SmallGeometry());
  ftl.HostWrite(3);
  ftl.Trim(3);
  EXPECT_FALSE(ftl.IsMapped(3));
  EXPECT_EQ(ftl.GetStats().valid_pages, 0u);
  ftl.Trim(3);  // no-op
  EXPECT_EQ(ftl.GetStats().pages_trimmed, 1u);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

TEST(FtlTest, SequentialFillIncursNoGc) {
  FlashTranslationLayer ftl(SmallGeometry());
  const uint64_t pages = ftl.geometry().LogicalPages();
  for (uint64_t p = 0; p < pages; p++) ftl.HostWrite(p);
  const auto s = ftl.GetStats();
  EXPECT_EQ(s.host_pages_written, pages);
  EXPECT_EQ(s.gc_pages_relocated, 0u);
  EXPECT_EQ(ftl.DeviceWriteAmplification(), 1.0);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

TEST(FtlTest, SequentialOverwriteKeepsWaNearOne) {
  // Rewriting the whole space sequentially invalidates whole blocks at a
  // time, so GC victims are empty and relocate nothing.
  FlashTranslationLayer ftl(SmallGeometry());
  const uint64_t pages = ftl.geometry().LogicalPages();
  for (int lap = 0; lap < 4; lap++) {
    for (uint64_t p = 0; p < pages; p++) ftl.HostWrite(p);
  }
  EXPECT_LT(ftl.DeviceWriteAmplification(), 1.05);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

TEST(FtlTest, RandomOverwriteOfFullDeviceAmplifies) {
  FlashTranslationLayer ftl(SmallGeometry(16, 0.10));
  const uint64_t pages = ftl.geometry().LogicalPages();
  for (uint64_t p = 0; p < pages; p++) ftl.HostWrite(p);
  Rng rng(1);
  for (uint64_t i = 0; i < 4 * pages; i++) {
    ftl.HostWrite(rng.Uniform(pages));
  }
  // Full utilization with 10% OP: heavy relocation traffic.
  EXPECT_GT(ftl.DeviceWriteAmplification(), 1.8);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

TEST(FtlTest, TrimmedRegionActsAsOverProvisioning) {
  // Writing only half the LBA space on a trimmed device leaves the rest as
  // implicit OP, keeping WA-D low: the WiredTiger effect of Fig. 3/4.
  FlashTranslationLayer full(SmallGeometry(16, 0.10));
  FlashTranslationLayer half(SmallGeometry(16, 0.10));
  const uint64_t pages = full.geometry().LogicalPages();
  Rng rng(4);
  // "full": every LBA valid, then random updates to the first half.
  for (uint64_t p = 0; p < pages; p++) full.HostWrite(p);
  for (uint64_t i = 0; i < 4 * pages; i++) {
    full.HostWrite(rng.Uniform(pages / 2));
  }
  // "half": only the first half ever written.
  for (uint64_t p = 0; p < pages / 2; p++) half.HostWrite(p);
  for (uint64_t i = 0; i < 4 * pages; i++) {
    half.HostWrite(rng.Uniform(pages / 2));
  }
  EXPECT_GT(full.DeviceWriteAmplification(),
            half.DeviceWriteAmplification() + 0.2);
}

TEST(FtlTest, ConservationNandEqualsHostPlusGc) {
  FlashTranslationLayer ftl(SmallGeometry());
  const uint64_t pages = ftl.geometry().LogicalPages();
  Rng rng(5);
  for (uint64_t i = 0; i < 3 * pages; i++) ftl.HostWrite(rng.Uniform(pages));
  const auto s = ftl.GetStats();
  EXPECT_EQ(s.nand_pages_written(), s.host_pages_written + s.gc_pages_relocated);
  EXPECT_EQ(s.host_pages_written, 3 * pages);
}

TEST(FtlTest, ValidPagesNeverExceedLogicalSpace) {
  FlashTranslationLayer ftl(SmallGeometry());
  const uint64_t pages = ftl.geometry().LogicalPages();
  Rng rng(6);
  for (uint64_t i = 0; i < 2 * pages; i++) {
    ftl.HostWrite(rng.Uniform(pages));
    if (i % 7 == 0) ftl.Trim(rng.Uniform(pages));
  }
  EXPECT_LE(ftl.GetStats().valid_pages, pages);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

TEST(FtlTest, GcMaintainsFreeBlockFloor) {
  FlashTranslationLayer ftl(SmallGeometry(16, 0.10));
  const uint64_t pages = ftl.geometry().LogicalPages();
  Rng rng(7);
  for (uint64_t i = 0; i < 5 * pages; i++) ftl.HostWrite(rng.Uniform(pages));
  const auto s = ftl.GetStats();
  EXPECT_GE(s.free_blocks, 3u);
}

// The WA-D sweep: steady-state uniform random single-page overwrites on a
// 512 MiB drive of 1 MiB (256-page) blocks, host writes striped over 8
// open blocks as in the default SsdConfig.
struct WaCell {
  double utilization;  // fraction of the LBA space written
  double op;           // hardware over-provisioning

  FlashGeometry Geometry() const {
    FlashGeometry g;
    g.logical_bytes = 512ull << 20;
    g.hardware_op_frac = op;
    return g;
  }
  uint64_t LivePages() const {
    return static_cast<uint64_t>(
        utilization * static_cast<double>(Geometry().LogicalPages()));
  }
};

// Fills the first `utilization` of the LBA space, warms GC up with 4x that
// many overwrites, and returns the WA-D of the next 2x. With `skewed`, 90%
// of the overwrites go to the first tenth of the written space.
double SteadyWaD(WaCell cell, bool skewed = false) {
  FlashTranslationLayer ftl(cell.Geometry(), /*host_open_blocks=*/8);
  const uint64_t used = cell.LivePages();
  Rng rng(7);
  auto overwrite = [&] {
    if (!skewed) return ftl.HostWrite(rng.Uniform(used));
    const uint64_t hot = used / 10;
    return ftl.HostWrite(rng.Bernoulli(0.9) ? rng.Uniform(hot)
                                            : hot + rng.Uniform(used - hot));
  };
  for (uint64_t p = 0; p < used; p++) ftl.HostWrite(p);
  for (uint64_t i = 0; i < 4 * used; i++) overwrite();
  const auto s0 = ftl.GetStats();
  for (uint64_t i = 0; i < 2 * used; i++) overwrite();
  const auto s1 = ftl.GetStats();
  EXPECT_TRUE(ftl.CheckConsistency().ok());
  return static_cast<double>(s1.nand_pages_written() - s0.nand_pages_written()) /
         static_cast<double>(s1.host_pages_written - s0.host_pages_written);
}

// Utilization 0.30..0.90 at 12% OP, then OP 7/20/40% at 0.90 (12% at 0.90
// is the last utilization row).
const WaCell kSweep[] = {{0.30, 0.12}, {0.45, 0.12}, {0.60, 0.12},
                         {0.75, 0.12}, {0.90, 0.12}, {0.90, 0.07},
                         {0.90, 0.20}, {0.90, 0.40}};

// WA-D of kSweep[i], computed at most once per process.
double SweepWaD(size_t i) {
  static std::vector<double> wa(std::size(kSweep), 0);
  if (wa[i] == 0) wa[i] = SteadyWaD(kSweep[i]);
  return wa[i];
}

TEST(FtlTest, WaRisesWithUtilization) {
  for (size_t i = 1; i < 5; i++) {
    EXPECT_GT(SweepWaD(i), SweepWaD(i - 1))
        << "utilization " << kSweep[i].utilization;
  }
}

TEST(FtlTest, WaFallsWithOverProvisioning) {
  // OP 7%, 12%, 20%, 40% at 0.90 utilization.
  EXPECT_GT(SweepWaD(5), SweepWaD(4));
  EXPECT_GT(SweepWaD(4), SweepWaD(6));
  EXPECT_GT(SweepWaD(6), SweepWaD(7));
}

TEST(FtlTest, Section42ReferencePoint) {
  // Section 4.2 of the paper: a pure random write workload over 60% of
  // the drive has WA-D around 1.4.
  EXPECT_NEAR(SweepWaD(2), 1.4, 0.1);
}

// Desnoyers, "Analytic Modeling of SSD Write Performance" (SYSTOR 2012):
// under uniform random writes, LRW (FIFO) cleaning has
// WA = alpha / (alpha + W0(-alpha * e^-alpha)), alpha = physical pages
// over live pages. W0 is found by Newton's method on w * e^w = z, which
// converges monotonically from w = 0 since w * e^w is convex on (-1, 0].
double LrwWaD(double alpha) {
  const double z = -alpha * std::exp(-alpha);
  double w = 0;
  for (int i = 0; i < 100; i++) {
    w -= (w * std::exp(w) - z) / (std::exp(w) * (1 + w));
  }
  return alpha / (alpha + w);
}

TEST(FtlTest, GreedyStaysNearLrwModel) {
  // Greedy cleaning should do no worse than LRW on uniform traffic; the
  // GC watermark reserve and the open-block stripe cost up to 1.21x here.
  for (size_t i = 0; i < std::size(kSweep); i++) {
    const double lrw =
        LrwWaD(static_cast<double>(kSweep[i].Geometry().PhysicalPages()) /
               static_cast<double>(kSweep[i].LivePages()));
    EXPECT_LE(SweepWaD(i), 1.25 * lrw)
        << "utilization " << kSweep[i].utilization << ", OP " << kSweep[i].op;
  }
}

TEST(FtlTest, SkewedWritesLowerWa) {
  // 90/10 skew leaves the cold blocks mostly valid and lets greedy GC
  // reclaim nearly empty hot ones.
  // kSweep[4] is 0.90 utilization, 12% OP.
  EXPECT_LT(SteadyWaD(kSweep[4], /*skewed=*/true), SweepWaD(4));
}

// Property sweep: random mixes of writes and trims at several utilization
// levels and OP levels must preserve every FTL invariant.
class FtlPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double, uint64_t>> {};

TEST_P(FtlPropertyTest, RandomOpsPreserveInvariants) {
  const double utilization = std::get<0>(GetParam());
  const double op = std::get<1>(GetParam());
  const uint64_t seed = std::get<2>(GetParam());
  FlashTranslationLayer ftl(SmallGeometry(16, op));
  const uint64_t pages = ftl.geometry().LogicalPages();
  const auto used = static_cast<uint64_t>(utilization * static_cast<double>(pages));
  Rng rng(seed);
  uint64_t host_expected = 0;
  for (uint64_t i = 0; i < 4 * pages; i++) {
    if (rng.Bernoulli(0.9)) {
      ftl.HostWrite(rng.Uniform(used));
      host_expected++;
    } else {
      ftl.Trim(rng.Uniform(used));
    }
  }
  ASSERT_TRUE(ftl.CheckConsistency().ok());
  const auto s = ftl.GetStats();
  EXPECT_EQ(s.host_pages_written, host_expected);
  EXPECT_GE(ftl.DeviceWriteAmplification(), 1.0);
  EXPECT_LE(s.valid_pages, used);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FtlPropertyTest,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.75, 0.95),
                       ::testing::Values(0.08, 0.2),
                       ::testing::Values(11u, 22u)));

}  // namespace
}  // namespace ptsb::ssd
