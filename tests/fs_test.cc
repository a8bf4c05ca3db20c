// Tests for SimpleFs: namespace ops, append/read paths, sync and crash
// semantics, extent allocation and fragmentation, nodiscard behavior.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "block/memory_device.h"
#include "fs/extent_allocator.h"
#include "fs/file.h"
#include "fs/filesystem.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "util/logging.h"
#include "util/random.h"

namespace ptsb::fs {
namespace {

constexpr uint64_t kPage = 4096;

FsOptions SmallFsOptions() {
  FsOptions o;
  o.metadata_pages = 4;
  o.append_alloc_pages = 4;
  o.max_extent_pages = 16;
  return o;
}

class FsTest : public ::testing::Test {
 protected:
  FsTest() : dev_(kPage, 1024), fs_(&dev_, SmallFsOptions()) {}

  std::string ReadAll(File* f) {
    std::string out(f->size(), '\0');
    auto n = f->ReadAt(0, out.size(), out.data());
    PTSB_CHECK_OK(n.status());
    out.resize(*n);
    return out;
  }

  block::MemoryBlockDevice dev_;
  SimpleFs fs_;
};

TEST_F(FsTest, CreateOpenDelete) {
  auto f = fs_.Create("a");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(fs_.Exists("a"));
  EXPECT_TRUE(fs_.Create("a").status().IsInvalidArgument());
  EXPECT_TRUE(fs_.Open("a").ok());
  ASSERT_TRUE(fs_.Delete("a").ok());
  EXPECT_FALSE(fs_.Exists("a"));
  EXPECT_TRUE(fs_.Open("a").status().IsNotFound());
  EXPECT_TRUE(fs_.Delete("a").IsNotFound());
}

TEST_F(FsTest, AppendAndReadBack) {
  File* f = *fs_.Create("f");
  const std::string data = "hello world";
  ASSERT_TRUE(f->Append(data).ok());
  EXPECT_EQ(f->size(), data.size());
  EXPECT_EQ(ReadAll(f), data);
}

TEST_F(FsTest, AppendSpanningPages) {
  File* f = *fs_.Create("f");
  Rng rng(1);
  std::string all;
  // Odd-sized appends crossing page boundaries repeatedly.
  for (int i = 0; i < 50; i++) {
    std::string chunk(rng.UniformRange(1, 3000), static_cast<char>('a' + i % 26));
    all += chunk;
    ASSERT_TRUE(f->Append(chunk).ok());
  }
  EXPECT_EQ(f->size(), all.size());
  EXPECT_EQ(ReadAll(f), all);
  // Random-offset reads.
  for (int i = 0; i < 100; i++) {
    const uint64_t off = rng.Uniform(all.size());
    const uint64_t len = rng.UniformRange(1, 5000);
    std::string out(len, '\0');
    auto n = f->ReadAt(off, len, out.data());
    ASSERT_TRUE(n.ok());
    out.resize(*n);
    EXPECT_EQ(out, all.substr(off, len));
  }
}

TEST_F(FsTest, BulkAppendUsesWholePageFastPath) {
  File* f = *fs_.Create("f");
  std::string big(10 * kPage, 'z');
  ASSERT_TRUE(f->Append(big).ok());
  EXPECT_EQ(f->size(), big.size());
  EXPECT_EQ(f->synced_size(), big.size());  // whole pages write through
  EXPECT_EQ(ReadAll(f), big);
}

TEST_F(FsTest, ReadPastEofIsShort) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append("abc").ok());
  char buf[16];
  auto n = f->ReadAt(1, 100, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  auto n2 = f->ReadAt(10, 5, buf);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
}

TEST_F(FsTest, SyncMaterializesTail) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append("partial page").ok());
  EXPECT_EQ(f->synced_size(), 0u);
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(f->synced_size(), f->size());
  EXPECT_GT(dev_.flushes(), 0u);
}

TEST_F(FsTest, CrashDropsUnsyncedTail) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append("durable!").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("lost").ok());
  fs_.SimulateCrash();
  EXPECT_EQ(f->size(), 8u);
  EXPECT_EQ(ReadAll(f), "durable!");
  // The file remains usable: append again after "reboot".
  ASSERT_TRUE(f->Append("+more").ok());
  EXPECT_EQ(ReadAll(f), "durable!+more");
}

TEST_F(FsTest, CrashKeepsWholePagesEvenUnsynced) {
  File* f = *fs_.Create("f");
  std::string page(kPage, 'q');
  ASSERT_TRUE(f->Append(page).ok());
  ASSERT_TRUE(f->Append("tail").ok());
  fs_.SimulateCrash();
  EXPECT_EQ(f->size(), kPage);
  EXPECT_EQ(ReadAll(f), page);
}

TEST_F(FsTest, RenameMovesAndReplaces) {
  File* a = *fs_.Create("a");
  ASSERT_TRUE(a->Append("AAA").ok());
  File* b = *fs_.Create("b");
  ASSERT_TRUE(b->Append("BBB").ok());
  ASSERT_TRUE(fs_.Rename("a", "b").ok());
  EXPECT_FALSE(fs_.Exists("a"));
  ASSERT_TRUE(fs_.Exists("b"));
  EXPECT_EQ(ReadAll(*fs_.Open("b")), "AAA");
  EXPECT_TRUE(fs_.Rename("nope", "x").IsNotFound());
}

TEST_F(FsTest, ListByPrefix) {
  ASSERT_TRUE(fs_.Create("sst/000001").ok());
  ASSERT_TRUE(fs_.Create("sst/000002").ok());
  ASSERT_TRUE(fs_.Create("wal/000001").ok());
  EXPECT_EQ(fs_.List("sst/").size(), 2u);
  EXPECT_EQ(fs_.List("wal/").size(), 1u);
  EXPECT_EQ(fs_.List().size(), 3u);
}

TEST_F(FsTest, ExtendAndWriteAt) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Extend(8 * kPage).ok());
  EXPECT_EQ(f->size(), 8 * kPage);
  std::string block(2 * kPage, 'B');
  ASSERT_TRUE(f->WriteAt(4 * kPage, block).ok());
  std::string out(2 * kPage, '\0');
  auto n = f->ReadAt(4 * kPage, out.size(), out.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, block);
}

TEST_F(FsTest, WriteAtRequiresAlignmentAndAllocation) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Extend(2 * kPage).ok());
  std::string page(kPage, 'x');
  EXPECT_TRUE(f->WriteAt(1, page).IsInvalidArgument());
  EXPECT_TRUE(f->WriteAt(0, "short").IsInvalidArgument());
  EXPECT_TRUE(f->WriteAt(2 * kPage, page).IsInvalidArgument());
  EXPECT_TRUE(f->WriteAt(kPage, page).ok());
}

TEST_F(FsTest, ShrinkToFitReleasesSlack) {
  File* f = *fs_.Create("f");
  // 1.5 pages: completing the first page triggers a 4-page allocation
  // chunk (append_alloc_pages), leaving slack.
  const std::string data(kPage + kPage / 2, 's');
  ASSERT_TRUE(f->Append(data).ok());
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_GE(f->allocated_bytes(), 4 * kPage);  // append_alloc_pages chunk
  ASSERT_TRUE(f->ShrinkToFit().ok());
  EXPECT_EQ(f->allocated_bytes(), 2 * kPage);
  EXPECT_EQ(ReadAll(f), data);
  EXPECT_TRUE(fs_.CheckConsistency().ok());
}

TEST_F(FsTest, DeleteFreesSpace) {
  const uint64_t free0 = fs_.GetStats().free_bytes;
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append(std::string(100 * kPage, 'd')).ok());
  EXPECT_LT(fs_.GetStats().free_bytes, free0);
  ASSERT_TRUE(fs_.Delete("f").ok());
  EXPECT_EQ(fs_.GetStats().free_bytes, free0);
  EXPECT_TRUE(fs_.CheckConsistency().ok());
}

TEST_F(FsTest, OutOfSpaceReported) {
  File* f = *fs_.Create("f");
  // Device is 1024 pages; ask for more.
  Status s = f->Extend(2000 * kPage);
  EXPECT_TRUE(s.IsNoSpace());
  EXPECT_TRUE(fs_.CheckConsistency().ok());
}

TEST_F(FsTest, UtilizationTracksData) {
  const double u0 = fs_.GetStats().Utilization();
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append(std::string(512 * kPage, 'u')).ok());
  const double u1 = fs_.GetStats().Utilization();
  EXPECT_GT(u1, u0 + 0.4);
}

TEST_F(FsTest, FragmentationFromChurn) {
  // Alternating create/delete of differently-sized files fragments the
  // free space; allocation still succeeds by splitting extents.
  Rng rng(3);
  for (int round = 0; round < 20; round++) {
    for (int i = 0; i < 8; i++) {
      File* f = *fs_.Create("f" + std::to_string(i));
      ASSERT_TRUE(
          f->Append(std::string(rng.UniformRange(1, 40) * kPage, 'x')).ok());
    }
    for (int i = 0; i < 8; i += 2) {
      ASSERT_TRUE(fs_.Delete("f" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(fs_.CheckConsistency().ok());
    for (int i = 1; i < 8; i += 2) {
      ASSERT_TRUE(fs_.Delete("f" + std::to_string(i)).ok());
    }
  }
  EXPECT_TRUE(fs_.CheckConsistency().ok());
}

TEST_F(FsTest, InterleavedGrowthScattersExtents) {
  // Two files growing in lockstep interleave their allocation chunks, so
  // each ends up with multiple discontiguous extents — the mechanism that
  // fragments concurrently-written LSM outputs and WAL segments.
  File* a = *fs_.Create("a");
  File* b = *fs_.Create("b");
  for (int i = 0; i < 16; i++) {
    ASSERT_TRUE(a->Append(std::string(4 * kPage, 'a')).ok());
    ASSERT_TRUE(b->Append(std::string(4 * kPage, 'b')).ok());
  }
  EXPECT_GE(a->ExtentCount(), 2u);
  EXPECT_GE(b->ExtentCount(), 2u);
  // Contents must survive the scattering.
  EXPECT_EQ(ReadAll(a), std::string(64 * kPage, 'a'));
  EXPECT_EQ(ReadAll(b), std::string(64 * kPage, 'b'));
}

TEST(FsNodiscardTest, DiscardModeTrimsOnDelete) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 8 << 20;
  cfg.geometry.pages_per_block = 64;
  cfg.geometry.hardware_op_frac = 0.2;
  ssd::SsdDevice dev(cfg, &clock);

  for (const bool nodiscard : {true, false}) {
    FsOptions o;
    o.metadata_pages = 4;
    o.nodiscard = nodiscard;
    SimpleFs fs(&dev, o);
    File* f = *fs.Create("f");
    ASSERT_TRUE(f->Append(std::string(100 * 4096, 'x')).ok());
    const uint64_t valid_before = dev.ftl().GetStats().valid_pages;
    ASSERT_TRUE(fs.Delete("f").ok());
    const uint64_t valid_after = dev.ftl().GetStats().valid_pages;
    if (nodiscard) {
      // ext4 nodiscard: the FTL still sees the deleted data as valid
      // (modulo the one metadata page the delete touches).
      EXPECT_GE(valid_after + 1, valid_before);
    } else {
      EXPECT_LE(valid_after + 100, valid_before);
    }
  }
}

TEST(FsNodiscardTest, DiscardLowersChurnWaD) {
  // The discard mount option of Section 3.5 (Pitfall 3): churning 8 MiB
  // files over ~70% of a 256 MiB drive. Discard trims a deleted file's
  // LBAs, so the FTL relocates only live file data and the metadata region.
  double wa_d[2];  // indexed by nodiscard
  for (const bool nodiscard : {false, true}) {
    sim::SimClock clock;
    ssd::SsdConfig cfg;
    cfg.geometry.logical_bytes = 256ull << 20;
    ssd::SsdDevice dev(cfg, &clock);
    FsOptions o;
    o.nodiscard = nodiscard;
    SimpleFs fs(&dev, o);
    Rng rng(11);
    const std::string chunk(1 << 20, 'x');
    int generation = 0;
    std::vector<std::string> live;
    for (int i = 0; i < 400; i++) {
      if (live.size() >= 20 && rng.Bernoulli(0.55)) {
        const size_t idx = rng.Uniform(live.size());
        ASSERT_TRUE(fs.Delete(live[idx]).ok());
        live.erase(live.begin() + static_cast<long>(idx));
      } else {
        live.push_back("f" + std::to_string(generation++));
        File* f = *fs.Create(live.back());
        for (int j = 0; j < 8; j++) ASSERT_TRUE(f->Append(chunk).ok());
      }
    }
    wa_d[nodiscard] = dev.smart().WaD();
    if (!nodiscard) {
      EXPECT_LE(dev.ftl().GetStats().valid_pages,
                live.size() * (8 << 20) / kPage + o.metadata_pages);
    }
  }
  EXPECT_LT(wa_d[false], wa_d[true]);
}

TEST(ExtentAllocatorTest, AllocateAndFreeRoundTrip) {
  ExtentAllocator alloc(0, 100);
  auto a = alloc.Allocate(30, 0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(alloc.free_pages(), 70u);
  for (const auto& e : *a) alloc.Free(e);
  EXPECT_EQ(alloc.free_pages(), 100u);
  EXPECT_EQ(alloc.FreeExtentCount(), 1u);  // coalesced back
  EXPECT_TRUE(alloc.CheckConsistency().ok());
}

TEST(ExtentAllocatorTest, NoSpaceLeavesStateUntouched) {
  ExtentAllocator alloc(0, 10);
  EXPECT_TRUE(alloc.Allocate(11, 0).status().IsNoSpace());
  EXPECT_EQ(alloc.free_pages(), 10u);
  EXPECT_TRUE(alloc.Allocate(10, 0).ok());
}

TEST(ExtentAllocatorTest, MaxExtentSplits) {
  ExtentAllocator alloc(0, 100);
  auto a = alloc.Allocate(50, 8);
  ASSERT_TRUE(a.ok());
  uint64_t total = 0;
  for (const auto& e : *a) {
    EXPECT_LE(e.num_pages, 8u);
    total += e.num_pages;
  }
  EXPECT_EQ(total, 50u);
}

TEST(ExtentAllocatorTest, NextFitRotates) {
  ExtentAllocator alloc(0, 100);
  auto a = alloc.Allocate(10, 0);
  auto b = alloc.Allocate(10, 0);
  ASSERT_TRUE(a.ok() && b.ok());
  // Free the first allocation; next-fit should keep moving forward, not
  // immediately reuse the hole at the start.
  for (const auto& e : *a) alloc.Free(e);
  auto c = alloc.Allocate(10, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_GE((*c)[0].first_page, 20u);
  EXPECT_TRUE(alloc.CheckConsistency().ok());
}

TEST(ExtentAllocatorTest, WrapsAroundWhenCursorPassesEnd) {
  ExtentAllocator alloc(0, 100);
  auto a = alloc.Allocate(90, 0);
  ASSERT_TRUE(a.ok());
  for (const auto& e : *a) alloc.Free(e);
  // Cursor is at 90; a 20-page allocation cannot fit in [90,100) alone.
  auto b = alloc.Allocate(20, 0);
  ASSERT_TRUE(b.ok());
  uint64_t total = 0;
  for (const auto& e : *b) total += e.num_pages;
  EXPECT_EQ(total, 20u);
  EXPECT_TRUE(alloc.CheckConsistency().ok());
}

TEST(ExtentAllocatorTest, RandomizedStress) {
  ExtentAllocator alloc(16, 512);
  Rng rng(7);
  std::vector<std::vector<Extent>> live;
  for (int i = 0; i < 2000; i++) {
    if (rng.Bernoulli(0.6) || live.empty()) {
      auto r = alloc.Allocate(rng.UniformRange(1, 32),
                              rng.Bernoulli(0.5) ? 8 : 0);
      if (r.ok()) live.push_back(*r);
    } else {
      const size_t idx = rng.Uniform(live.size());
      for (const auto& e : live[idx]) alloc.Free(e);
      live.erase(live.begin() + static_cast<long>(idx));
    }
    ASSERT_TRUE(alloc.CheckConsistency().ok()) << "iteration " << i;
  }
}

}  // namespace
}  // namespace ptsb::fs
