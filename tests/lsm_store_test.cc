// End-to-end tests of LsmStore: correctness against a reference model
// through flushes and compactions, recovery, scans, stats, and the level
// structure invariants.
#include <gtest/gtest.h>

#include <string>

#include "block/memory_device.h"
#include "fs/filesystem.h"
#include "lsm/lsm_store.h"
#include "test_support.h"
#include "util/random.h"

namespace ptsb::lsm {
namespace {

LsmOptions TinyOptions() {
  // Tiny sizes so flushes and multi-level compactions happen within a few
  // thousand operations.
  LsmOptions o;
  o.memtable_bytes = 16 << 10;
  o.l0_compaction_trigger = 4;
  o.l0_stall_trigger = 8;
  o.l1_target_bytes = 64 << 10;
  o.level_size_ratio = 4;
  o.sst_target_bytes = 32 << 10;
  o.block_bytes = 1024;
  return o;
}

class LsmStoreTest : public ::testing::Test {
 protected:
  LsmStoreTest() : dev_(4096, 1 << 15), fs_(&dev_, FsOpts()) {}

  static fs::FsOptions FsOpts() {
    fs::FsOptions o;
    o.append_alloc_pages = 8;
    return o;
  }

  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(LsmStoreTest, PutGetRoundTrip) {
  auto store = LsmStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("hello", "world").ok());
  std::string v;
  ASSERT_TRUE((*store)->Get("hello", &v).ok());
  EXPECT_EQ(v, "world");
  EXPECT_TRUE((*store)->Get("missing", &v).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST_F(LsmStoreTest, OverwriteReturnsNewest) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(store->Put("k", "v" + std::to_string(i)).ok());
  }
  std::string v;
  ASSERT_TRUE(store->Get("k", &v).ok());
  EXPECT_EQ(v, "v9");
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, DeleteHidesKeyAcrossFlush) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store->Put("k", "v").ok());
  ASSERT_TRUE(store->Flush().ok());  // value now in an SST
  ASSERT_TRUE(store->Delete("k").ok());
  std::string v;
  EXPECT_TRUE(store->Get("k", &v).IsNotFound());
  ASSERT_TRUE(store->Flush().ok());  // tombstone now in an SST too
  EXPECT_TRUE(store->Get("k", &v).IsNotFound());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, FlushCreatesL0AndCompactionsCascade) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  Rng rng(1);
  std::string value(512, 'v');
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(
        store->Put("key" + std::to_string(rng.Uniform(2000)), value).ok());
  }
  ASSERT_TRUE(store->DrainCompactions().ok());
  // With ~1 MiB of live data and a 16 KiB memtable, data must have reached
  // at least L1.
  EXPECT_GE(store->versions().MaxPopulatedLevel(), 1);
  EXPECT_TRUE(store->versions().CheckInvariants().ok());
  const auto stats = store->GetStats();
  EXPECT_GT(stats.flush_bytes_written, 0u);
  EXPECT_GT(stats.compaction_bytes_written, 0u);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, MatchesReferenceModelThroughCompactions) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  testing::ReferenceModel model;
  Rng rng(7);
  testing::RunRandomOps(store.get(), &model, &rng, 6000, 1500, 300, 0.85);
  testing::VerifyAll(store.get(), model);
  EXPECT_TRUE(store->versions().CheckInvariants().ok());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, ScanReturnsSortedLiveKeys) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  testing::ReferenceModel model;
  Rng rng(9);
  testing::RunRandomOps(store.get(), &model, &rng, 3000, 800, 200, 0.7);
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(testing::CollectRange(store.get(), "", 100000, &got).ok());
  ASSERT_EQ(got.size(), model.size());
  auto expect = model.map().begin();
  for (const auto& [k, v] : got) {
    EXPECT_EQ(k, expect->first);
    EXPECT_EQ(v, expect->second);
    ++expect;
  }
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, ScanRangeAndLimit) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store->Put(key, "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(testing::CollectRange(store.get(), "k050", 10, &got).ok());
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front().first, "k050");
  EXPECT_EQ(got.back().first, "k059");
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, IteratorMergesMemtableAndSstsSkippingTombstones) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  // Older versions + tombstones in SSTs, newer versions in the memtable.
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store->Put(key, "old").ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  for (int i = 0; i < 100; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store->Delete(key).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  for (int i = 1; i < 100; i += 4) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store->Put(key, "new").ok());  // stays in the memtable
  }

  auto it = store->NewIterator();
  int seen = 0;
  std::string prev;
  for (it->Seek("k010"); it->Valid(); it->Next()) {
    const std::string key(it->key());
    ASSERT_GE(key, "k010");
    if (!prev.empty()) {
      ASSERT_LT(prev, key);
    }  // strictly ascending, deduped
    const int id = std::stoi(key.substr(1));
    ASSERT_NE(id % 2, 0) << key << " was deleted";
    EXPECT_EQ(it->value(), (id - 1) % 4 == 0 ? "new" : "old");
    prev = key;
    seen++;
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(seen, 45);  // odd ids in [11, 99]
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, BatchedWriteAppliesAllEntriesInOrder) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  kv::WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(store->Write(batch).ok());
  std::string v;
  EXPECT_TRUE(store->Get("a", &v).IsNotFound());  // later delete wins
  ASSERT_TRUE(store->Get("b", &v).ok());
  EXPECT_EQ(v, "2");
  ASSERT_TRUE(store->Get("c", &v).ok());
  const auto stats = store->GetStats();
  EXPECT_EQ(stats.user_batches, 1u);
  EXPECT_EQ(stats.user_puts, 3u);
  EXPECT_EQ(stats.user_deletes, 1u);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, BatchedWalRecordsReplayAfterCrash) {
  auto options = TinyOptions();
  options.wal_sync_every_bytes = 1;  // sync every record
  options.memtable_bytes = 1 << 20;  // keep everything in the WAL
  kv::WriteBatch batch;
  {
    auto store = *LsmStore::Open(&fs_, options);
    for (int i = 0; i < 300; i++) {
      batch.Put("k" + std::to_string(i), "v" + std::to_string(i));
      if (batch.Count() == 32) {
        ASSERT_TRUE(store->Write(batch).ok());
        batch.Clear();
      }
    }
    if (!batch.empty()) {
      ASSERT_TRUE(store->Write(batch).ok());
    }
    // Crash without Close: recovery must replay the multi-entry records.
    fs_.SimulateCrash();
    store.release();  // NOLINT: intentional leak of a "crashed" instance
  }
  auto store = *LsmStore::Open(&fs_, options);
  std::string v;
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(store->Get("k" + std::to_string(i), &v).ok()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, ReopenRecoversFlushedAndWalData) {
  testing::ReferenceModel model;
  {
    auto store = *LsmStore::Open(&fs_, TinyOptions());
    Rng rng(11);
    testing::RunRandomOps(store.get(), &model, &rng, 2000, 500, 300, 0.9);
    ASSERT_TRUE(store->Close().ok());
  }
  {
    auto store = LsmStore::Open(&fs_, TinyOptions());
    ASSERT_TRUE(store.ok());
    testing::VerifyAll(store->get(), model);
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST_F(LsmStoreTest, CrashRecoveryKeepsDurablePrefix) {
  // Writes go through the WAL; a crash drops only the unsynced tail. After
  // reopen, every key that was visible before the last full page is intact.
  auto options = TinyOptions();
  options.wal_sync_every_bytes = 1;  // sync on every record
  testing::ReferenceModel model;
  {
    auto store = *LsmStore::Open(&fs_, options);
    Rng rng(13);
    testing::RunRandomOps(store.get(), &model, &rng, 1500, 400, 200, 0.85);
    // No Close: simulate power failure.
    fs_.SimulateCrash();
    // The store object is now abandoned (as a crashed process would be).
    // Prevent its destructor from flushing post-crash state.
    store.release();  // NOLINT: intentional leak of a "crashed" instance
  }
  {
    auto store = LsmStore::Open(&fs_, options);
    ASSERT_TRUE(store.ok());
    testing::VerifyAll(store->get(), model);
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST_F(LsmStoreTest, OpenIgnoresForeignFileNames) {
  // Only "<digits>.log" and "<digits>.sst" names are the store's own
  // files; anything else in its directory must not abort recovery, and is
  // neither replayed nor deleted.
  {
    auto store = *LsmStore::Open(&fs_, TinyOptions());
    ASSERT_TRUE(store->Put("a", "1").ok());
    ASSERT_TRUE(store->Close().ok());
  }
  for (const char* name : {"lsm/notes.log", "lsm/backup.sst", "lsm/12x.log"}) {
    fs::File* file = *fs_.Create(name);
    ASSERT_TRUE(file->Append("not a log").ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  auto store = LsmStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string v;
  ASSERT_TRUE((*store)->Get("a", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE((*store)->Put("b", "2").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Close().ok());
  EXPECT_TRUE(fs_.Exists("lsm/notes.log"));
  EXPECT_TRUE(fs_.Exists("lsm/backup.sst"));
  EXPECT_TRUE(fs_.Exists("lsm/12x.log"));
}

TEST_F(LsmStoreTest, WalDisabledLosesMemtableOnCrashButStaysConsistent) {
  auto options = TinyOptions();
  options.wal_enabled = false;
  {
    auto store = *LsmStore::Open(&fs_, options);
    ASSERT_TRUE(store->Put("a", "1").ok());
    ASSERT_TRUE(store->Flush().ok());
    ASSERT_TRUE(store->Put("b", "2").ok());  // memtable only
    fs_.SimulateCrash();
    store.release();  // NOLINT
  }
  {
    auto store = *LsmStore::Open(&fs_, options);
    std::string v;
    EXPECT_TRUE(store->Get("a", &v).ok());
    EXPECT_TRUE(store->Get("b", &v).IsNotFound());
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST_F(LsmStoreTest, TombstonesDroppedAtBottomLevel) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  std::string value(256, 'v');
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), value).ok());
  }
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(store->Delete("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store->CompactAll().ok());
  // Everything deleted and fully compacted: the tree is empty (tombstones
  // dropped at the bottom).
  EXPECT_EQ(store->versions().TotalEntries(), 0u);
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(testing::CollectRange(store.get(), "", 1000, &got).ok());
  EXPECT_TRUE(got.empty());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, StatsAccounting) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  std::string value(100, 'v');
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i), value).ok());
  }
  std::string v;
  ASSERT_TRUE(store->Get("key5", &v).ok());
  const auto stats = store->GetStats();
  EXPECT_EQ(stats.user_puts, 100u);
  EXPECT_EQ(stats.user_gets, 1u);
  EXPECT_GT(stats.user_bytes_written, 100u * 100);
  EXPECT_GT(stats.wal_bytes_written, stats.user_bytes_written);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, DiskBytesUsedTracksLiveFiles) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  const uint64_t before = store->DiskBytesUsed();
  std::string value(1000, 'v');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_GT(store->DiskBytesUsed(), before + 100 * 1000);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, LargeValuesSpanningManyBlocks) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  // Values much larger than the 1 KiB block size.
  std::string big(8000, 'B');
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(store->Put("big" + std::to_string(i), big).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  std::string v;
  ASSERT_TRUE(store->Get("big25", &v).ok());
  EXPECT_EQ(v, big);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, SequentialLoadUsesTrivialMoves) {
  // Sequentially-loaded, non-overlapping SSTs should mostly cascade down
  // by trivial moves, keeping compaction write volume low (this is why the
  // paper's load phase is cheap for RocksDB).
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  std::string value(400, 'v');
  for (int i = 0; i < 3000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%08d", i);
    ASSERT_TRUE(store->Put(key, value).ok());
  }
  ASSERT_TRUE(store->DrainCompactions().ok());
  const auto stats = store->GetStats();
  // Rewrite ratio: compaction writes per flushed byte stays well below
  // what random updates would cause.
  EXPECT_LT(static_cast<double>(stats.compaction_bytes_written),
            1.0 * static_cast<double>(stats.flush_bytes_written));
  ASSERT_TRUE(store->Close().ok());
}

// Property sweep over workload shapes: the store must match the reference
// model under every mix.
class LsmPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, int, uint64_t>> {};

TEST_P(LsmPropertyTest, ModelEquivalence) {
  const double put_bias = std::get<0>(GetParam());
  const int value_bytes = std::get<1>(GetParam());
  const uint64_t seed = std::get<2>(GetParam());
  block::MemoryBlockDevice dev(4096, 1 << 15);
  fs::SimpleFs fs(&dev, {});
  auto store = *LsmStore::Open(&fs, TinyOptions());
  testing::ReferenceModel model;
  Rng rng(seed);
  testing::RunRandomOps(store.get(), &model, &rng, 4000, 1000, value_bytes,
                        put_bias);
  testing::VerifyAll(store.get(), model);
  EXPECT_TRUE(store->versions().CheckInvariants().ok());
  ASSERT_TRUE(store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LsmPropertyTest,
    ::testing::Combine(::testing::Values(0.5, 0.95),
                       ::testing::Values(16, 700),
                       ::testing::Values(101u, 202u)));

}  // namespace
}  // namespace ptsb::lsm
