// End-to-end tests of BTreeStore: model equivalence through splits,
// evictions and checkpoints; crash recovery with and without journal;
// structural invariants; cache behavior.
#include <gtest/gtest.h>

#include <string>

#include "block/memory_device.h"
#include "btree/btree_store.h"
#include "fs/filesystem.h"
#include "test_support.h"
#include "util/random.h"

namespace ptsb::btree {
namespace {

BTreeOptions TinyOptions() {
  BTreeOptions o;
  o.leaf_max_bytes = 2 << 10;
  o.internal_max_bytes = 512;
  o.cache_bytes = 16 << 10;  // a handful of leaves
  o.checkpoint_every_bytes = 64 << 10;
  o.file_grow_bytes = 64 << 10;
  return o;
}

class BTreeStoreTest : public ::testing::Test {
 protected:
  BTreeStoreTest() : dev_(4096, 1 << 15), fs_(&dev_, {}) {}
  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(BTreeStoreTest, PutGetRoundTrip) {
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store->Put("hello", "world").ok());
  std::string v;
  ASSERT_TRUE(store->Get("hello", &v).ok());
  EXPECT_EQ(v, "world");
  EXPECT_TRUE(store->Get("nope", &v).IsNotFound());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, OverwriteInPlace) {
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(store->Put("k", "v" + std::to_string(i)).ok());
  }
  std::string v;
  ASSERT_TRUE(store->Get("k", &v).ok());
  EXPECT_EQ(v, "v19");
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, DeleteRemoves) {
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store->Put("k", "v").ok());
  ASSERT_TRUE(store->Delete("k").ok());
  std::string v;
  EXPECT_TRUE(store->Get("k", &v).IsNotFound());
  // Deleting a missing key is a no-op.
  ASSERT_TRUE(store->Delete("never-existed").ok());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, SplitsGrowTheTree) {
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  const std::string value(300, 'v');
  for (int i = 0; i < 500; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(store->Put(key, value).ok());
  }
  ASSERT_TRUE(store->CheckStructure().ok());
  for (int i : {0, 250, 499}) {
    char key[16];
    snprintf(key, sizeof(key), "k%05d", i);
    std::string v;
    ASSERT_TRUE(store->Get(key, &v).ok()) << key;
    EXPECT_EQ(v, value);
  }
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, InsertBelowSmallestKeyRoutesCorrectly) {
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  const std::string value(300, 'v');
  for (int i = 1000; i < 1300; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), value).ok());
  }
  // Now insert keys sorting below every existing key.
  ASSERT_TRUE(store->Put("a-first", "tiny").ok());
  ASSERT_TRUE(store->Put("", "empty-key").ok());
  std::string v;
  ASSERT_TRUE(store->Get("a-first", &v).ok());
  EXPECT_EQ(v, "tiny");
  ASSERT_TRUE(store->Get("", &v).ok());
  EXPECT_EQ(v, "empty-key");
  ASSERT_TRUE(store->CheckStructure().ok());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, MatchesReferenceModelThroughEviction) {
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  testing::ReferenceModel model;
  Rng rng(21);
  testing::RunRandomOps(store.get(), &model, &rng, 6000, 1200, 250, 0.85);
  testing::VerifyAll(store.get(), model);
  ASSERT_TRUE(store->CheckStructure().ok());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, CacheStaysBounded) {
  auto options = TinyOptions();
  options.cache_bytes = 8 << 10;
  auto store = *BTreeStore::Open(&fs_, options);
  const std::string value(200, 'v');
  Rng rng(3);
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        store->Put("k" + std::to_string(rng.Uniform(2000)), value).ok());
  }
  // Cache can transiently exceed by one leaf; never by much more.
  EXPECT_LE(store->CacheBytes(), options.cache_bytes + options.leaf_max_bytes);
  const auto stats = store->GetStats();
  EXPECT_GT(stats.page_write_bytes, 0u);  // evictions wrote dirty leaves
  EXPECT_GT(stats.page_read_bytes, 0u);   // and misses read them back
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, ReopenRecoversCheckpointedData) {
  testing::ReferenceModel model;
  {
    auto store = *BTreeStore::Open(&fs_, TinyOptions());
    Rng rng(17);
    testing::RunRandomOps(store.get(), &model, &rng, 3000, 600, 250, 0.8);
    ASSERT_TRUE(store->Close().ok());  // checkpoints
  }
  {
    auto store = *BTreeStore::Open(&fs_, TinyOptions());
    testing::VerifyAll(store.get(), model);
    ASSERT_TRUE(store->CheckStructure().ok());
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST_F(BTreeStoreTest, CrashWithoutJournalRevertsToLastCheckpoint) {
  auto options = TinyOptions();
  options.checkpoint_every_bytes = 1 << 30;  // only explicit checkpoints
  {
    auto store = *BTreeStore::Open(&fs_, options);
    ASSERT_TRUE(store->Put("durable", "yes").ok());
    ASSERT_TRUE(store->Flush().ok());  // checkpoint
    ASSERT_TRUE(store->Put("volatile", "gone").ok());
    fs_.SimulateCrash();
    store.release();  // NOLINT: crashed instance
  }
  {
    auto store = *BTreeStore::Open(&fs_, options);
    std::string v;
    ASSERT_TRUE(store->Get("durable", &v).ok());
    EXPECT_EQ(v, "yes");
    EXPECT_TRUE(store->Get("volatile", &v).IsNotFound());
    ASSERT_TRUE(store->CheckStructure().ok());
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST_F(BTreeStoreTest, CrashMidWorkloadRecoversConsistently) {
  // Without a journal, the tree must still recover to *some* consistent
  // checkpoint state (no corruption), even when the crash lands between
  // checkpoints with evicted dirty leaves on disk.
  auto options = TinyOptions();
  options.checkpoint_every_bytes = 32 << 10;
  {
    auto store = *BTreeStore::Open(&fs_, options);
    Rng rng(23);
    const std::string value(250, 'v');
    for (int i = 0; i < 4000; i++) {
      ASSERT_TRUE(
          store->Put("k" + std::to_string(rng.Uniform(1000)), value).ok());
    }
    fs_.SimulateCrash();
    store.release();  // NOLINT
  }
  {
    auto store = *BTreeStore::Open(&fs_, options);
    ASSERT_TRUE(store->CheckStructure().ok());
    // Spot-read a few keys: values must be intact (well-formed, right size)
    // wherever present.
    std::string v;
    int found = 0;
    for (int i = 0; i < 1000; i++) {
      if (store->Get("k" + std::to_string(i), &v).ok()) {
        EXPECT_EQ(v.size(), 250u);
        found++;
      }
    }
    EXPECT_GT(found, 0);
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST_F(BTreeStoreTest, JournalRecoversPostCheckpointWrites) {
  auto options = TinyOptions();
  options.journal_enabled = true;
  options.journal_sync_every_bytes = 1;  // sync every record
  options.checkpoint_every_bytes = 1 << 30;
  testing::ReferenceModel model;
  {
    auto store = *BTreeStore::Open(&fs_, options);
    Rng rng(29);
    testing::RunRandomOps(store.get(), &model, &rng, 800, 300, 200, 0.8);
    fs_.SimulateCrash();
    store.release();  // NOLINT
  }
  {
    auto store = *BTreeStore::Open(&fs_, options);
    testing::VerifyAll(store.get(), model);
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST_F(BTreeStoreTest, ScanReturnsSortedRange) {
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  testing::ReferenceModel model;
  Rng rng(31);
  testing::RunRandomOps(store.get(), &model, &rng, 2500, 700, 150, 0.75);
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(testing::CollectRange(store.get(), "", 100000, &got).ok());
  ASSERT_EQ(got.size(), model.size());
  auto expect = model.map().begin();
  for (const auto& [k, v] : got) {
    EXPECT_EQ(k, expect->first);
    EXPECT_EQ(v, expect->second);
    ++expect;
  }
  // Bounded scan from the middle.
  got.clear();
  ASSERT_TRUE(testing::CollectRange(store.get(), "k5", 7, &got).ok());
  EXPECT_LE(got.size(), 7u);
  for (const auto& [k, v] : got) EXPECT_GE(k, "k5");
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, CursorWalksLeavesAcrossSplitsAndEmptyPages) {
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  // Enough data to build a multi-level tree (2 KiB leaves).
  std::string value(100, 'v');
  for (int i = 0; i < 500; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(store->Put(key, value).ok());
  }
  // Empty out a whole key range mid-tree: the cursor must skip the
  // resulting empty leaves without surfacing anything.
  for (int i = 200; i < 300; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(store->Delete(key).ok());
  }
  // Both cursor views: the live tree through the leaf cache, and the
  // pinned checkpoint taken after the deletes, which must never link a
  // node into the live cache.
  auto snap = *store->GetSnapshot();
  for (const bool snapshot_view : {false, true}) {
    SCOPED_TRACE(snapshot_view ? "snapshot view" : "live view");
    kv::ReadOptions opts;
    if (snapshot_view) opts.snapshot = snap.get();
    auto it = store->NewIterator(opts);
    const uint64_t cache_before = store->CacheBytes();
    int seen = 0;
    std::string prev;
    for (it->Seek("k0100"); it->Valid(); it->Next()) {
      const std::string key(it->key());
      if (!prev.empty()) {
        ASSERT_LT(prev, key);
      }
      const int id = std::stoi(key.substr(1));
      ASSERT_TRUE(id < 200 || id >= 300) << key << " was deleted";
      prev = key;
      seen++;
    }
    ASSERT_TRUE(it->status().ok());
    EXPECT_EQ(seen, 300);  // [100,200) plus [300,500)
    EXPECT_EQ(prev, "k0499");
    if (snapshot_view) {
      EXPECT_EQ(store->CacheBytes(), cache_before);
    }
  }
  snap.reset();
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, BatchedWriteIsOneJournalRecord) {
  auto options = TinyOptions();
  options.journal_enabled = true;
  auto store = *BTreeStore::Open(&fs_, options);
  kv::WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(store->Write(batch).ok());
  std::string v;
  EXPECT_TRUE(store->Get("a", &v).IsNotFound());
  ASSERT_TRUE(store->Get("b", &v).ok());
  const auto stats = store->GetStats();
  EXPECT_EQ(stats.user_batches, 1u);
  EXPECT_EQ(stats.user_puts, 2u);
  EXPECT_EQ(stats.user_deletes, 1u);
  ASSERT_TRUE(store->CheckStructure().ok());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, BatchedJournalRecordsReplayAfterCrash) {
  auto options = TinyOptions();
  options.journal_enabled = true;
  options.journal_sync_every_bytes = 1;  // sync every record
  options.checkpoint_every_bytes = 8 << 20;  // rely on the journal alone
  kv::WriteBatch batch;
  {
    auto store = *BTreeStore::Open(&fs_, options);
    for (int i = 0; i < 200; i++) {
      batch.Put("k" + std::to_string(i), "v" + std::to_string(i));
      if (batch.Count() == 16) {
        ASSERT_TRUE(store->Write(batch).ok());
        batch.Clear();
      }
    }
    if (!batch.empty()) {
      ASSERT_TRUE(store->Write(batch).ok());
    }
    fs_.SimulateCrash();
    store.release();  // NOLINT: intentional leak of a "crashed" instance
  }
  auto store = *BTreeStore::Open(&fs_, options);
  std::string v;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(store->Get("k" + std::to_string(i), &v).ok()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  ASSERT_TRUE(store->CheckStructure().ok());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, CheckpointCountsAdvance) {
  auto options = TinyOptions();
  options.checkpoint_every_bytes = 8 << 10;
  auto store = *BTreeStore::Open(&fs_, options);
  const std::string value(500, 'v');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), value).ok());
  }
  EXPECT_GT(store->checkpoint_count(), 5u);
  const auto stats = store->GetStats();
  EXPECT_GT(stats.checkpoint_bytes_written, 0u);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, FileFootprintStaysCompactUnderOverwrites) {
  // Copy-on-write with block reuse: overwriting the same keys forever must
  // not grow the file much beyond the dataset size (the space-amplification
  // story of paper Fig. 6).
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  const std::string value(400, 'v');
  const int kKeys = 500;
  Rng rng(37);
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  const uint64_t after_load = store->block_manager().file_bytes();
  for (int i = 0; i < 10 * kKeys; i++) {
    ASSERT_TRUE(
        store->Put("k" + std::to_string(rng.Uniform(kKeys)), value).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_LT(store->block_manager().file_bytes(), after_load * 2);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, AppendOnlyAblationGrowsFile) {
  auto options = TinyOptions();
  options.reuse_freed_blocks = false;
  auto store = *BTreeStore::Open(&fs_, options);
  const std::string value(400, 'v');
  Rng rng(41);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  const uint64_t after_load = store->block_manager().file_bytes();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(rng.Uniform(200)), value).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_GT(store->block_manager().file_bytes(), after_load);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(BTreeStoreTest, LargeValuesBeyondLeafMax) {
  auto store = *BTreeStore::Open(&fs_, TinyOptions());
  // A single value bigger than leaf_max_bytes: oversized one-item leaf.
  const std::string huge(5000, 'H');
  ASSERT_TRUE(store->Put("big", huge).ok());
  ASSERT_TRUE(store->Put("big2", huge).ok());
  std::string v;
  ASSERT_TRUE(store->Get("big", &v).ok());
  EXPECT_EQ(v, huge);
  ASSERT_TRUE(store->CheckStructure().ok());
  ASSERT_TRUE(store->Close().ok());
}

// Property sweep across workload shapes and cache pressure.
class BTreePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, uint64_t>> {};

TEST_P(BTreePropertyTest, ModelEquivalence) {
  const uint64_t cache_bytes = std::get<0>(GetParam());
  const int value_bytes = std::get<1>(GetParam());
  const uint64_t seed = std::get<2>(GetParam());
  block::MemoryBlockDevice dev(4096, 1 << 15);
  fs::SimpleFs fs(&dev, {});
  auto options = TinyOptions();
  options.cache_bytes = cache_bytes;
  auto store = *BTreeStore::Open(&fs, options);
  testing::ReferenceModel model;
  Rng rng(seed);
  testing::RunRandomOps(store.get(), &model, &rng, 4000, 900, value_bytes,
                        0.8);
  testing::VerifyAll(store.get(), model);
  ASSERT_TRUE(store->CheckStructure().ok());
  ASSERT_TRUE(store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreePropertyTest,
    ::testing::Combine(::testing::Values(4u << 10, 64u << 10),
                       ::testing::Values(30, 600),
                       ::testing::Values(51u, 52u)));

}  // namespace
}  // namespace ptsb::btree
