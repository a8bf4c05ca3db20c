// End-to-end tests of AlogStore: correctness against a reference model
// through segment rolls and GC, ordered iteration, recovery (clean reopen
// and crash replay), batch semantics (empty batch, duplicate keys), GC
// space bounds, and tombstone handling across collections.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "alog/alog_store.h"
#include "block/memory_device.h"
#include "fs/filesystem.h"
#include "kv/write_batch.h"
#include "test_support.h"
#include "util/random.h"

namespace ptsb::alog {
namespace {

AlogOptions TinyOptions() {
  // Tiny segments so rolls and collections happen within a few hundred
  // operations.
  AlogOptions o;
  o.segment_bytes = 16 << 10;
  o.gc_trigger = 0.5;
  return o;
}

class AlogStoreTest : public ::testing::Test {
 protected:
  AlogStoreTest() : dev_(4096, 1 << 15), fs_(&dev_, FsOpts()) {}

  static fs::FsOptions FsOpts() {
    fs::FsOptions o;
    o.append_alloc_pages = 8;
    return o;
  }

  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(AlogStoreTest, PutGetRoundTrip) {
  auto store = AlogStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("hello", "world").ok());
  std::string v;
  ASSERT_TRUE((*store)->Get("hello", &v).ok());
  EXPECT_EQ(v, "world");
  EXPECT_TRUE((*store)->Get("missing", &v).IsNotFound());
  ASSERT_TRUE((*store)->Put("empty", "").ok());
  ASSERT_TRUE((*store)->Get("empty", &v).ok());
  EXPECT_EQ(v, "");
  ASSERT_TRUE((*store)->Close().ok());
}

TEST_F(AlogStoreTest, OverwriteReturnsNewestAndDeleteHides) {
  auto store = *AlogStore::Open(&fs_, TinyOptions());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(store->Put("k", "v" + std::to_string(i)).ok());
  }
  std::string v;
  ASSERT_TRUE(store->Get("k", &v).ok());
  EXPECT_EQ(v, "v9");
  ASSERT_TRUE(store->Delete("k").ok());
  EXPECT_TRUE(store->Get("k", &v).IsNotFound());
  // Deleting an absent key is a clean no-op.
  ASSERT_TRUE(store->Delete("never-existed").ok());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(AlogStoreTest, IteratorWalksLiveKeysInOrder) {
  auto store = *AlogStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store->Put("b", "2").ok());
  ASSERT_TRUE(store->Put("d", "4").ok());
  ASSERT_TRUE(store->Put("a", "1").ok());
  ASSERT_TRUE(store->Put("c", "3").ok());
  ASSERT_TRUE(store->Delete("c").ok());

  auto it = store->NewIterator();
  std::vector<std::string> keys;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    keys.push_back(std::string(it->key()));
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "d"}));

  it = store->NewIterator();
  it->Seek("b");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "b");
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "d");  // "c" is deleted: skipped
  EXPECT_EQ(it->value(), "4");
  it->Next();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(AlogStoreTest, RandomOpsMatchModelThroughRollsAndGc) {
  auto options = TinyOptions();
  options.gc_trigger = 0.3;  // collect aggressively
  auto store = *AlogStore::Open(&fs_, options);
  testing::ReferenceModel model;
  Rng rng(17);
  testing::RunRandomOps(store.get(), &model, &rng, 5000, 300, 200, 0.7);
  testing::VerifyAll(store.get(), model);

  // Full ordered sweep matches the model exactly (no phantom keys).
  auto it = store->NewIterator();
  auto im = model.map().begin();
  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++im, ++n) {
    ASSERT_NE(im, model.map().end());
    EXPECT_EQ(it->key(), im->first);
    EXPECT_EQ(it->value(), im->second);
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(n, model.size());

  // The workload deleted and overwrote enough to have collected something.
  const auto stats = store->GetStats();
  EXPECT_GT(stats.gc_bytes_written, 0u);
  EXPECT_GT(stats.gc_bytes_read, 0u);
  ASSERT_TRUE(store->Close().ok());

  // Clean reopen recovers the identical state.
  auto reopened = *AlogStore::Open(&fs_, options);
  testing::VerifyAll(reopened.get(), model);
  EXPECT_EQ(reopened->LiveKeys(), model.size());
  ASSERT_TRUE(reopened->Close().ok());
}

TEST_F(AlogStoreTest, GcBoundsDiskUsageUnderSustainedUpdates) {
  auto store = *AlogStore::Open(&fs_, TinyOptions());
  const std::string value(200, 'v');
  Rng rng(5);
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        store->Put("k" + std::to_string(rng.Uniform(50)), value).ok());
  }
  // ~630 KB appended over the run against ~11 KB live; without GC the log
  // would keep all of it. With gc_trigger=0.5 the sealed payload stays
  // near 2x live, plus one active segment and allocation slack.
  EXPECT_LT(store->DiskBytesUsed(), 100u << 10) << store->DebugString();
  const auto stats = store->GetStats();
  EXPECT_GT(stats.gc_bytes_written, 0u);
  EXPECT_GE(stats.wal_bytes_written, stats.user_bytes_written);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(AlogStoreTest, CrashRecoveryKeepsDurablePrefix) {
  auto options = TinyOptions();
  options.sync_every_bytes = 1;  // sync on every record
  testing::ReferenceModel model;
  {
    auto store = *AlogStore::Open(&fs_, options);
    Rng rng(13);
    testing::RunRandomOps(store.get(), &model, &rng, 1500, 400, 200, 0.85);
    // No Close: simulate power failure.
    fs_.SimulateCrash();
    store.release();  // NOLINT: intentional leak of a "crashed" instance
  }
  {
    auto store = AlogStore::Open(&fs_, options);
    ASSERT_TRUE(store.ok());
    testing::VerifyAll(store->get(), model);
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST_F(AlogStoreTest, UnsyncedTailIsLostButStoreStaysConsistent) {
  auto options = TinyOptions();
  testing::ReferenceModel model;
  {
    auto store = *AlogStore::Open(&fs_, options);
    ASSERT_TRUE(store->Put("a", "1").ok());
    ASSERT_TRUE(store->Flush().ok());  // durable prefix
    ASSERT_TRUE(store->Put("b", "2").ok());  // buffered tail only
    fs_.SimulateCrash();
    store.release();  // NOLINT
  }
  {
    auto store = *AlogStore::Open(&fs_, options);
    std::string v;
    EXPECT_TRUE(store->Get("a", &v).ok());
    EXPECT_TRUE(store->Get("b", &v).IsNotFound());
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST_F(AlogStoreTest, BatchedRecordsReplayAtomicallyAfterCrash) {
  auto options = TinyOptions();
  options.sync_every_bytes = 1;
  kv::WriteBatch batch;
  {
    auto store = *AlogStore::Open(&fs_, options);
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
    fs_.SimulateCrash();
    store.release();  // NOLINT: intentional leak of a "crashed" instance
  }
  auto store = *AlogStore::Open(&fs_, options);
  std::string v;
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(store->Get("k" + std::to_string(i), &v).ok()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(AlogStoreTest, EmptyBatchIsANoOp) {
  auto store = *AlogStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store->Put("a", "1").ok());
  const auto before = store->GetStats();
  const uint64_t disk_before = store->DiskBytesUsed();
  kv::WriteBatch empty;
  ASSERT_TRUE(store->Write(empty).ok());
  const auto after = store->GetStats();
  EXPECT_EQ(after.user_batches, before.user_batches);
  EXPECT_EQ(after.user_puts, before.user_puts);
  EXPECT_EQ(after.wal_bytes_written, before.wal_bytes_written);
  EXPECT_EQ(store->DiskBytesUsed(), disk_before);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(AlogStoreTest, DuplicateKeysInOneBatchAreLastEntryWins) {
  auto options = TinyOptions();
  options.sync_every_bytes = 1;
  {
    auto store = *AlogStore::Open(&fs_, options);
    kv::WriteBatch batch;
    batch.Put("a", "first");
    batch.Put("a", "second");
    batch.Put("b", "kept");
    batch.Delete("b");
    batch.Delete("c");
    batch.Put("c", "resurrected");
    ASSERT_TRUE(store->Write(batch).ok());
    std::string v;
    ASSERT_TRUE(store->Get("a", &v).ok());
    EXPECT_EQ(v, "second");
    EXPECT_TRUE(store->Get("b", &v).IsNotFound());
    ASSERT_TRUE(store->Get("c", &v).ok());
    EXPECT_EQ(v, "resurrected");
    fs_.SimulateCrash();
    store.release();  // NOLINT: intentional leak of a "crashed" instance
  }
  // Crash replay of the batch record preserves last-entry-wins.
  auto store = *AlogStore::Open(&fs_, options);
  std::string v;
  ASSERT_TRUE(store->Get("a", &v).ok());
  EXPECT_EQ(v, "second");
  EXPECT_TRUE(store->Get("b", &v).IsNotFound());
  ASSERT_TRUE(store->Get("c", &v).ok());
  EXPECT_EQ(v, "resurrected");
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(AlogStoreTest, GcNeverLosesDurableKeysOnCrash) {
  // GC moves live entries out of the victim segment and then deletes the
  // victim's file. The rewritten data must be synced before the delete:
  // otherwise a crash leaves the GC record in the lost unsynced tail
  // while the durable originals are already gone with the file.
  auto options = TinyOptions();
  options.segment_bytes = 4 << 10;
  options.gc_trigger = 0.4;
  const std::string value(150, 'c');
  // Sweep the crash point across the update phase: the vulnerable window
  // (victim deleted, rewritten record still in the unsynced tail) only
  // spans part of a page, so a single crash point could miss it.
  bool collected = false;
  for (int stop = 10; stop <= 120; stop += 5) {
    const std::string dir = "alog-gcrash" + std::to_string(stop);
    testing::ReferenceModel model;
    {
      auto store = *AlogStore::Open(&fs_, options, dir);
      // Interleave cold keys with hot ones so the early segments hold
      // both; once the hot entries are shadowed those segments are partly
      // dead and GC must rewrite their live cold keys.
      for (int i = 0; i < 20; i++) {
        ASSERT_TRUE(store->Put("cold" + std::to_string(i), value).ok());
        ASSERT_TRUE(store->Put("hot" + std::to_string(i % 5), value).ok());
        model.Put("cold" + std::to_string(i), value);
      }
      ASSERT_TRUE(store->Flush().ok());  // cold keys are durable now
      for (int i = 0; i < stop; i++) {
        ASSERT_TRUE(store->Put("hot" + std::to_string(i % 5), value).ok());
      }
      collected |= store->GetStats().gc_bytes_read > 0;
      fs_.SimulateCrash();
      store.release();  // NOLINT: intentional leak of a "crashed" instance
    }
    auto store = *AlogStore::Open(&fs_, options, dir);
    testing::VerifyAll(store.get(), model);
    ASSERT_TRUE(store->Close().ok());
  }
  // The sweep is only meaningful if live rewrites actually happened.
  EXPECT_TRUE(collected) << "sweep never triggered a live rewrite";
}

TEST_F(AlogStoreTest, DeletedKeysStayDeadThroughGcAndReopen) {
  // A tombstone must keep shadowing an older put even after the segment
  // holding the tombstone is collected (GC rewrites it forward) — the
  // classic log-engine resurrection bug.
  auto options = TinyOptions();
  options.segment_bytes = 4 << 10;
  options.gc_trigger = 0.3;
  auto store = *AlogStore::Open(&fs_, options);
  const std::string value(400, 'v');
  // The victims land in the oldest segments.
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(store->Put("victim" + std::to_string(i), value).ok());
  }
  // Fill several more segments, then delete the victims (tombstones land
  // in much newer segments than the puts).
  Rng rng(29);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        store->Put("fill" + std::to_string(rng.Uniform(40)), value).ok());
  }
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(store->Delete("victim" + std::to_string(i)).ok());
  }
  // Sustained updates force many collections, including of the tombstone
  // segments.
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        store->Put("fill" + std::to_string(rng.Uniform(40)), value).ok());
  }
  ASSERT_TRUE(store->SettleBackgroundWork().ok());
  std::string v;
  for (int i = 0; i < 20; i++) {
    EXPECT_TRUE(store->Get("victim" + std::to_string(i), &v).IsNotFound())
        << "victim" << i << " resurrected before reopen\n"
        << store->DebugString();
  }
  ASSERT_TRUE(store->Close().ok());

  auto reopened = *AlogStore::Open(&fs_, options);
  for (int i = 0; i < 20; i++) {
    EXPECT_TRUE(reopened->Get("victim" + std::to_string(i), &v).IsNotFound())
        << "victim" << i << " resurrected after reopen";
  }
  EXPECT_EQ(reopened->LiveKeys(), 40u);
  ASSERT_TRUE(reopened->Close().ok());
}

TEST_F(AlogStoreTest, SegmentCountStaysBoundedAcrossReopens) {
  // Open/close cycles must not leak empty or fully-dead segment files.
  auto options = TinyOptions();
  testing::ReferenceModel model;
  {
    auto store = *AlogStore::Open(&fs_, options);
    Rng rng(31);
    testing::RunRandomOps(store.get(), &model, &rng, 800, 100, 200, 0.8);
    ASSERT_TRUE(store->Close().ok());
  }
  uint64_t prev_count = 0;
  for (int cycle = 0; cycle < 5; cycle++) {
    auto store = *AlogStore::Open(&fs_, options);
    testing::VerifyAll(store.get(), model);
    const uint64_t count = store->SegmentCount();
    if (cycle > 0) {
      EXPECT_EQ(count, prev_count) << "reopen grew the segment set";
    }
    prev_count = count;
    ASSERT_TRUE(store->Close().ok());
  }
}

// Fails every device write while armed (a dying drive).
class FailAllWrites : public fs::FaultPolicy {
 public:
  Status BeforeDeviceWrite(const std::string&) override {
    return Status::IoError("injected device-write fault");
  }
};

// A GC-collected segment a snapshot still pins lingers as a zombie. If
// its deletion fails when the last pin drops, the file stays on disk
// until the next open, but no snapshot pins it any more: the pinned-bytes
// gauge returns to zero, and the store closes and is destroyed normally
// (Debug builds check the gauge on destruction).
TEST_F(AlogStoreTest, FailedZombieDeleteStillReleasesThePin) {
  auto options = TinyOptions();
  options.gc_trigger = 0.3;
  auto store = *AlogStore::Open(&fs_, options);
  const std::string value(200, 'v');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i % 40), value).ok());
  }
  auto snap = *store->GetSnapshot();
  for (int i = 0; i < 2000 && store->GetStats().snapshot_pinned_bytes == 0;
       i++) {
    ASSERT_TRUE(
        store->Put("k" + std::to_string(i % 40), value + std::to_string(i))
            .ok());
  }
  ASSERT_GT(store->GetStats().snapshot_pinned_bytes, 0u)
      << "GC never collected a snapshot-pinned segment";

  FailAllWrites dying;
  fs_.SetFaultPolicy(&dying);
  snap.reset();  // the zombie's deletion fails
  fs_.SetFaultPolicy(nullptr);
  EXPECT_EQ(store->GetStats().snapshots_open, 0u);
  EXPECT_EQ(store->GetStats().snapshot_pinned_bytes, 0u);

  std::map<std::string, std::string> expected;
  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    expected[std::string(it->key())] = std::string(it->value());
  }
  ASSERT_TRUE(it->status().ok());
  it.reset();
  ASSERT_TRUE(store->Close().ok());
  store.reset();

  auto reopened = *AlogStore::Open(&fs_, options);
  for (const auto& [key, want] : expected) {
    std::string got;
    ASSERT_TRUE(reopened->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, want) << key;
  }
  EXPECT_EQ(reopened->LiveKeys(), expected.size());
  ASSERT_TRUE(reopened->Close().ok());
}

TEST(AlogSpacePressureTest, GcRunsBeforeTheDeviceFillsEvenWithLazyTrigger) {
  // A lazy dead-ratio trigger on a nearly-full device: dead bytes must be
  // collected under space pressure long before the ratio is reached, or
  // the store runs out of space while holding reclaimable segments.
  block::MemoryBlockDevice dev(4096, 256);  // 1 MiB
  fs::FsOptions fs_options;
  fs_options.append_alloc_pages = 8;  // chunked allocation fits the device
  fs_options.metadata_pages = 16;
  fs::SimpleFs fs(&dev, fs_options);
  AlogOptions options;
  options.segment_bytes = 16 << 10;
  options.gc_trigger = 0.95;  // effectively never by ratio
  auto store = *AlogStore::Open(&fs, options);
  const std::string value(900, 'v');
  Rng rng(3);
  // ~180 KB live, ~2.7 MB appended over the run: without pressure GC this
  // overflows the 1 MiB device long before the 0.95 dead ratio.
  for (int i = 0; i < 3000; i++) {
    const Status s = store->Put("k" + std::to_string(rng.Uniform(200)), value);
    ASSERT_TRUE(s.ok()) << "put " << i << ": " << s.ToString() << "\n"
                        << store->DebugString();
  }
  // ~170 segments were written over the run; pressure GC must have
  // reclaimed all but the ones that fit the device. (Fully-dead segments
  // are deleted without rewriting anything, so gc_bytes_written may stay
  // 0 here — the ratio-trigger test covers live rewrites.)
  EXPECT_LT(store->SegmentCount(), 64u) << store->DebugString();
  std::string v;
  ASSERT_TRUE(store->Get("k0", &v).ok());
  EXPECT_EQ(v, value);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(AlogStoreTest, RejectsInvalidOptions) {
  AlogOptions bad = TinyOptions();
  bad.gc_trigger = 0;
  EXPECT_FALSE(AlogStore::Open(&fs_, bad).ok());
  bad = TinyOptions();
  bad.gc_trigger = 1.5;
  EXPECT_FALSE(AlogStore::Open(&fs_, bad).ok());
  bad = TinyOptions();
  bad.segment_bytes = 0;
  EXPECT_FALSE(AlogStore::Open(&fs_, bad).ok());
}

}  // namespace
}  // namespace ptsb::alog
