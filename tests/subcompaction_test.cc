// Partitioned subcompactions: the range splitter's cut invariants, the
// K=1 vs K>1 visible-state contract at the store level, atomic install
// across reopen, the drain speedup of K lanes over the SSD's channels,
// and concurrent writers while every picked compaction is split across
// background lanes (the TSan target of this suite).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "block/memory_device.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/kvstore.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "lsm/compaction.h"
#include "lsm/sst.h"
#include "test_support.h"
#include "util/random.h"

namespace ptsb {
namespace {

using lsm::EntryType;
using lsm::SplitCompactionRange;
using lsm::SstBuilder;
using lsm::SstReader;

class SplitCompactionRangeTest : public ::testing::Test {
 protected:
  // Builds one table of `n` sequential keys "k%06d" starting at `first`,
  // with small blocks so there are many cut anchors.
  std::unique_ptr<SstReader> BuildTable(const std::string& name, int first,
                                        int n, uint64_t block_bytes = 1024) {
    fs::File* file = *fs_.Create(name);
    SstBuilder builder(file, block_bytes, 10);
    for (int i = first; i < first + n; i++) {
      char key[16];
      snprintf(key, sizeof(key), "k%06d", i);
      EXPECT_TRUE(
          builder.Add(key, 1000 + i, EntryType::kPut, std::string(40, 'v'))
              .ok());
    }
    EXPECT_TRUE(builder.Finish().ok());
    auto reader = SstReader::Open(file);
    EXPECT_TRUE(reader.ok());
    return *std::move(reader);
  }

  block::MemoryBlockDevice dev_{4096, 1 << 14};
  fs::SimpleFs fs_{&dev_, {}};
};

TEST_F(SplitCompactionRangeTest, KOneAndTinyInputsDontSplit) {
  auto big = BuildTable("big.sst", 0, 400);
  EXPECT_TRUE(SplitCompactionRange({big.get()}, 1).empty());
  EXPECT_TRUE(SplitCompactionRange({big.get()}, 0).empty());
  // A single-block table has one anchor: nothing to cut.
  auto tiny = BuildTable("tiny.sst", 0, 4, 64 << 10);
  EXPECT_EQ(tiny->NumBlocks(), 1u);
  EXPECT_TRUE(SplitCompactionRange({tiny.get()}, 4).empty());
  EXPECT_TRUE(SplitCompactionRange({}, 4).empty());
}

TEST_F(SplitCompactionRangeTest, CutsAreOrderedBalancedBlockLastKeys) {
  // Two interleaved tables, as a real (inputs0, inputs1) pick would see.
  auto a = BuildTable("a.sst", 0, 400);
  auto b = BuildTable("b.sst", 200, 400);
  const std::vector<SstReader*> readers = {a.get(), b.get()};

  std::set<std::string> anchor_keys;
  uint64_t total = 0;
  for (const SstReader* r : readers) {
    for (size_t i = 0; i < r->NumBlocks(); i++) {
      anchor_keys.insert(r->BlockLastKey(i));
      total += r->BlockBytes(i);
    }
  }
  ASSERT_GT(anchor_keys.size(), 8u) << "need many anchors to cut";

  const std::vector<std::string> bounds = SplitCompactionRange(readers, 4);
  ASSERT_EQ(bounds.size(), 3u);
  for (size_t i = 0; i < bounds.size(); i++) {
    // Every boundary is some block's last key (all versions of one user
    // key stay in one subrange) and strictly below the top key (no
    // empty tail subrange).
    EXPECT_TRUE(anchor_keys.count(bounds[i])) << bounds[i];
    EXPECT_LT(bounds[i], *anchor_keys.rbegin());
    if (i > 0) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }

  // Byte balance: each subrange's anchor weight lands within 2x of the
  // ideal quarter (block granularity makes exact quarters impossible).
  std::vector<uint64_t> weight(4, 0);
  for (const SstReader* r : readers) {
    for (size_t i = 0; i < r->NumBlocks(); i++) {
      const std::string& key = r->BlockLastKey(i);
      size_t slot = 0;
      while (slot < bounds.size() && key > bounds[slot]) slot++;
      weight[slot] += r->BlockBytes(i);
    }
  }
  for (size_t s = 0; s < weight.size(); s++) {
    EXPECT_GT(weight[s], total / 8) << "subrange " << s << " too small";
    EXPECT_LT(weight[s], total / 2) << "subrange " << s << " too large";
  }
}

TEST_F(SplitCompactionRangeTest, RequestingMoreCutsThanAnchorsDegrades) {
  auto a = BuildTable("a.sst", 0, 40);  // a handful of blocks
  const std::vector<std::string> bounds =
      SplitCompactionRange({a.get()}, 64);
  // Never more interior bounds than k-1, never duplicates, never the top.
  EXPECT_LT(bounds.size(), 64u);
  for (size_t i = 1; i < bounds.size(); i++) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  for (const std::string& bound : bounds) {
    EXPECT_LT(bound, a->BlockLastKey(a->NumBlocks() - 1));
  }
}

// ---- Store-level contract ---------------------------------------------

std::map<std::string, std::string> TinyLsmParams(int parallelism) {
  return {{"memtable_bytes", std::to_string(8 << 10)},
          {"l1_target_bytes", std::to_string(32 << 10)},
          {"sst_target_bytes", std::to_string(16 << 10)},
          {"block_bytes", "1024"},
          {"compaction_parallelism", std::to_string(parallelism)}};
}

struct StoreHarness {
  block::MemoryBlockDevice dev{4096, 1 << 15};
  fs::SimpleFs fs{&dev, {}};
  std::unique_ptr<kv::KVStore> store;
};

std::unique_ptr<StoreHarness> OpenLsm(int parallelism) {
  auto h = std::make_unique<StoreHarness>();
  kv::EngineOptions options;
  options.engine = "lsm";
  options.fs = &h->fs;
  options.params = TinyLsmParams(parallelism);
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  h->store = *std::move(opened);
  return h;
}

TEST(SubcompactionStoreTest, ParallelContentsMatchSequential) {
  auto k1 = OpenLsm(1);
  auto k4 = OpenLsm(4);
  testing::ReferenceModel model1, model4;
  Rng rng1(0x5b11), rng4(0x5b11);
  testing::RunRandomOps(k1->store.get(), &model1, &rng1, 4000, 500, 120);
  testing::RunRandomOps(k4->store.get(), &model4, &rng4, 4000, 500, 120);
  ASSERT_TRUE(k1->store->SettleBackgroundWork().ok());
  ASSERT_TRUE(k4->store->SettleBackgroundWork().ok());

  // Same ops, same model; every key agrees and the full scans are
  // byte-identical.
  auto i1 = k1->store->NewIterator();
  auto i4 = k4->store->NewIterator();
  i1->SeekToFirst();
  i4->SeekToFirst();
  size_t n = 0;
  while (i1->Valid()) {
    ASSERT_TRUE(i4->Valid()) << "K=4 lost keys after " << n;
    EXPECT_EQ(i1->key(), i4->key());
    EXPECT_EQ(i1->value(), i4->value()) << i1->key();
    i1->Next();
    i4->Next();
    n++;
  }
  EXPECT_FALSE(i4->Valid()) << "K=4 has phantom keys";
  ASSERT_TRUE(i1->status().ok());
  ASSERT_TRUE(i4->status().ok());
  EXPECT_EQ(n, model1.size());
  testing::VerifyAll(k4->store.get(), model4);
  ASSERT_TRUE(k1->store->Close().ok());
  ASSERT_TRUE(k4->store->Close().ok());
}

TEST(SubcompactionStoreTest, AtomicInstallSurvivesReopen) {
  auto h = OpenLsm(4);
  testing::ReferenceModel model;
  Rng rng(0xa70b1c);
  testing::RunRandomOps(h->store.get(), &model, &rng, 4000, 400, 150);
  // Drain every pending compaction (all partitioned) and reopen: the
  // recovered manifest must describe exactly the installed outputs.
  ASSERT_TRUE(h->store->SettleBackgroundWork().ok());
  ASSERT_TRUE(h->store->Close().ok());
  kv::EngineOptions options;
  options.engine = "lsm";
  options.fs = &h->fs;
  options.params = TinyLsmParams(4);
  auto reopened = kv::OpenStore(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  h->store = *std::move(reopened);
  testing::VerifyAll(h->store.get(), model);
  size_t n = 0;
  auto it = h->store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(n, model.size()) << "reopen resurrected or lost keys";
  it.reset();
  ASSERT_TRUE(h->store->Close().ok());
}

// ---- K x channels ------------------------------------------------------
//
// One fixed LSM op stream on the timed stack under six (K, channels,
// pacing) settings. Lane i of K lands on channel
// (kv::kBackgroundQueue + i) % channels, so the K subranges of a
// compaction overlap in virtual time only when there are channels for
// them: the win is K x channels, not K.
//   deferred  compaction_work_per_user_write=0: commits leave all the
//             compaction debt behind and SettleBackgroundWork drains it
//             at once, so the settle time is the compaction wall time.
//   paced     compaction runs during the commit loop.

struct ChannelSetting {
  const char* label;
  int parallelism;
  int channels;
  uint64_t pacing;  // compaction_work_per_user_write (0 = deferred)
};

struct ChannelCell {
  int64_t foreground_ns = 0;  // clock at the end of the commit loop
  int64_t settled_ns = 0;     // after SettleBackgroundWork + Flush
  int64_t scheduled_ns = 0;   // backend work, all channels
  uint32_t checksum = 0;
  int64_t settle_ns() const { return settled_ns - foreground_ns; }
};

ChannelCell RunChannelCell(const ChannelSetting& s) {
  testing::TimedStack stack(s.channels, 512ull << 20);
  // Deferred cells keep input files several readahead spans long, so a
  // subrange covers several span reads per input: that is what channel
  // overlap compresses (each subjob pays one fixed seek read per input).
  // Paced cells use tiny sizes: continuous small compactions. The stall
  // trigger is parked high so no commit waits for the background.
  const bool paced = s.pacing != 0;
  auto store = stack.Open(
      "lsm",
      {{"memtable_bytes", std::to_string(paced ? 32 << 10 : 256 << 10)},
       {"l1_target_bytes", std::to_string(paced ? 256 << 10 : 1 << 20)},
       {"sst_target_bytes", std::to_string(paced ? 128 << 10 : 512 << 10)},
       {"compaction_readahead_bytes",
        std::to_string(paced ? 32 << 10 : 64 << 10)},
       {"l0_stall_trigger", "1000"},
       {"compaction_work_per_user_write", std::to_string(s.pacing)},
       {"wal_sync_every_bytes", "1"},
       {"background_io", "1"},
       {"compaction_parallelism", std::to_string(s.parallelism)}});
  constexpr uint64_t kPuts = 2000;
  kv::WriteBatch batch;
  uint64_t next = 0xc0ffee;
  for (uint64_t i = 0; i < kPuts; i++) {
    next = next * 6364136223846793005ull + 1442695040888963407ull;
    batch.Clear();
    batch.Put(kv::MakeKey((next >> 11) % kPuts), kv::MakeValue(i, 1024));
    EXPECT_TRUE(store->Write(batch).ok());
  }
  ChannelCell r;
  r.foreground_ns = stack.clock.NowNanos();
  EXPECT_TRUE(store->SettleBackgroundWork().ok());
  EXPECT_TRUE(store->Flush().ok());
  EXPECT_TRUE(store->SettleBackgroundWork().ok());
  r.settled_ns = stack.clock.NowNanos();
  r.checksum = testing::ContentsChecksum(store.get());
  EXPECT_TRUE(store->Close().ok());
  r.scheduled_ns = stack.ScheduledNanos();
  return r;
}

TEST(SubcompactionChannelTest, DrainSpeedsUpWithLanesTimesChannels) {
  const ChannelSetting settings[] = {
      {"K=1 ch=1 deferred", 1, 1, 0}, {"K=1 ch=4 deferred", 1, 4, 0},
      {"K=2 ch=4 deferred", 2, 4, 0}, {"K=4 ch=4 deferred", 4, 4, 0},
      {"K=4 ch=1 deferred", 4, 1, 0}, {"K=4 ch=4 paced", 4, 4, 1024},
  };
  std::vector<ChannelCell> cells;
  for (const ChannelSetting& s : settings) cells.push_back(RunChannelCell(s));

  // Splitting a compaction changes when bytes are written, never what.
  for (size_t i = 1; i < cells.size(); i++) {
    EXPECT_EQ(cells[i].checksum, cells[0].checksum) << settings[i].label;
  }
  // For a fixed (K, pacing) the device command stream is fixed, so its
  // backend work is conserved exactly: channels move work in time, never
  // create or destroy it. (Across K it differs: subrange seams re-read a
  // span and more output files mean more framing.)
  EXPECT_EQ(cells[1].scheduled_ns, cells[0].scheduled_ns);
  EXPECT_EQ(cells[4].scheduled_ns, cells[3].scheduled_ns);
  // Settle time strictly falls as K grows on four channels, and K=4
  // drains at least 1.5x faster than K=1 there.
  EXPECT_LT(cells[2].settle_ns(), cells[1].settle_ns());
  EXPECT_LT(cells[3].settle_ns(), cells[2].settle_ns());
  EXPECT_GE(static_cast<double>(cells[1].settle_ns()),
            1.5 * static_cast<double>(cells[3].settle_ns()));
  // K lanes on one channel buy nothing: the win is channel overlap, not
  // an accounting artifact of splitting.
  EXPECT_GT(cells[4].settle_ns(), cells[3].settle_ns());
  // One lane is deterministic: a repeat is identical to the nanosecond.
  const ChannelCell again = RunChannelCell(settings[1]);
  EXPECT_EQ(again.foreground_ns, cells[1].foreground_ns);
  EXPECT_EQ(again.settled_ns, cells[1].settled_ns);
  EXPECT_EQ(again.scheduled_ns, cells[1].scheduled_ns);
  EXPECT_EQ(again.checksum, cells[1].checksum);
}

// Concurrent writers while every compaction is partitioned: the commit
// path (write groups) and the subcompaction path (shared readers, one
// atomic install) interleave freely. Run under TSan via the stress
// label.
TEST(SubcompactionStressTest, ConcurrentWritersUnderParallelCompaction) {
  constexpr size_t kWriters = 4;
  constexpr uint64_t kKeysPerWriter = 400;
  auto h = OpenLsm(4);
  kv::KVStore* store = h->store.get();

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      Rng rng(0x7ead + w);
      for (uint64_t i = 0; i < kKeysPerWriter; i++) {
        // Disjoint key slices per writer; re-put a quarter of them so
        // compactions see shadowed versions to drop.
        const uint64_t id = w * kKeysPerWriter + rng.Uniform(kKeysPerWriter);
        std::string value(100, '\0');
        rng.FillBytes(value.data(), value.size());
        if (!store->Put(kv::MakeKey(id), value).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  // One scanner racing the writers and their subcompactions. Bare
  // iterators are invalidated by any write, so each scan pins a
  // snapshot (the supported way to read while writers run).
  threads.emplace_back([&] {
    for (int scan = 0; scan < 20 && !failed.load(); scan++) {
      auto got = store->GetSnapshot();
      if (!got.ok()) {
        failed.store(true);
        return;
      }
      std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
      kv::ReadOptions opts;
      opts.snapshot = snap.get();
      auto it = store->NewIterator(opts);
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        if (!prev.empty() && std::string(it->key()) <= prev) {
          failed.store(true);
          return;
        }
        prev = std::string(it->key());
      }
      if (!it->status().ok()) {
        failed.store(true);
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(store->SettleBackgroundWork().ok());
  // Every writer's slice is fully present (values raced, presence no).
  auto it = store->NewIterator();
  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  ASSERT_TRUE(it->status().ok());
  EXPECT_GT(n, 0u);
  EXPECT_GT(store->GetStats().compaction_bytes_written, 0u)
      << "workload too small to compact: the race tested nothing";
  it.reset();
  ASSERT_TRUE(h->store->Close().ok());
}

}  // namespace
}  // namespace ptsb
