// ShardedStore: router correctness (hash partition, batch splitting,
// merge iteration, per-shard recovery, stats aggregation) plus the
// multi-threaded stress battery this repo's first concurrent execution
// path is gated on. The stress test runs N writer threads with disjoint
// and overlapping key ranges, commits cross-shard batches concurrently,
// then checks the full iterator stream (and its checksum) against a
// single-threaded golden run of the same op streams. Built with
// -fsanitize=thread in the CI TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "block/memory_device.h"
#include "core/experiment.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "sharded/sharded_store.h"
#include "test_support.h"
#include "util/crc32.h"
#include "util/random.h"

namespace ptsb {
namespace {

// Structural params small enough that flush/compaction/checkpoint/GC all
// fire inside the stress run.
std::map<std::string, std::string> InnerParams(const std::string& inner) {
  if (inner == "lsm") {
    return {{"memtable_bytes", std::to_string(32 << 10)},
            {"l1_target_bytes", std::to_string(128 << 10)},
            {"sst_target_bytes", std::to_string(64 << 10)},
            {"block_bytes", "1024"}};
  }
  if (inner == "btree") {
    return {{"leaf_max_bytes", std::to_string(2 << 10)},
            {"internal_max_bytes", "512"},
            {"cache_bytes", std::to_string(32 << 10)},
            {"checkpoint_every_bytes", std::to_string(128 << 10)},
            {"file_grow_bytes", std::to_string(64 << 10)}};
  }
  if (inner == "alog") {
    return {{"segment_bytes", std::to_string(32 << 10)},
            {"gc_trigger", "0.4"}};
  }
  return {};
}

struct Harness {
  block::MemoryBlockDevice dev{4096, 1 << 15};
  fs::SimpleFs fs{&dev, {}};
  std::unique_ptr<kv::KVStore> store;
};

std::unique_ptr<Harness> OpenSharded(const std::string& inner, int shards,
                                     const std::string& root = "") {
  auto h = std::make_unique<Harness>();
  kv::EngineOptions options;
  options.engine = "sharded";
  options.fs = &h->fs;
  options.root = root;
  options.params = InnerParams(inner);
  options.params["shards"] = std::to_string(shards);
  options.params["inner_engine"] = inner;
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << inner << ": " << opened.status().ToString();
  h->store = *std::move(opened);
  return h;
}

TEST(ShardedStoreTest, RejectsBadConfigurations) {
  kv::RegisterBuiltinEngines();
  Harness h;
  kv::EngineOptions options;
  options.engine = "sharded";
  options.fs = &h.fs;

  options.params = {{"inner_engine", "sharded"}};
  auto nested = kv::OpenStore(options);
  ASSERT_FALSE(nested.ok());
  EXPECT_TRUE(nested.status().IsInvalidArgument());

  options.params = {{"inner_engine", "no-such-engine"}};
  EXPECT_FALSE(kv::OpenStore(options).ok());

  options.params = {{"shards", "0"}};
  EXPECT_FALSE(kv::OpenStore(options).ok());
}

TEST(ShardedStoreTest, RejectsLayoutMismatchOnReopen) {
  // Shard count and inner engine are part of the on-disk layout (the
  // hash is mod-shards): reopening existing data with different values
  // would silently strand keys, so Open must refuse.
  Harness h;
  {
    kv::EngineOptions options;
    options.engine = "sharded";
    options.fs = &h.fs;
    options.params = {{"shards", "4"}, {"inner_engine", "alog"}};
    auto store = *kv::OpenStore(options);
    ASSERT_TRUE(store->Put("k", "v").ok());
    ASSERT_TRUE(store->Close().ok());
  }
  kv::EngineOptions options;
  options.engine = "sharded";
  options.fs = &h.fs;

  options.params = {{"shards", "2"}, {"inner_engine", "alog"}};
  auto fewer = kv::OpenStore(options);
  ASSERT_FALSE(fewer.ok());
  EXPECT_TRUE(fewer.status().IsInvalidArgument());

  options.params = {{"shards", "4"}, {"inner_engine", "lsm"}};
  auto other_engine = kv::OpenStore(options);
  ASSERT_FALSE(other_engine.ok());
  EXPECT_TRUE(other_engine.status().IsInvalidArgument());

  // Matching layout still reopens fine.
  options.params = {{"shards", "4"}, {"inner_engine", "alog"}};
  auto same = kv::OpenStore(options);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  std::string value;
  ASSERT_TRUE((*same)->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE((*same)->Close().ok());
}

TEST(ShardedStoreTest, EveryBuiltinEngineSupportsConcurrentWriters) {
  // The capability the multi-threaded driver keys off. Every built-in
  // engine now routes Write through a cross-thread kv::WriteGroup (and
  // the router serializes per shard), so they all advertise it; the
  // driver's refusal path only guards out-of-tree engines that keep the
  // base-class default (false).
  kv::RegisterBuiltinEngines();
  for (const std::string inner : {"lsm", "btree", "alog"}) {
    Harness h;
    kv::EngineOptions options;
    options.engine = inner;
    options.fs = &h.fs;
    auto store = *kv::OpenStore(options);
    EXPECT_TRUE(store->SupportsConcurrentWriters()) << inner;
    ASSERT_TRUE(store->Close().ok());
  }
  auto h = OpenSharded("alog", 2);
  EXPECT_TRUE(h->store->SupportsConcurrentWriters());
  ASSERT_TRUE(h->store->Close().ok());
}

TEST(ShardedStoreTest, DriverRunsThreadsOnUnshardedEngine) {
  // num_threads > 1 on a bare (unsharded) engine is now a supported
  // configuration: the workers' batches meet in the engine's write
  // group instead of corrupting it. A short run must complete cleanly
  // and perform work.
  core::ExperimentConfig config;
  config.engine = "lsm";
  config.num_threads = 4;
  config.scale = 8000;
  config.duration_minutes = 1;
  auto result = core::RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->update_ops, 0u);
  // The group-commit accounting must be consistent: every user batch
  // landed in some group, and no more records than groups were written.
  EXPECT_GT(result->engine_stats.write_groups, 0u);
  EXPECT_GE(result->engine_stats.write_group_batches,
            result->engine_stats.write_groups);
}

TEST(ShardedStoreTest, RoutesEveryKeyToExactlyOneShardStably) {
  auto h = OpenSharded("alog", 5);
  auto* sharded = static_cast<sharded::ShardedStore*>(h->store.get());
  ASSERT_EQ(sharded->num_shards(), 5);
  // Routing is a pure function of the key: the same key always lands on
  // the same shard (otherwise reopen would lose data), and over many keys
  // every shard gets some.
  std::vector<int> hits(5, 0);
  for (uint64_t i = 0; i < 5000; i++) {
    const std::string key = kv::MakeKey(i);
    const int shard = sharded->ShardOf(key);
    ASSERT_EQ(shard, sharded->ShardOf(key));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 5);
    hits[static_cast<size_t>(shard)]++;
  }
  for (int shard_hits : hits) EXPECT_GT(shard_hits, 0);
  ASSERT_TRUE(h->store->Close().ok());
}

TEST(ShardedStoreTest, CrossShardBatchesAndStatsAggregation) {
  auto h = OpenSharded("lsm", 4);
  auto* sharded = static_cast<sharded::ShardedStore*>(h->store.get());

  // One batch spanning all shards, including a same-key duplicate that
  // must stay last-entry-wins after the split.
  kv::WriteBatch batch;
  for (uint64_t i = 0; i < 64; i++) {
    batch.Put(kv::MakeKey(i), kv::MakeValue(i, 64));
  }
  batch.Put(kv::MakeKey(7), kv::MakeValue(777, 64));
  batch.Delete(kv::MakeKey(13));
  ASSERT_TRUE(h->store->Write(batch).ok());

  std::string value;
  ASSERT_TRUE(h->store->Get(kv::MakeKey(7), &value).ok());
  EXPECT_EQ(kv::ValueSeed(value), 777u);
  EXPECT_TRUE(h->store->Get(kv::MakeKey(13), &value).IsNotFound());

  // The merged iterator yields all live keys in order, across shards.
  auto it = h->store->NewIterator();
  uint64_t seen = 0;
  std::string prev;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_TRUE(prev.empty() || prev < it->key());
    prev.assign(it->key());
    seen++;
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(seen, 63u);  // 64 puts, one deleted

  // Aggregation: the total equals the per-shard sum, and the work is
  // actually spread (every shard saw at least one put).
  const auto total = h->store->GetStats();
  EXPECT_EQ(total.user_puts, 65u);
  EXPECT_EQ(total.user_deletes, 1u);
  uint64_t puts = 0;
  for (int shard = 0; shard < sharded->num_shards(); shard++) {
    const auto s = sharded->ShardStats(shard);
    EXPECT_GT(s.user_puts, 0u) << "shard " << shard << " got no writes";
    puts += s.user_puts;
  }
  EXPECT_EQ(puts, total.user_puts);
  EXPECT_GT(h->store->DiskBytesUsed(), 0u);
  ASSERT_TRUE(h->store->Close().ok());
}

TEST(ShardedStoreTest, ReopenRecoversEveryShard) {
  for (const std::string inner : {"lsm", "btree", "alog"}) {
    auto h = OpenSharded(inner, 3);
    testing::ReferenceModel model;
    Rng rng(17);
    for (int i = 0; i < 800; i++) {
      const std::string key = "k" + std::to_string(rng.Uniform(300));
      std::string value(rng.UniformRange(1, 200), '\0');
      rng.FillBytes(value.data(), value.size());
      ASSERT_TRUE(h->store->Put(key, value).ok()) << inner;
      model.Put(key, value);
    }
    ASSERT_TRUE(h->store->Close().ok()) << inner;
    h->store.reset();

    // Reopen on the same fs and root: every shard recovers through the
    // inner engine's own recovery path.
    kv::EngineOptions options;
    options.engine = "sharded";
    options.fs = &h->fs;
    options.params = InnerParams(inner);
    options.params["shards"] = "3";
    options.params["inner_engine"] = inner;
    auto opened = kv::OpenStore(options);
    ASSERT_TRUE(opened.ok()) << inner << ": " << opened.status().ToString();
    h->store = *std::move(opened);
    testing::VerifyAll(h->store.get(), model);
    ASSERT_TRUE(h->store->Close().ok()) << inner;
  }
}

// ---- The multi-threaded stress battery.
//
// Phase A: N writer threads over DISJOINT id ranges — each thread's final
// state depends only on its own (deterministic) op stream, so the
// concurrent run must equal a sequential replay.
// Phase B: the same threads over one OVERLAPPING range, values a pure
// function of the key — the final value of every key is
// interleaving-independent — while reader threads hammer Gets. Batches in
// both phases span shards, so concurrent callers contend on the per-shard
// mutexes through the rotated commit order throughout.
constexpr int kStressThreads = 4;
constexpr uint64_t kKeysPerThread = 1500;
constexpr uint64_t kOverlapBase = 1'000'000;
constexpr uint64_t kOverlapKeys = 1200;
constexpr int kRoundsA = 150;
constexpr int kRoundsB = 120;
constexpr size_t kBatch = 8;
constexpr size_t kStressValueBytes = 64;

// The deterministic value every writer uses for an overlapping-range key.
std::string OverlapValue(uint64_t id) {
  return kv::MakeValue(id * 2654435761u + 1, kStressValueBytes);
}

// Thread t's phase-A op stream applied to `store` (used by the concurrent
// run and the golden replay alike). Mix of cross-shard batched puts and
// deletes within the thread's own id range.
void RunDisjointStream(kv::KVStore* store, int t) {
  Rng rng(0x5eed + static_cast<uint64_t>(t));
  const uint64_t base = static_cast<uint64_t>(t) * kKeysPerThread;
  kv::WriteBatch batch;
  for (int round = 0; round < kRoundsA; round++) {
    batch.Clear();
    for (size_t j = 0; j < kBatch; j++) {
      const uint64_t id = base + rng.Uniform(kKeysPerThread);
      if (rng.Bernoulli(0.15)) {
        batch.Delete(kv::MakeKey(id));
      } else {
        batch.Put(kv::MakeKey(id),
                  kv::MakeValue(rng.Next(), kStressValueBytes));
      }
    }
    ASSERT_TRUE(store->Write(batch).ok());
  }
}

// Thread t's phase-B op stream: put-only batches over the shared range,
// every value a pure function of its key.
void RunOverlappingStream(kv::KVStore* store, int t) {
  Rng rng(0xface + static_cast<uint64_t>(t));
  kv::WriteBatch batch;
  for (int round = 0; round < kRoundsB; round++) {
    batch.Clear();
    for (size_t j = 0; j < kBatch; j++) {
      const uint64_t id = kOverlapBase + rng.Uniform(kOverlapKeys);
      batch.Put(kv::MakeKey(id), OverlapValue(id));
    }
    ASSERT_TRUE(store->Write(batch).ok());
  }
}

// Streams both stores' full iterators in lockstep — ONE cursor per store
// (a second cursor on the same B+Tree store could evict the first's leaf
// under cache pressure, which the debug epoch check rightly aborts on).
// Asserts equality pair by pair so failures name the first diverging
// key, and accumulates an independent CRC32C per stream; returns the
// `got` checksum after asserting the two streams hash identically.
uint32_t ChecksumAndCompare(kv::KVStore* got, kv::KVStore* want) {
  auto it_got = got->NewIterator();
  auto it_want = want->NewIterator();
  uint32_t crc_got = 0;
  uint32_t crc_want = 0;
  uint64_t n = 0;
  it_got->SeekToFirst();
  it_want->SeekToFirst();
  while (it_want->Valid()) {
    EXPECT_TRUE(it_got->Valid()) << "concurrent run ended early at " << n
                                 << " (missing " << it_want->key() << ")";
    if (!it_got->Valid()) break;
    EXPECT_EQ(it_got->key(), it_want->key()) << "at entry " << n;
    EXPECT_EQ(it_got->value(), it_want->value())
        << "for key " << it_got->key();
    crc_got = Crc32c(crc_got, it_got->key().data(), it_got->key().size());
    crc_got =
        Crc32c(crc_got, it_got->value().data(), it_got->value().size());
    crc_want =
        Crc32c(crc_want, it_want->key().data(), it_want->key().size());
    crc_want =
        Crc32c(crc_want, it_want->value().data(), it_want->value().size());
    it_got->Next();
    it_want->Next();
    n++;
  }
  EXPECT_FALSE(it_got->Valid()) << "concurrent run has phantom keys";
  EXPECT_TRUE(it_got->status().ok()) << it_got->status().ToString();
  EXPECT_TRUE(it_want->status().ok()) << it_want->status().ToString();
  // The checksum is the headline number: identical streams => identical
  // bytes, independent of thread interleaving.
  EXPECT_EQ(crc_got, crc_want);
  return crc_got;
}

class ShardedStressTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardedStressTest, ConcurrentWritersMatchGoldenRun) {
  const std::string inner = GetParam();

  // Concurrent run: 4 writer threads against one 4-shard store.
  auto concurrent = OpenSharded(inner, 4, "stress");
  {
    std::vector<std::thread> writers;
    for (int t = 0; t < kStressThreads; t++) {
      writers.emplace_back(
          [&, t] { RunDisjointStream(concurrent->store.get(), t); });
    }
    for (auto& th : writers) th.join();
  }
  {
    std::atomic<bool> writers_done{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kStressThreads; t++) {
      writers.emplace_back(
          [&, t] { RunOverlappingStream(concurrent->store.get(), t); });
    }
    // Concurrent readers: an overlapping-range key is either absent or
    // carries exactly its key-determined value, never a torn mix.
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; r++) {
      readers.emplace_back([&, r] {
        Rng rng(0xbeef + static_cast<uint64_t>(r));
        std::string value;
        while (!writers_done.load(std::memory_order_relaxed)) {
          const uint64_t id = kOverlapBase + rng.Uniform(kOverlapKeys);
          const Status s =
              concurrent->store->Get(kv::MakeKey(id), &value);
          if (s.ok()) {
            EXPECT_EQ(value, OverlapValue(id)) << "torn read of " << id;
          } else {
            EXPECT_TRUE(s.IsNotFound()) << s.ToString();
          }
        }
      });
    }
    for (auto& th : writers) th.join();
    writers_done.store(true);
    for (auto& th : readers) th.join();
  }

  // Golden run: the SAME op streams replayed one thread at a time on a
  // fresh single-threaded store of the same sharded configuration.
  auto golden = OpenSharded(inner, 4, "golden");
  for (int t = 0; t < kStressThreads; t++) {
    RunDisjointStream(golden->store.get(), t);
  }
  for (int t = 0; t < kStressThreads; t++) {
    RunOverlappingStream(golden->store.get(), t);
  }

  const uint32_t crc =
      ChecksumAndCompare(concurrent->store.get(), golden->store.get());
  EXPECT_NE(crc, 0u);  // both streams were non-empty and hashed equal

  // The sub-batch splitting accounted every entry exactly once.
  const uint64_t expected_entries =
      static_cast<uint64_t>(kStressThreads) * kBatch *
      (static_cast<uint64_t>(kRoundsA) + kRoundsB);
  const auto stats = concurrent->store->GetStats();
  EXPECT_EQ(stats.user_puts + stats.user_deletes, expected_entries);

  ASSERT_TRUE(concurrent->store->Close().ok());
  ASSERT_TRUE(golden->store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Engines, ShardedStressTest,
                         ::testing::Values("lsm", "btree", "alog"));

// The debug-build epoch check: using an iterator after a write must fail
// fast instead of silently reading stale state. Compiled out with NDEBUG
// (RelWithDebInfo), active in the Debug sanitizer jobs.
#ifndef NDEBUG
using IteratorEpochDeathTest = ::testing::TestWithParam<const char*>;

TEST_P(IteratorEpochDeathTest, UseAfterWriteDiesInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  kv::RegisterBuiltinEngines();
  Harness h;
  kv::EngineOptions options;
  options.engine = GetParam();
  options.fs = &h.fs;
  auto store = *kv::OpenStore(options);
  ASSERT_TRUE(store->Put("a", "1").ok());
  ASSERT_TRUE(store->Put("b", "2").ok());
  auto it = store->NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  ASSERT_TRUE(store->Put("c", "3").ok());  // invalidates `it`
  EXPECT_DEATH(it->Next(), "used after a write");
}

INSTANTIATE_TEST_SUITE_P(Engines, IteratorEpochDeathTest,
                         ::testing::Values("lsm", "btree", "alog",
                                           "cached"));
#endif  // NDEBUG

// The snapshot counterpart of the epoch check: an iterator opened over a
// snapshot reads the pinned state, not the live structures, so writes —
// including range deletes that erase the very keys under the cursor —
// must NOT invalidate it. (The live NewIterator() still dies, above.)
using SnapshotIteratorSurvivalTest = ::testing::TestWithParam<const char*>;

TEST_P(SnapshotIteratorSurvivalTest, SnapshotIteratorSurvivesWrites) {
  kv::RegisterBuiltinEngines();
  Harness h;
  kv::EngineOptions options;
  options.engine = GetParam();
  options.fs = &h.fs;
  auto store = *kv::OpenStore(options);
  ASSERT_TRUE(store->Put("a", "1").ok());
  ASSERT_TRUE(store->Put("b", "2").ok());
  ASSERT_TRUE(store->Put("c", "3").ok());

  auto got = store->GetSnapshot();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
  kv::ReadOptions opts;
  opts.snapshot = snap.get();
  auto it = store->NewIterator(opts);
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "a");
  EXPECT_EQ(it->value(), "1");

  // Mutate hard mid-iteration: overwrite, range-delete the whole
  // keyspace, and flush so the live structures really move.
  ASSERT_TRUE(store->Put("a", "changed").ok());
  kv::WriteBatch wipe;
  wipe.DeleteRange("", "\xff");
  ASSERT_TRUE(store->Write(wipe).ok());
  ASSERT_TRUE(store->Flush().ok());

  it->Next();
  ASSERT_TRUE(it->Valid()) << "snapshot iterator died under a write";
  EXPECT_EQ(it->key(), "b");
  EXPECT_EQ(it->value(), "2");
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "c");
  it->Next();
  EXPECT_FALSE(it->Valid());
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  it.reset();
  snap.reset();

  // Meanwhile the live view took every write.
  auto live = store->NewIterator();
  live->SeekToFirst();
  EXPECT_FALSE(live->Valid()) << "wipe did not reach the live state";
  ASSERT_TRUE(live->status().ok());
  ASSERT_TRUE(store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Engines, SnapshotIteratorSurvivalTest,
                         ::testing::Values("lsm", "btree", "alog",
                                           "cached"));

}  // namespace
}  // namespace ptsb
