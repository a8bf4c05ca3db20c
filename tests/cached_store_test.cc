// CachedStore: the wrapper-specific contracts the differential battery
// cannot see from the outside — crash replay of the durability log (a
// kill before any flush must not lose buffered writes), 2Q scan
// resistance (one full iterator pass must not evict the hot working
// set), exact hit/miss accounting on a scripted trace, write-buffer
// coalescing accounting, and configuration rejection (bad policy, bad
// watermark, META mismatch on reopen).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "block/memory_device.h"
#include "cached/cached_store.h"
#include "cached/read_cache.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "test_support.h"

namespace ptsb {
namespace {

struct Harness {
  block::MemoryBlockDevice dev{4096, 1 << 15};
  fs::SimpleFs fs{&dev, {}};
  std::unique_ptr<cached::CachedStore> store;
};

// Opens a typed CachedStore (not through the registry) so tests can reach
// the introspection hooks (BufferBytes/InnerStats).
void OpenCached(Harness* h, std::map<std::string, std::string> params,
                const std::string& root = "") {
  kv::RegisterBuiltinEngines();
  kv::EngineOptions options;
  options.engine = "cached";
  options.fs = &h->fs;
  options.root = root;
  options.params = std::move(params);
  auto opened = cached::CachedStore::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  h->store = *std::move(opened);
}

TEST(CachedStoreTest, RejectsBadConfigurations) {
  kv::RegisterBuiltinEngines();
  Harness h;
  kv::EngineOptions options;
  options.engine = "cached";
  options.fs = &h.fs;

  options.params = {{"read_cache_policy", "clock-pro"}};
  EXPECT_TRUE(cached::CachedStore::Open(options).status().IsInvalidArgument());
  // A bad policy must fail even with the cache disabled — a typo that
  // only bites when the cache is later enabled is a silent footgun.
  options.params = {{"read_cache_policy", "lruu"}, {"read_cache_bytes", "0"}};
  EXPECT_TRUE(cached::CachedStore::Open(options).status().IsInvalidArgument());
  options.params = {{"write_buffer_bytes", "0"}};
  EXPECT_TRUE(cached::CachedStore::Open(options).status().IsInvalidArgument());
  options.params = {{"flush_watermark", "0"}};
  EXPECT_TRUE(cached::CachedStore::Open(options).status().IsInvalidArgument());
  options.params = {{"flush_watermark", "1.5"}};
  EXPECT_TRUE(cached::CachedStore::Open(options).status().IsInvalidArgument());
  options.params = {{"inner_engine", "cached"}};
  EXPECT_TRUE(cached::CachedStore::Open(options).status().IsInvalidArgument());
  options.params = {{"inner_engine", "no-such-engine"}};
  EXPECT_TRUE(cached::CachedStore::Open(options).status().IsInvalidArgument());
}

TEST(CachedStoreTest, MetaRejectsInnerEngineMismatchOnReopen) {
  Harness h;
  OpenCached(&h, {{"inner_engine", "lsm"}}, "meta-check");
  ASSERT_TRUE(h.store->Put("k", "v").ok());
  ASSERT_TRUE(h.store->Close().ok());
  h.store.reset();

  kv::EngineOptions options;
  options.engine = "cached";
  options.fs = &h.fs;
  options.root = "meta-check";
  options.params = {{"inner_engine", "btree"}};
  const Status s = cached::CachedStore::Open(options).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  options.params = {{"inner_engine", "lsm"}};
  EXPECT_TRUE(cached::CachedStore::Open(options).ok());
}

// The headline durability claim: writes that only ever reached the write
// buffer (never flushed to the inner engine) survive a crash, because the
// wrapper's own log is synced per record and replayed on open. The trace
// also overwrites and deletes keys that WERE flushed earlier, so replay
// must shadow inner-engine state, not just restore missing keys.
TEST(CachedStoreTest, CrashBeforeFlushReplaysDurabilityLog) {
  Harness h;
  const std::map<std::string, std::string> params = {
      {"inner_engine", "lsm"},
      {"write_buffer_bytes", std::to_string(1 << 20)},  // never auto-flush
      {"log_sync_every_bytes", "1"},
  };
  OpenCached(&h, params, "crash");

  testing::ReferenceModel model;
  auto put = [&](const std::string& k, const std::string& v) {
    ASSERT_TRUE(h.store->Put(k, v).ok());
    model.Put(k, v);
  };
  for (int i = 0; i < 20; i++) {
    put("k" + std::to_string(100 + i), "flushed-" + std::to_string(i));
  }
  ASSERT_TRUE(h.store->Flush().ok());  // k100..k119 now live in the inner lsm
  ASSERT_EQ(h.store->BufferEntries(), 0u);

  // Buffered-only tail: new keys, overwrites of flushed keys, deletes of
  // flushed keys — none of it flushed again before the crash.
  for (int i = 0; i < 10; i++) {
    put("k" + std::to_string(200 + i), "buffered-" + std::to_string(i));
  }
  for (int i = 0; i < 5; i++) {
    put("k" + std::to_string(100 + i), "rewritten-" + std::to_string(i));
  }
  kv::WriteBatch batch;
  for (int i = 5; i < 10; i++) {
    batch.Delete("k" + std::to_string(100 + i));
    model.Delete("k" + std::to_string(100 + i));
  }
  ASSERT_TRUE(h.store->Write(batch).ok());
  ASSERT_GT(h.store->BufferEntries(), 0u);

  h.fs.SimulateCrash();
  // Abandon the handle without Close() — Close would flush the buffer and
  // defeat the point. (Deliberate leak, same idiom as the differential
  // crash tests.)
  h.store.release();

  OpenCached(&h, params, "crash");
  testing::VerifyAll(h.store.get(), model);
  for (int i = 5; i < 10; i++) {
    std::string value;
    EXPECT_TRUE(
        h.store->Get("k" + std::to_string(100 + i), &value).IsNotFound());
  }
  // The replayed tail lives in the buffer again; recovery must not have
  // pushed it into the inner engine behind the user's back. (The inner
  // engine's in-memory counters start at zero on reopen, so any write
  // during replay would show here.)
  EXPECT_GT(h.store->BufferEntries(), 0u);
  EXPECT_EQ(h.store->InnerStats().user_puts, 0u);
  EXPECT_EQ(h.store->InnerStats().user_deletes, 0u);

  // And the iterator stream over buffer+inner matches the model exactly.
  auto it = h.store->NewIterator();
  auto expected = model.map().begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, model.map().end());
    EXPECT_EQ(it->key(), expected->first);
    EXPECT_EQ(it->value(), expected->second);
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(expected, model.map().end());
}

// Loads hot + filler keys through the read cache and checks the policy
// contract: under 2Q a full iterator scan must not evict a hot working
// set that earned its way into the long-lived queue, while under LRU the
// same scan wipes it out.
void RunScanResistanceTrace(const std::string& policy,
                            uint64_t expected_hot_hits_after_scan) {
  Harness h;
  OpenCached(&h,
             {{"inner_engine", "lsm"},
              {"read_cache_bytes", "4096"},
              {"read_cache_policy", policy}},
             "scan-" + policy);

  const std::string value(100, 'v');
  std::vector<std::string> hot, filler;
  for (int i = 0; i < 10; i++) {
    hot.push_back("h0" + std::to_string(i));  // scans reach these FIRST
  }
  for (int i = 0; i < 200; i++) {
    std::string k = "z" + std::to_string(i);
    k.insert(1, 3 - (k.size() - 1), '0');  // z000..z199, sorted after hot
    filler.push_back(k);
  }
  kv::WriteBatch load;
  for (const std::string& k : hot) load.Put(k, value);
  for (const std::string& k : filler) load.Put(k, value);
  ASSERT_TRUE(h.store->Write(load).ok());
  ASSERT_TRUE(h.store->Flush().ok());  // empty the buffer: reads now probe
  ASSERT_EQ(h.store->BufferEntries(), 0u);  // cache, then the inner engine

  std::string got;
  auto get_hot_hits = [&] {
    const uint64_t before = h.store->GetStats().cache_hits;
    for (const std::string& k : hot) {
      EXPECT_TRUE(h.store->Get(k, &got).ok()) << k;
    }
    return h.store->GetStats().cache_hits - before;
  };

  // Touch the hot set, flood past the probationary queue, touch it again:
  // under 2Q the re-reference hits the ghost list and promotes the hot
  // keys into the protected queue; under LRU it is just another insert.
  get_hot_hits();
  for (int i = 0; i < 15; i++) {
    EXPECT_TRUE(h.store->Get(filler[static_cast<size_t>(i)], &got).ok());
  }
  get_hot_hits();
  EXPECT_EQ(get_hot_hits(), 10u) << policy << ": hot set not resident";

  // One full scan over the whole store (hot keys first, then 20KiB of
  // filler — 5x the cache budget).
  auto it = h.store->NewIterator();
  size_t seen = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) seen++;
  ASSERT_TRUE(it->status().ok());
  ASSERT_EQ(seen, hot.size() + filler.size());

  EXPECT_EQ(get_hot_hits(), expected_hot_hits_after_scan) << policy;
}

TEST(CachedStoreTest, TwoQSurvivesFullScan) {
  RunScanResistanceTrace("2q", 10);
}

TEST(CachedStoreTest, LruLosesHotSetToFullScan) {
  RunScanResistanceTrace("lru", 0);
}

// Every hit/miss on a scripted trace, counted by hand: buffer hits,
// tombstone hits, read-cache hits, inner misses (found and NotFound),
// and the sequential MultiGet path.
TEST(CachedStoreTest, HitAndMissCountersAreExact) {
  Harness h;
  OpenCached(&h, {{"inner_engine", "lsm"}, {"read_cache_policy", "lru"}},
             "counters");
  std::string got;

  ASSERT_TRUE(h.store->Put("a", "va").ok());
  ASSERT_TRUE(h.store->Put("b", "vb").ok());
  ASSERT_TRUE(h.store->Put("c", "vc").ok());

  EXPECT_TRUE(h.store->Get("a", &got).ok());        // buffer hit     (h=1)
  EXPECT_TRUE(h.store->Get("x", &got).IsNotFound());  // inner miss   (m=1)
  ASSERT_TRUE(h.store->Flush().ok());  // buffer emptied into the inner lsm

  EXPECT_TRUE(h.store->Get("a", &got).ok());  // inner miss, fills    (m=2)
  EXPECT_TRUE(h.store->Get("a", &got).ok());  // read-cache hit       (h=2)
  EXPECT_TRUE(h.store->Get("b", &got).ok());  // inner miss, fills    (m=3)
  EXPECT_TRUE(h.store->Get("b", &got).ok());  // read-cache hit       (h=3)

  ASSERT_TRUE(h.store->Delete("b").ok());  // tombstone evicts cached "b"
  EXPECT_TRUE(h.store->Get("b", &got).IsNotFound());  // buffer hit   (h=4)

  const std::vector<std::string_view> keys = {"a", "c", "z"};
  std::vector<std::string> values;
  const std::vector<Status> statuses = h.store->MultiGet(keys, &values);
  EXPECT_TRUE(statuses[0].ok());           // read-cache hit          (h=5)
  EXPECT_TRUE(statuses[1].ok());           // inner miss, fills       (m=4)
  EXPECT_TRUE(statuses[2].IsNotFound());   // inner miss              (m=5)

  const kv::KvStoreStats stats = h.store->GetStats();
  EXPECT_EQ(stats.cache_hits, 5u);
  EXPECT_EQ(stats.cache_misses, 5u);
  EXPECT_EQ(stats.user_gets, 10u);
}

// Rewrites absorbed by the buffer are counted byte-exactly and never
// reach the inner engine; the eventual drain is one group-commit batch.
TEST(CachedStoreTest, CoalescingIsCountedAndKeptOffTheInnerEngine) {
  Harness h;
  OpenCached(&h, {{"inner_engine", "lsm"}}, "coalesce");

  const std::string value(100, 'w');
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(h.store->Put("key", value).ok());
  }
  kv::KvStoreStats stats = h.store->GetStats();
  // 49 overwrites, each absorbing the previous 3+100 byte entry.
  EXPECT_EQ(stats.buffer_coalesced_bytes, 49u * 103u);
  EXPECT_EQ(stats.flush_batches, 0u);
  EXPECT_EQ(h.store->InnerStats().user_puts, 0u);
  EXPECT_EQ(h.store->BufferEntries(), 1u);

  ASSERT_TRUE(h.store->Flush().ok());
  stats = h.store->GetStats();
  EXPECT_EQ(stats.flush_batches, 1u);
  EXPECT_EQ(h.store->InnerStats().user_puts, 1u);  // one key, one batch
  std::string got;
  ASSERT_TRUE(h.store->Get("key", &got).ok());
  EXPECT_EQ(got, value);
}

// Least-coalesced-first victim selection: the entry that keeps being
// rewritten stays buffered across a flush while cold entries drain.
TEST(CachedStoreTest, FlushKeepsMostCoalescedEntriesBuffered) {
  Harness h;
  OpenCached(&h,
             {{"inner_engine", "lsm"},
              {"write_buffer_bytes", "4096"},
              {"flush_watermark", "0.5"}},
             "victims");

  const std::string value(200, 'x');
  // One hot key rewritten ten times: its absorbed bytes dwarf everything
  // else, making it the last flush victim.
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(h.store->Put("hot", value).ok());
  }
  // Cold keys fill the buffer to the 4KiB capacity; the crossing write
  // triggers an inline flush down to the 2KiB watermark.
  for (int i = 0; i < 30 && h.store->GetStats().flush_batches == 0; i++) {
    ASSERT_TRUE(h.store->Put("cold" + std::to_string(i), value).ok());
  }
  const kv::KvStoreStats stats = h.store->GetStats();
  ASSERT_EQ(stats.flush_batches, 1u);
  EXPECT_LE(h.store->BufferBytes(), 2048u);
  EXPECT_GT(h.store->InnerStats().user_puts, 0u);  // cold entries drained
  // "hot" had by far the largest absorbed bytes, so it stayed buffered: a
  // fresh Get is served by the write buffer (the read cache never held
  // it — every rewrite invalidated it).
  const uint64_t hits_before = stats.cache_hits;
  std::string got;
  ASSERT_TRUE(h.store->Get("hot", &got).ok());
  EXPECT_EQ(got, value);
  EXPECT_EQ(h.store->GetStats().cache_hits, hits_before + 1);
}

}  // namespace
}  // namespace ptsb
