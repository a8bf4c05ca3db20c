// Scan-under-write stress battery: snapshot scans racing live writers.
//
// 4 writer threads each own a disjoint key slice and rewrite the WHOLE
// slice as one WriteBatch per round, stamping every value with the round
// number; each batch first range-deletes part of the slice that its puts
// then refill. 2 scanner threads concurrently take snapshots and scan. Because
// a batch commits atomically with respect to GetSnapshot (both serialize
// through the engine's write group), every snapshot must observe each
// writer at a whole-round boundary:
//
//  - re-scanning the SAME snapshot returns a byte-identical result;
//  - per key, the observed round never decreases across a scanner's
//    successive snapshots (sequence numbers are monotone);
//  - per writer, all keys of its slice carry the SAME round stamp;
//  - every scan sees the full keyspace (no partial states);
//  - after the writers join, a final snapshot scan equals the serial
//    golden state (every writer at its last round).
//
// Runs over every engine (lsm, btree, alog). Carries the ctest
// "stress" label: the TSan matrix entry hunts races between the write
// group, snapshot refcounts and the iterator read paths.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "block/memory_device.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/kvstore.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "util/status.h"

namespace ptsb {
namespace {

constexpr size_t kWriters = 4;
constexpr uint64_t kKeysPerWriter = 48;
constexpr int kRounds = 10;
constexpr int kScansPerScanner = 6;
constexpr uint64_t kNumKeys = kWriters * kKeysPerWriter;

std::string ValueFor(size_t writer, int round, uint64_t key) {
  std::string v = "w" + std::to_string(writer) + ".r" +
                  std::to_string(round) + ".k" + std::to_string(key);
  v.resize(48, 'x');  // fixed size: keeps batch byte-pacing uniform
  return v;
}

// Parses the round stamp out of a ValueFor string.
int RoundOf(std::string_view value) {
  const size_t r = value.find(".r");
  const size_t k = value.find(".k");
  if (r == std::string_view::npos || k == std::string_view::npos) return -1;
  return std::stoi(std::string(value.substr(r + 2, k - r - 2)));
}

size_t WriterOf(uint64_t key_id) { return key_id / kKeysPerWriter; }

struct EngineConfig {
  std::string label;
  std::string engine;
  std::map<std::string, std::string> params;
};

std::map<std::string, std::string> SmallParams(const std::string& engine) {
  if (engine == "lsm") {
    return {{"memtable_bytes", std::to_string(16 << 10)},
            {"l1_target_bytes", std::to_string(64 << 10)},
            {"sst_target_bytes", std::to_string(32 << 10)},
            {"block_bytes", "1024"}};
  }
  if (engine == "btree") {
    return {{"leaf_max_bytes", std::to_string(2 << 10)},
            {"internal_max_bytes", "512"},
            {"cache_bytes", std::to_string(16 << 10)},
            {"checkpoint_every_bytes", std::to_string(64 << 10)}};
  }
  if (engine == "alog") {
    return {{"segment_bytes", std::to_string(16 << 10)},
            {"gc_trigger", "0.4"}};
  }
  return {};
}

std::vector<EngineConfig> AllEngineConfigs() {
  std::vector<EngineConfig> configs;
  for (const std::string name : {"lsm", "btree", "alog"}) {
    configs.push_back({name, name, SmallParams(name)});
  }
  return configs;
}

// One full scan through `snap`: collects (key_id, round) plus the raw
// concatenation for byte-identity comparison. Returns false on any
// malformed state (wrong key count, unparseable value).
bool ScanSnapshot(kv::KVStore* store, const kv::Snapshot* snap,
                  std::vector<int>* rounds, std::string* raw) {
  kv::ReadOptions opts;
  opts.snapshot = snap;
  auto it = store->NewIterator(opts);
  rounds->assign(kNumKeys, -1);
  raw->clear();
  uint64_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    raw->append(it->key());
    raw->append(it->value());
    const int round = RoundOf(it->value());
    if (round < 0) return false;
    if (n >= kNumKeys) return false;
    (*rounds)[n] = round;
    n++;
  }
  if (!it->status().ok()) return false;
  return n == kNumKeys;  // every scan sees the whole keyspace
}

TEST(ScanUnderWriteStress, SnapshotScansSeeWholeRoundsUnderLoad) {
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& label = config.label;
    block::MemoryBlockDevice dev(4096, 1 << 15);
    fs::SimpleFs fs(&dev, {});
    kv::EngineOptions options;
    options.engine = config.engine;
    options.fs = &fs;
    options.params = config.params;
    auto opened = kv::OpenStore(options);
    ASSERT_TRUE(opened.ok()) << label << ": " << opened.status().ToString();
    auto store = *std::move(opened);

    // Round 0 for every writer, so scanners always see a full keyspace.
    for (size_t w = 0; w < kWriters; w++) {
      kv::WriteBatch batch;
      for (uint64_t i = 0; i < kKeysPerWriter; i++) {
        const uint64_t id = w * kKeysPerWriter + i;
        batch.Put(kv::MakeKey(id), ValueFor(w, 0, id));
      }
      ASSERT_TRUE(store->Write(batch).ok()) << label;
    }

    std::atomic<bool> failed{false};
    std::atomic<int> writers_done{0};
    auto fail = [&](const std::string& what) {
      if (!failed.exchange(true)) {
        ADD_FAILURE() << label << ": " << what;
      }
    };

    std::vector<std::thread> threads;
    for (size_t w = 0; w < kWriters; w++) {
      threads.emplace_back([&, w] {
        const uint64_t base = w * kKeysPerWriter;
        for (int round = 1; round <= kRounds; round++) {
          // A range delete over part of the slice, refilled by the puts
          // below in the same batch: snapshot cursors race range
          // tombstones, and a whole round still leaves every key present.
          kv::WriteBatch batch;
          batch.DeleteRange(kv::MakeKey(base + kKeysPerWriter / 4),
                            kv::MakeKey(base + kKeysPerWriter / 2));
          for (uint64_t id = base; id < base + kKeysPerWriter; id++) {
            batch.Put(kv::MakeKey(id), ValueFor(w, round, id));
          }
          if (!store->Write(batch).ok()) {
            fail("writer " + std::to_string(w) + " write error");
            return;
          }
        }
        writers_done.fetch_add(1);
      });
    }

    for (int s = 0; s < 2; s++) {
      threads.emplace_back([&] {
        std::vector<int> last_rounds(kNumKeys, -1);
        std::vector<int> rounds;
        std::string raw, raw2;
        for (int scan = 0; scan < kScansPerScanner && !failed.load(); scan++) {
          auto got = store->GetSnapshot();
          if (!got.ok()) {
            fail("GetSnapshot: " + got.status().ToString());
            return;
          }
          std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
          if (!ScanSnapshot(store.get(), snap.get(), &rounds, &raw)) {
            fail("snapshot scan saw a partial or malformed keyspace");
            return;
          }
          // Re-scan of the SAME snapshot: byte-identical.
          std::vector<int> rounds2;
          if (!ScanSnapshot(store.get(), snap.get(), &rounds2, &raw2) ||
              raw2 != raw) {
            fail("re-scan of one snapshot returned different bytes");
            return;
          }
          for (uint64_t id = 0; id < kNumKeys; id++) {
            // Monotone per key across this scanner's snapshots.
            if (rounds[id] < last_rounds[id]) {
              fail("key round moved backwards across snapshots");
              return;
            }
            last_rounds[id] = rounds[id];
          }
          // Whole-round visibility: one stamp per writer slice.
          for (size_t w = 0; w < kWriters; w++) {
            const int first = rounds[w * kKeysPerWriter];
            for (uint64_t i = 1; i < kKeysPerWriter; i++) {
              if (rounds[w * kKeysPerWriter + i] != first) {
                fail("torn round: writer " + std::to_string(w) +
                     " visible mid-batch");
                return;
              }
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_FALSE(failed.load()) << label;
    ASSERT_EQ(writers_done.load(), static_cast<int>(kWriters)) << label;

    // Final snapshot equals the serial golden: every writer at kRounds.
    auto got = store->GetSnapshot();
    ASSERT_TRUE(got.ok()) << label;
    std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
    kv::ReadOptions opts;
    opts.snapshot = snap.get();
    auto it = store->NewIterator(opts);
    uint64_t id = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next(), id++) {
      ASSERT_LT(id, kNumKeys) << label;
      EXPECT_EQ(it->key(), kv::MakeKey(id)) << label;
      EXPECT_EQ(it->value(), ValueFor(WriterOf(id), kRounds, id)) << label;
    }
    EXPECT_EQ(id, kNumKeys) << label;
    ASSERT_TRUE(it->status().ok()) << label;
    it.reset();
    snap.reset();

    // All pins released: the stats gauges return to zero.
    const kv::KvStoreStats stats = store->GetStats();
    EXPECT_EQ(stats.snapshots_open, 0u) << label;
    EXPECT_EQ(stats.snapshot_pinned_bytes, 0u) << label;
    EXPECT_GT(stats.snapshots_created, 0u) << label;
    ASSERT_TRUE(store->Close().ok()) << label;
  }
}

}  // namespace
}  // namespace ptsb
