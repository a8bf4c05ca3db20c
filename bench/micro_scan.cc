// micro_scan: snapshot reads under write load. Two experiments, both
// self-checking:
//
// 1. Snapshot isolation under write load — for every engine (lsm, btree,
//    alog): take a snapshot, compute its scan checksum, then let 4 concurrent
//    writer threads overwrite and range-delete the keyspace while the main
//    thread keeps re-scanning through the snapshot. Every scan — during the
//    churn and after the writers join — must return the exact snapshot-time
//    checksum. This is the paper's "reads don't block writes" contract made
//    falsifiable: the cursor observes a frozen sequence, not whatever
//    compaction/flush/GC left behind.
//
// 2. Snapshot pin accounting — a snapshot taken before heavy churn pins
//    resources the engine would otherwise reclaim (obsolete SSTs past
//    compaction, zombie alog segments past GC).
//    GetStats().snapshot_pinned_bytes must be > 0 while the snapshot
//    lives and return to exactly 0 after the last reference drops — pins
//    are accounted, not leaked.
//
//   ./build/micro_scan
//   ./build/micro_scan --smoke        # CI-sized, same self-checks
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "block/memory_device.h"
#include "flags.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/kvstore.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "util/crc32.h"
#include "util/logging.h"

using namespace ptsb;

namespace {

struct Flags {
  uint64_t keys = 2048;       // loaded key count (isolation cell)
  size_t value_bytes = 256;   // isolation-cell value payload
  int writer_rounds = 6;      // churn rounds per writer thread
};

struct EngineConfig {
  std::string label;
  std::string engine;
  std::map<std::string, std::string> params;
};

std::map<std::string, std::string> SmallParams(const std::string& engine) {
  if (engine == "lsm") {
    return {{"memtable_bytes", std::to_string(64 << 10)},
            {"l1_target_bytes", std::to_string(256 << 10)},
            {"sst_target_bytes", std::to_string(128 << 10)},
            {"block_bytes", "4096"}};
  }
  if (engine == "btree") {
    return {{"leaf_max_bytes", std::to_string(4 << 10)},
            {"internal_max_bytes", "1024"},
            {"cache_bytes", std::to_string(32 << 10)},
            {"checkpoint_every_bytes", std::to_string(256 << 10)}};
  }
  if (engine == "alog") {
    return {{"segment_bytes", std::to_string(128 << 10)},
            {"gc_trigger", "0.4"}};
  }
  return {};
}

// Every engine cell: lsm, btree, alog.
std::vector<EngineConfig> AllEngineConfigs() {
  std::vector<EngineConfig> configs;
  for (const std::string name : {"lsm", "btree", "alog"}) {
    configs.push_back({name, name, SmallParams(name)});
  }
  return configs;
}

uint32_t ChecksumSnapshotScan(kv::KVStore* store, const kv::Snapshot* snap) {
  kv::ReadOptions opts;
  opts.snapshot = snap;
  std::unique_ptr<kv::KVStore::Iterator> it = store->NewIterator(opts);
  uint32_t sum = 0;
  uint64_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    sum = Crc32c(sum, it->key().data(), it->key().size());
    sum = Crc32c(sum, it->value().data(), it->value().size());
    n++;
  }
  PTSB_CHECK_OK(it->status());
  // Fold the entry count in so "same bytes, fewer rows" cannot collide.
  sum = Crc32c(sum, reinterpret_cast<const char*>(&n), sizeof(n));
  return sum;
}

// ---- Cell 1: snapshot isolation under 4 concurrent writer threads.

bool RunIsolationCell(const Flags& flags, const EngineConfig& config) {
  block::MemoryBlockDevice dev(4096, 1 << 15);
  fs::SimpleFs fs(&dev, {});
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &fs;
  options.params = config.params;
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  kv::WriteBatch batch;
  for (uint64_t id = 0; id < flags.keys; id++) {
    batch.Put(kv::MakeKey(id), kv::MakeValue(id, flags.value_bytes));
    if (batch.Count() >= 64) {
      PTSB_CHECK_OK(store->Write(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) PTSB_CHECK_OK(store->Write(batch));

  auto got = store->GetSnapshot();
  PTSB_CHECK_OK(got.status());
  std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
  const uint32_t golden = ChecksumSnapshotScan(store.get(), snap.get());

  // 4 writers, each churning its own quarter of the keyspace:
  // overwrites with round-stamped values plus a range delete per round,
  // so compaction/flush/GC/eviction all run under the live snapshot.
  constexpr size_t kWriters = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  const uint64_t slice = flags.keys / kWriters;
  for (size_t w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      const uint64_t base = w * slice;
      for (int round = 1; round <= flags.writer_rounds; round++) {
        kv::WriteBatch wb;
        for (uint64_t i = 0; i < slice; i++) {
          wb.Put(kv::MakeKey(base + i),
                 kv::MakeValue(base + i + round * 7919, flags.value_bytes));
          if (wb.Count() >= 32) {
            if (!store->Write(wb).ok()) { failed = true; return; }
            wb.Clear();
          }
        }
        // Carve a hole out of this writer's slice; refilled next round.
        wb.DeleteRange(kv::MakeKey(base + slice / 4),
                       kv::MakeKey(base + slice / 2));
        if (!store->Write(wb).ok()) { failed = true; return; }
      }
    });
  }

  // Re-scan the snapshot while the writers churn: every pass must see
  // the exact snapshot-time state.
  bool isolated = true;
  for (int pass = 0; pass < 4 && isolated; pass++) {
    isolated = ChecksumSnapshotScan(store.get(), snap.get()) == golden;
  }
  for (std::thread& w : writers) w.join();
  if (failed.load()) {
    std::printf("FAIL: %s writer thread hit an error\n", config.label.c_str());
    return false;
  }
  // After the dust settles the snapshot still reads its frozen state...
  if (ChecksumSnapshotScan(store.get(), snap.get()) != golden || !isolated) {
    std::printf("FAIL: %s snapshot scan drifted from snapshot-time state\n",
                config.label.c_str());
    return false;
  }
  // ... and the live view genuinely moved (the churn wasn't a no-op).
  std::string v;
  const Status live = store->Get(kv::MakeKey(slice / 4), &v);
  if (live.ok() && v == kv::MakeValue(slice / 4, flags.value_bytes)) {
    std::printf("FAIL: %s live state unchanged — churn did not land\n",
                config.label.c_str());
    return false;
  }
  snap.reset();
  PTSB_CHECK_OK(store->Close());
  return true;
}

// ---- Cell 2: snapshot pin accounting.

bool RunPinCell(const Flags& flags, const EngineConfig& config) {
  block::MemoryBlockDevice dev(4096, 1 << 15);
  fs::SimpleFs fs(&dev, {});
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &fs;
  options.params = config.params;
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  for (uint64_t id = 0; id < flags.keys; id++) {
    PTSB_CHECK_OK(
        store->Put(kv::MakeKey(id), kv::MakeValue(id, flags.value_bytes)));
  }
  PTSB_CHECK_OK(store->Flush());
  PTSB_CHECK_OK(store->SettleBackgroundWork());

  auto got = store->GetSnapshot();
  PTSB_CHECK_OK(got.status());
  std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
  const uint32_t golden = ChecksumSnapshotScan(store.get(), snap.get());

  // Churn hard enough that compaction/GC want to reclaim the snapshot's
  // files: several full overwrite passes, flushed and settled.
  for (int round = 1; round <= 3; round++) {
    for (uint64_t id = 0; id < flags.keys; id++) {
      PTSB_CHECK_OK(store->Put(
          kv::MakeKey(id), kv::MakeValue(id + round * 104729, flags.value_bytes)));
    }
    PTSB_CHECK_OK(store->Flush());
    PTSB_CHECK_OK(store->SettleBackgroundWork());
  }

  const kv::KvStoreStats pinned = store->GetStats();
  if (pinned.snapshots_open != 1) {
    std::printf("FAIL: %s snapshots_open=%llu with one live snapshot\n",
                config.label.c_str(),
                static_cast<unsigned long long>(pinned.snapshots_open));
    return false;
  }
  if (pinned.snapshot_pinned_bytes == 0) {
    std::printf("FAIL: %s pinned no bytes despite churn under a snapshot\n",
                config.label.c_str());
    return false;
  }
  // The pinned resources are what keep the snapshot readable.
  if (ChecksumSnapshotScan(store.get(), snap.get()) != golden) {
    std::printf("FAIL: %s snapshot unreadable after churn\n",
                config.label.c_str());
    return false;
  }

  snap.reset();
  PTSB_CHECK_OK(store->SettleBackgroundWork());
  const kv::KvStoreStats released = store->GetStats();
  if (released.snapshots_open != 0 || released.snapshot_pinned_bytes != 0) {
    std::printf(
        "FAIL: %s pins leaked after release (open=%llu pinned=%llu B)\n",
        config.label.c_str(),
        static_cast<unsigned long long>(released.snapshots_open),
        static_cast<unsigned long long>(released.snapshot_pinned_bytes));
    return false;
  }
  std::printf("  %-12s pinned %8llu B under snapshot, 0 after release\n",
              config.label.c_str(),
              static_cast<unsigned long long>(pinned.snapshot_pinned_bytes));
  PTSB_CHECK_OK(store->Close());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::FlagParser parser;
  parser.Value("--keys", &flags.keys, "isolation/pin-cell keys");
  parser.Value("--value-bytes", &flags.value_bytes, "value size in bytes");
  parser.Value("--rounds", &flags.writer_rounds, "churn rounds per writer");
  parser.Switch("--smoke", "CI-sized run, same self-checks", [&flags] {
    // Same cells, much less churn.
    flags.keys = 1024;
    flags.value_bytes = 128;
    flags.writer_rounds = 3;
  });
  parser.Parse(argc, argv);

  // ---- Cell 1: snapshot isolation in every engine cell.
  std::printf("micro_scan cell 1: snapshot scan vs 4 concurrent writers "
              "(%llu keys x %zu B, %d churn rounds)\n",
              static_cast<unsigned long long>(flags.keys), flags.value_bytes,
              flags.writer_rounds);
  bool ok = true;
  for (const EngineConfig& config : AllEngineConfigs()) {
    if (!RunIsolationCell(flags, config)) {
      ok = false;
    } else {
      std::printf("  %-12s snapshot checksum stable under churn\n",
                  config.label.c_str());
    }
  }
  if (!ok) return 1;

  // ---- Cell 2: pin accounting on the engines that defer reclamation.
  std::printf("\nmicro_scan cell 2: snapshot pin accounting\n");
  for (const EngineConfig& config :
       std::vector<EngineConfig>{AllEngineConfigs()[0],     // lsm
                                 AllEngineConfigs()[2]}) {  // alog
    if (!RunPinCell(flags, config)) return 1;
  }

  std::printf("\nOK: snapshots isolate against 4-writer churn in every "
              "engine cell; pinned bytes return to zero on release\n");
  return 0;
}
