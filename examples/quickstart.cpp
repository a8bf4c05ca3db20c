// Quickstart: build the full simulated stack (SSD -> filesystem -> engine),
// open each of the three storage engines by name (kv::OpenStore),
// write data with batched group commit, stream a range with an iterator, and
// peek at the metrics the paper is about (WA-A at the block layer, WA-D from
// SMART).
//
//   ./build/quickstart
#include <cstdio>
#include <memory>

#include "block/iostat.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "sim/clock.h"
#include "ssd/precondition.h"
#include "ssd/profiles.h"
#include "ssd/ssd_device.h"
#include "util/human.h"
#include "util/logging.h"

using namespace ptsb;

static void Demo(const char* title, kv::KVStore* store,
                 block::IoStatCollector* iostat, ssd::SsdDevice* ssd) {
  std::printf("--- %s ---\n", title);
  const auto smart0 = ssd->smart();  // measure this demo only

  // Write 20k key-value pairs in batches of 64 (group commit: one WAL /
  // journal record per batch), update a few, delete one.
  kv::WriteBatch batch;
  for (uint64_t i = 0; i < 20'000; i++) {
    batch.Put(kv::MakeKey(i), kv::MakeValue(i, 512));
    if (batch.Count() == 64) {
      PTSB_CHECK_OK(store->Write(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) PTSB_CHECK_OK(store->Write(batch));
  PTSB_CHECK_OK(store->Put(kv::MakeKey(7), kv::MakeValue(777, 512)));
  PTSB_CHECK_OK(store->Delete(kv::MakeKey(13)));
  PTSB_CHECK_OK(store->Flush());

  // Point reads.
  std::string value;
  PTSB_CHECK_OK(store->Get(kv::MakeKey(7), &value));
  PTSB_CHECK(kv::ValueSeed(value) == 777) << "updated value expected";
  PTSB_CHECK(kv::VerifyValue(value)) << "payload integrity";
  PTSB_CHECK(store->Get(kv::MakeKey(13), &value).IsNotFound());

  // Streaming range read: 5 entries from key 10 (note 13 is deleted).
  std::printf("iterate from %s:\n", kv::MakeKey(10).c_str());
  auto it = store->NewIterator();
  int shown = 0;
  for (it->Seek(kv::MakeKey(10)); it->Valid() && shown < 5; it->Next()) {
    std::printf("  %.*s -> %zu bytes\n",
                static_cast<int>(it->key().size()), it->key().data(),
                it->value().size());
    shown++;
  }
  PTSB_CHECK_OK(it->status());

  // The paper's metrics.
  const auto stats = store->GetStats();
  const auto io = iostat->counters();
  const auto smart = ssd->smart();
  const uint64_t nand = smart.nand_bytes_written - smart0.nand_bytes_written;
  const uint64_t host = smart.host_bytes_written - smart0.host_bytes_written;
  const double wa_a = static_cast<double>(io.write_bytes) /
                      static_cast<double>(stats.user_bytes_written);
  const double wa_d =
      host > 0 ? static_cast<double>(nand) / static_cast<double>(host) : 1.0;
  std::printf("user writes: %s   host writes: %s   NAND writes: %s\n",
              HumanBytes(stats.user_bytes_written).c_str(),
              HumanBytes(io.write_bytes).c_str(), HumanBytes(nand).c_str());
  std::printf("log bytes: %s across %llu batches (group commit)\n",
              HumanBytes(stats.wal_bytes_written).c_str(),
              static_cast<unsigned long long>(stats.user_batches));
  std::printf("WA-A (application) = %.2f   WA-D (device) = %.2f   "
              "end-to-end = %.2f\n",
              wa_a, wa_d, wa_a * wa_d);
  std::printf("disk used by engine: %s\n\n",
              HumanBytes(store->DiskBytesUsed()).c_str());
}

int main() {
  // A small trimmed enterprise-class drive.
  sim::SimClock clock;
  auto config =
      ssd::MakeProfile(ssd::ProfileKind::kSsd1Enterprise, 2ull << 30);
  ssd::SsdDevice ssd(config, &clock);
  block::IoStatCollector iostat(&ssd);
  PTSB_CHECK_OK(ssd::TrimAll(&ssd));
  fs::SimpleFs fs(&iostat, {});

  {
    kv::EngineOptions options;
    options.engine = "lsm";
    options.fs = &fs;
    options.clock = &clock;
    options.params["memtable_bytes"] = std::to_string(2 << 20);
    options.params["l1_target_bytes"] = std::to_string(8 << 20);
    options.params["sst_target_bytes"] = std::to_string(2 << 20);
    auto store = *kv::OpenStore(options);
    Demo("LSM-tree engine (RocksDB-like)", store.get(), &iostat, &ssd);
    PTSB_CHECK_OK(store->Close());
  }
  iostat.ResetCounters();
  {
    kv::EngineOptions options;
    options.engine = "btree";
    options.fs = &fs;
    options.clock = &clock;
    options.params["cache_bytes"] = std::to_string(4 << 20);
    options.params["journal_enabled"] = "1";
    auto store = *kv::OpenStore(options);
    Demo("B+Tree engine (WiredTiger-like)", store.get(), &iostat, &ssd);
    PTSB_CHECK_OK(store->Close());
  }
  iostat.ResetCounters();
  {
    kv::EngineOptions options;
    options.engine = "alog";
    options.fs = &fs;
    options.clock = &clock;
    options.params["segment_bytes"] = std::to_string(2 << 20);
    auto store = *kv::OpenStore(options);
    Demo("append-only log engine (Bitcask-like)", store.get(), &iostat,
         &ssd);
    PTSB_CHECK_OK(store->Close());
  }
  std::printf("simulated time elapsed: %.2f s\n", clock.NowSeconds());
  return 0;
}
