// micro_cache: the host-buffering experiment for the "cached" wrapper
// engine (src/cached/). For each inner engine {lsm, btree, alog} the same
// deterministic workload — load, skewed overwrite churn, skewed point
// reads, full scan — runs once on the bare engine and once per
// (read_cache_policy x read_cache_bytes) cell on cached+inner, on
// identical simulated SSDs. The sweep shows where the write buffer and
// the scan-resistant read cache pay: coalesced inner writes and served
// cache hits as the cache grows, lru vs 2q under a hot set plus a scan.
//
// Self-checks (the bench fails loudly instead of rotting):
//   - store contents and read-phase values are byte-identical (CRC) in
//     every cell, bare or cached;
//   - with the default non-trivial write buffer, the inner engine's own
//     write counters (WAL + flush + compaction + page + checkpoint + GC
//     bytes) stay strictly below the bare engine's in every cached cell
//     — the buffer absorbed and coalesced writes, it didn't just relay;
//   - with a read cache (read_cache_bytes > 0), host bytes read from
//     the device stay strictly below bare, and the cache layer serves a
//     nonzero hit ratio on the skewed read phase;
//   - at read_cache_bytes=0 the hit-ratio check is skipped (noted in
//     the output) — the cell still runs for the contents check.
//
//   ./build/micro_cache
//   ./build/micro_cache --smoke          # CI-sized, same self-checks
//   ./build/micro_cache --keys=4096 --churn=20000 --reads=16000
//
// Single-threaded and deterministic: every cell replays the same op
// stream, so cells differ only in the caching layer.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cached/cached_store.h"
#include "core/report.h"
#include "flags.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/kvstore.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "util/crc32.h"
#include "util/human.h"
#include "util/logging.h"

using namespace ptsb;

namespace {

struct Flags {
  uint64_t keys = 2048;            // loaded key count
  size_t value_bytes = 512;        // value payload
  uint64_t churn = 12000;          // skewed overwrite phase (80% hot)
  uint64_t reads = 8000;           // skewed read phase (90% hot)
  uint64_t write_buffer = 256 << 10;  // cached cells' write buffer
  uint64_t cache_small = 64 << 10;    // read-cache axis, small point
  uint64_t cache_large = 256 << 10;   // read-cache axis, large point
};

// Structural params shared by the bare run and the cached run's inner
// engine, sized so maintenance (compaction / page eviction / GC) is live
// at bench scale. The B+Tree page cache is deliberately small: the
// wrapper's read cache is the memory under study, not the engine's own.
std::map<std::string, std::string> InnerParams(const std::string& engine) {
  if (engine == "lsm") {
    return {{"memtable_bytes", std::to_string(128 << 10)},
            {"l1_target_bytes", std::to_string(512 << 10)},
            {"sst_target_bytes", std::to_string(256 << 10)}};
  }
  if (engine == "btree") {
    return {{"cache_bytes", std::to_string(64 << 10)}};
  }
  PTSB_CHECK(engine == "alog") << "unknown inner engine " << engine;
  return {{"segment_bytes", std::to_string(1 << 20)}};
}

struct CellResult {
  double total_ms = 0;        // simulated time, whole run
  uint32_t checksum = 0;      // read-phase values + final scan contents
  uint64_t engine_write_bytes = 0;  // inner engine for cached, self bare
  uint64_t device_read_bytes = 0;   // SMART host reads, whole run
  double hit_ratio = 0;       // cache-layer hits on the read phase
  uint64_t coalesced_bytes = 0;
  uint64_t flush_batches = 0;
};

// Every byte the engine itself pushed down: WAL, structure flushes,
// compaction/GC rewrites, page writes, checkpoints. For the cached runs
// this is taken from InnerStats(), i.e. what survived the write buffer.
uint64_t EngineWriteBytes(const kv::KvStoreStats& s) {
  return s.wal_bytes_written + s.flush_bytes_written +
         s.compaction_bytes_written + s.page_write_bytes +
         s.checkpoint_bytes_written + s.gc_bytes_written;
}

// One cell: the full workload against `inner`, either bare or wrapped
// (cache_policy empty = bare). The op stream is identical either way.
CellResult RunCell(const Flags& flags, const std::string& inner,
                   const std::string& cache_policy, uint64_t cache_bytes) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  cfg.channels = 2;
  cfg.timing.cache_bytes = 0;  // identical device across cells
  ssd::SsdDevice ssd(cfg, &clock);
  fs::SimpleFs fs(&ssd, {});

  const bool wrapped = !cache_policy.empty();
  kv::EngineOptions options;
  options.engine = wrapped ? "cached" : inner;
  options.fs = &fs;
  options.clock = &clock;
  options.params = InnerParams(inner);
  if (wrapped) {
    options.params["inner_engine"] = inner;
    options.params["write_buffer_bytes"] = std::to_string(flags.write_buffer);
    options.params["read_cache_bytes"] = std::to_string(cache_bytes);
    options.params["read_cache_policy"] = cache_policy;
  }

  // The cached runs open through the typed entry point so InnerStats()
  // (what actually reached the wrapped engine) stays reachable.
  std::unique_ptr<kv::KVStore> store;
  cached::CachedStore* cached_store = nullptr;
  if (wrapped) {
    auto opened = cached::CachedStore::Open(options);
    PTSB_CHECK_OK(opened.status());
    cached_store = opened->get();
    store = *std::move(opened);
  } else {
    auto opened = kv::OpenStore(options);
    PTSB_CHECK_OK(opened.status());
    store = *std::move(opened);
  }

  // Load phase: every key once, in 32-entry batches.
  kv::WriteBatch batch;
  for (uint64_t id = 0; id < flags.keys; id++) {
    batch.Put(kv::MakeKey(id), kv::MakeValue(id * 31 + 7, flags.value_bytes));
    if (batch.Count() >= 32) {
      PTSB_CHECK_OK(store->Write(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) PTSB_CHECK_OK(store->Write(batch));

  // Churn phase: single-put rewrites, 80% landing on the hot eighth of
  // the keyspace — the write buffer's coalescing target.
  const uint64_t hot = std::max<uint64_t>(flags.keys / 8, 1);
  uint64_t next = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < flags.churn; i++) {
    next = next * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t pick = next >> 17;
    const uint64_t id =
        pick % 10 < 8 ? pick % hot : pick % flags.keys;
    batch.Clear();
    batch.Put(kv::MakeKey(id), kv::MakeValue(i ^ id, flags.value_bytes));
    PTSB_CHECK_OK(store->Write(batch));
  }

  // Read phase: point lookups, 90% on the hot set. The cache layer's
  // hit ratio is measured over exactly this window.
  const kv::KvStoreStats before = store->GetStats();
  CellResult r;
  std::string value;
  for (uint64_t i = 0; i < flags.reads; i++) {
    next = next * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t pick = next >> 17;
    const uint64_t id =
        pick % 10 < 9 ? pick % hot : pick % flags.keys;
    PTSB_CHECK_OK(store->Get(kv::MakeKey(id), &value));
    r.checksum = Crc32c(r.checksum, value.data(), value.size());
  }
  const kv::KvStoreStats after = store->GetStats();
  const uint64_t probes = (after.cache_hits - before.cache_hits) +
                          (after.cache_misses - before.cache_misses);
  r.hit_ratio = probes > 0 ? static_cast<double>(after.cache_hits -
                                                 before.cache_hits) /
                                 static_cast<double>(probes)
                           : 0.0;

  // Full scan before any flush: the cached cells serve it as the
  // buffer-over-inner merge, exactly what a reader would see mid-run.
  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    r.checksum = Crc32c(r.checksum, it->key().data(), it->key().size());
    r.checksum = Crc32c(r.checksum, it->value().data(), it->value().size());
  }
  PTSB_CHECK_OK(it->status());
  it.reset();

  PTSB_CHECK_OK(store->Flush());
  const kv::KvStoreStats final_stats =
      wrapped ? cached_store->InnerStats() : store->GetStats();
  r.engine_write_bytes = EngineWriteBytes(final_stats);
  if (wrapped) {
    const kv::KvStoreStats wrapper = store->GetStats();
    r.coalesced_bytes = wrapper.buffer_coalesced_bytes;
    r.flush_batches = wrapper.flush_batches;
  }
  r.device_read_bytes = ssd.smart().host_bytes_read;
  r.total_ms = static_cast<double>(clock.NowNanos()) / 1e6;
  PTSB_CHECK_OK(store->Close());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::FlagParser parser;
  parser.Value("--keys", &flags.keys, "loaded keys");
  parser.Value("--value-bytes", &flags.value_bytes, "value size in bytes");
  parser.Value("--churn", &flags.churn, "skewed overwrites");
  parser.Value("--reads", &flags.reads, "skewed lookups");
  parser.Value("--write-buffer-bytes", &flags.write_buffer,
               "cached cells' buffer");
  parser.Switch("--smoke", "CI-sized run, same self-checks", [&flags] {
    // Same sweep shape, ~4x less work.
    flags.keys = 1024;
    flags.value_bytes = 256;
    flags.churn = 4000;
    flags.reads = 2500;
    flags.write_buffer = 64 << 10;
    flags.cache_small = 16 << 10;
    flags.cache_large = 64 << 10;
  });
  parser.Parse(argc, argv);
  kv::RegisterBuiltinEngines();

  std::printf(
      "micro_cache: cached+X vs bare X (%llu keys x %zu B, %llu skewed "
      "overwrites, %llu skewed reads, %s write buffer)\n"
      "  engine writes = WAL+flush+compaction+page+checkpoint+GC bytes "
      "of the (inner) engine; reads = SMART host bytes read\n\n",
      static_cast<unsigned long long>(flags.keys), flags.value_bytes,
      static_cast<unsigned long long>(flags.churn),
      static_cast<unsigned long long>(flags.reads),
      HumanBytes(flags.write_buffer).c_str());
  std::printf("%-7s %-8s %-10s | %10s %12s %12s %9s %8s\n", "inner",
              "policy", "cache", "time(ms)", "eng wr(MiB)", "dev rd(MiB)",
              "hit%", "flushes");

  struct Cell {
    std::string policy;  // empty = bare
    uint64_t cache_bytes = 0;
  };
  std::vector<Cell> cells = {{"", 0},
                             {"2q", 0},
                             {"lru", flags.cache_small},
                             {"2q", flags.cache_small},
                             {"lru", flags.cache_large},
                             {"2q", flags.cache_large}};

  std::string csv =
      "inner,policy,cache_bytes,total_ms,engine_write_bytes,"
      "device_read_bytes,hit_ratio,coalesced_bytes,flush_batches\n";
  std::vector<std::string> failures;
  for (const std::string inner : {"lsm", "btree", "alog"}) {
    CellResult bare;
    for (const Cell& cell : cells) {
      const CellResult r =
          RunCell(flags, inner, cell.policy, cell.cache_bytes);
      const bool wrapped = !cell.policy.empty();
      if (!wrapped) bare = r;
      std::printf("%-7s %-8s %-10s | %10.1f %12.2f %12.2f %8.1f%% %8llu\n",
                  inner.c_str(), wrapped ? cell.policy.c_str() : "bare",
                  wrapped ? HumanBytes(cell.cache_bytes).c_str() : "-",
                  r.total_ms,
                  static_cast<double>(r.engine_write_bytes) / (1 << 20),
                  static_cast<double>(r.device_read_bytes) / (1 << 20),
                  r.hit_ratio * 100,
                  static_cast<unsigned long long>(r.flush_batches));
      csv += StrPrintf(
          "%s,%s,%llu,%.3f,%llu,%llu,%.4f,%llu,%llu\n", inner.c_str(),
          wrapped ? cell.policy.c_str() : "bare",
          static_cast<unsigned long long>(cell.cache_bytes), r.total_ms,
          static_cast<unsigned long long>(r.engine_write_bytes),
          static_cast<unsigned long long>(r.device_read_bytes),
          r.hit_ratio,
          static_cast<unsigned long long>(r.coalesced_bytes),
          static_cast<unsigned long long>(r.flush_batches));
      if (!wrapped) continue;

      const std::string label =
          StrPrintf("cached/%s %s cache=%s", inner.c_str(),
                    cell.policy.c_str(), HumanBytes(cell.cache_bytes).c_str());
      if (r.checksum != bare.checksum) {
        failures.push_back(label + ": contents differ from bare " + inner);
      }
      if (r.engine_write_bytes >= bare.engine_write_bytes) {
        failures.push_back(StrPrintf(
            "%s: inner engine wrote %.2f MiB, not below bare's %.2f MiB",
            label.c_str(),
            static_cast<double>(r.engine_write_bytes) / (1 << 20),
            static_cast<double>(bare.engine_write_bytes) / (1 << 20)));
      }
      if (r.coalesced_bytes == 0) {
        failures.push_back(label + ": write buffer coalesced nothing");
      }
      if (cell.cache_bytes == 0) {
        // No read cache to grade: only the contents and write-side
        // checks apply to this cell.
        std::printf("%-7s %-8s   (read_cache_bytes=0: hit-ratio and "
                    "device-read checks skipped)\n",
                    "", "");
        continue;
      }
      if (r.device_read_bytes >= bare.device_read_bytes) {
        failures.push_back(StrPrintf(
            "%s: device reads %.2f MiB, not below bare's %.2f MiB",
            label.c_str(),
            static_cast<double>(r.device_read_bytes) / (1 << 20),
            static_cast<double>(bare.device_read_bytes) / (1 << 20)));
      }
      if (r.hit_ratio <= 0) {
        failures.push_back(label +
                           ": zero hit ratio on the skewed read phase");
      }
    }
    std::printf("\n");
  }

  const std::string csv_path = core::WriteResultsFile("micro_cache.csv", csv);
  if (!csv_path.empty()) std::printf("written to %s\n", csv_path.c_str());

  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::printf("FAIL: %s\n", f.c_str());
    }
    return 1;
  }
  std::printf(
      "OK: contents identical in every cell; the write buffer kept inner "
      "engine writes strictly below bare for all 3 inner engines; every "
      "read-cache cell cut device reads with a nonzero hit ratio\n");
  return 0;
}
