// micro_commit: WAL/journal record count as a function of concurrent
// writer threads — the group-commit bench behind the cross-thread
// kv::WriteGroup. N writers commit one-entry batches against ONE
// engine; concurrent callers line up in the engine's write group, a
// leader merges the waiting batches and persists them under a single
// log record, so the record count grows SUB-linearly in the writer
// count while the visible contents stay byte-identical to a serial run
// of the same keys.
//
//   ./build/micro_commit
//   ./build/micro_commit --keys=4800 --value-bytes=4096
//   ./build/micro_commit --smoke     (CI-sized, same self-checks)
//
// Self-checking: for every engine (lsm, btree, alog) the final contents
// of every threaded run must checksum-equal the serial golden run, a
// single writer must produce exactly one record per put (the identity
// baseline), and 4 writers must produce STRICTLY fewer records than the
// serial run of the same total workload (4x the per-writer serial
// count). Grouping depends on real thread interleaving, so the 4-writer
// cell retries a few rounds before declaring failure.
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "block/memory_device.h"
#include "core/report.h"
#include "flags.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "util/crc32.h"
#include "util/human.h"
#include "util/logging.h"

using namespace ptsb;

namespace {

struct Flags {
  uint64_t keys = 2400;      // total puts per run (split across writers)
  size_t value_bytes = 2048;
  int rounds = 5;            // retry budget for the 4-writer cell
};

// Journal on for the B+Tree so its commit path writes one record per
// group like the LSM WAL and the alog segment log do.
std::map<std::string, std::string> EngineParams(const std::string& engine) {
  if (engine == "btree") return {{"journal_enabled", "1"}};
  return {};
}

struct RunResult {
  uint64_t wal_records = 0;
  uint64_t write_groups = 0;
  uint64_t write_group_batches = 0;
  uint32_t checksum = 0;  // CRC32C over the final visible contents
};

// Runs `threads` concurrent writers against a fresh engine instance.
// Writer t puts the disjoint key range [t*K/threads, (t+1)*K/threads),
// value a pure function of the key, so the final contents are identical
// for every interleaving — and to the serial (threads=1) run.
RunResult RunCell(const std::string& engine, const Flags& flags,
                  size_t threads) {
  block::MemoryBlockDevice dev(4096, 1 << 16);
  fs::SimpleFs fs(&dev, {});
  kv::EngineOptions options;
  options.engine = engine;
  options.fs = &fs;
  options.params = EngineParams(engine);
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  const uint64_t per_thread = flags.keys / threads;
  std::vector<std::thread> writers;
  writers.reserve(threads);
  // Start barrier: writers spin until every thread is constructed, so
  // the group-commit queue sees all of them at once from the first put.
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  for (size_t t = 0; t < threads; t++) {
    writers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < per_thread; i++) {
        const uint64_t key = t * per_thread + i;
        if (!store
                 ->Put(kv::MakeKey(key),
                       kv::MakeValue(key * 2654435761ull, flags.value_bytes))
                 .ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
  PTSB_CHECK(failures.load() == 0);

  RunResult r;
  const auto stats = store->GetStats();
  r.wal_records = stats.wal_records;
  r.write_groups = stats.write_groups;
  r.write_group_batches = stats.write_group_batches;
  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    r.checksum = Crc32c(r.checksum, it->key().data(), it->key().size());
    r.checksum = Crc32c(r.checksum, it->value().data(), it->value().size());
  }
  PTSB_CHECK_OK(it->status());
  PTSB_CHECK_OK(store->Close());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::FlagParser parser;
  parser.Value("--keys", &flags.keys,
               "total puts per run, split across writers");
  parser.Value("--value-bytes", &flags.value_bytes, "value size in bytes");
  parser.Value("--rounds", &flags.rounds, "retry budget for the 4-writer cell");
  parser.Switch("--smoke", "CI-sized run, same self-checks", [&flags] {
    // Same sweep shape, ~5x less work.
    flags.keys = 960;
    flags.value_bytes = 512;
  });
  parser.Parse(argc, argv);
  flags.keys -= flags.keys % 4;  // divisible by every thread count

  std::printf(
      "micro_commit: log records written for %llu one-entry commits x "
      "%zu B values, by writer threads (group commit merges concurrent "
      "batches into one record)\n\n",
      static_cast<unsigned long long>(flags.keys), flags.value_bytes);
  std::printf("%-8s %8s %12s %12s %12s %10s\n", "engine", "writers",
              "records", "groups", "batches", "occupancy");

  std::string csv =
      "engine,writers,puts,wal_records,write_groups,write_group_batches,"
      "occupancy\n";
  bool ok = true;
  for (const std::string engine : {"lsm", "btree", "alog"}) {
    const RunResult golden = RunCell(engine, flags, 1);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      RunResult r;
      // Grouping needs the threads to actually collide; one lucky
      // scheduler round is enough, so retry the sub-linearity check a
      // few times before calling it a failure. Contents must match in
      // EVERY round.
      for (int round = 0; round < flags.rounds; round++) {
        r = RunCell(engine, flags, threads);
        if (r.checksum != golden.checksum) {
          std::printf("FAIL: %s x%zu writers: contents diverged from the "
                      "serial golden run\n",
                      engine.c_str(), threads);
          ok = false;
          break;
        }
        if (threads == 1 || r.wal_records < flags.keys) break;
      }
      if (!ok) break;
      const double occupancy =
          r.write_groups > 0 ? static_cast<double>(r.write_group_batches) /
                                   static_cast<double>(r.write_groups)
                             : 0.0;
      std::printf("%-8s %8zu %12llu %12llu %12llu %9.2fx\n", engine.c_str(),
                  threads, static_cast<unsigned long long>(r.wal_records),
                  static_cast<unsigned long long>(r.write_groups),
                  static_cast<unsigned long long>(r.write_group_batches),
                  occupancy);
      csv += StrPrintf("%s,%zu,%llu,%llu,%llu,%llu,%.4f\n", engine.c_str(),
                       threads,
                       static_cast<unsigned long long>(flags.keys),
                       static_cast<unsigned long long>(r.wal_records),
                       static_cast<unsigned long long>(r.write_groups),
                       static_cast<unsigned long long>(r.write_group_batches),
                       occupancy);
      // Self-checks. One writer is the identity baseline: every put is
      // its own group and record. Four writers must merge at least once:
      // strictly fewer records than the serial run of the same total
      // workload (= 4x the per-writer serial count).
      if (threads == 1 &&
          (r.wal_records != flags.keys || r.write_groups != flags.keys)) {
        std::printf("FAIL: %s single-writer run wrote %llu records for "
                    "%llu puts (expected one per put)\n",
                    engine.c_str(),
                    static_cast<unsigned long long>(r.wal_records),
                    static_cast<unsigned long long>(flags.keys));
        ok = false;
        break;
      }
      if (threads == 4 && r.wal_records >= flags.keys) {
        std::printf("FAIL: %s x4 writers wrote %llu records for %llu puts "
                    "in every round — group commit never merged\n",
                    engine.c_str(),
                    static_cast<unsigned long long>(r.wal_records),
                    static_cast<unsigned long long>(flags.keys));
        ok = false;
        break;
      }
      if (r.write_group_batches != flags.keys) {
        std::printf("FAIL: %s x%zu writers: %llu batches through the "
                    "group for %llu puts\n",
                    engine.c_str(), threads,
                    static_cast<unsigned long long>(r.write_group_batches),
                    static_cast<unsigned long long>(flags.keys));
        ok = false;
        break;
      }
    }
    if (!ok) break;
  }

  const std::string csv_path =
      core::WriteResultsFile("micro_commit.csv", csv);
  if (!csv_path.empty()) std::printf("\nwritten to %s\n", csv_path.c_str());

  if (!ok) return 1;
  std::printf("OK: contents identical to the serial golden run in every "
              "cell; 4 concurrent writers commit in strictly fewer log "
              "records than 4x the serial count on every engine\n");
  return 0;
}
