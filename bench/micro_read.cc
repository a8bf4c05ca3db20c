// micro_read: the read-side counterpart of micro_async. Two experiments,
// both self-checking:
//
// 1. Read fan-out sweep — simulated device time of a uniform point-read
//    workload through KVStore::MultiGet as a function of
//    read_queue_depth (rows) x channels (columns), on the alog engine
//    (every Get is exactly one segment read, so the read path is pure).
//    Each lookup runs in its own foreground-read submission lane; the
//    simulated SSD serializes a lane's read on channel
//    `queue % channels` only, so independent lookups overlap in virtual
//    time — Roh et al.'s observation (PAPERS.md) that read fan-out is
//    where SSD internal parallelism pays off most. read_queue_depth=1
//    IS the sequential-Get baseline, and one channel serializes any
//    depth, so row 1 and column 1 reproduce the old read path exactly.
//    Self-check: identical returned values in every cell, and the
//    channels=4 x read_queue_depth=8 cell strictly beats sequential.
//
// 2. Background-separation check — a compaction-heavy LSM write
//    workload run twice: once with compaction charged to the foreground
//    timeline (background_io=0, the PR 4 baseline) and once on a
//    dedicated background lane/queue (background_io=1). Foreground
//    commit time must fall strictly, while the device's total scheduled
//    backend work (programs + device GC + erases) is byte-driven and
//    must be conserved exactly — the interference moved, it didn't
//    disappear. Contents are checksummed equal.
//
//   ./build/micro_read
//   ./build/micro_read --smoke          # CI-sized, same self-checks
//   ./build/micro_read --keys=8192 --value-bytes=2048 --group=128
//
// Single-threaded and deterministic: every cell replays the same op
// stream, so cells differ only in the timing model.
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"
#include "flags.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
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
  uint64_t keys = 4096;        // loaded key count
  size_t value_bytes = 2048;   // value payload
  uint64_t reads = 8192;       // total point lookups per cell
  size_t group = 64;           // keys per MultiGet call
  uint64_t bg_puts = 6000;     // background-check write count
};

struct ReadCell {
  double device_ms = 0;
  uint32_t checksum = 0;  // statuses + returned values
};

// One sweep cell: load `keys` into an alog store, then issue `reads`
// uniform lookups in MultiGet groups. Only the read phase is timed.
ReadCell RunReadCell(const Flags& flags, int channels, int read_qd) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  cfg.channels = channels;
  // No write cache: irrelevant for the timed read phase, but it keeps
  // the load phase identical across cells.
  cfg.timing.cache_bytes = 0;
  ssd::SsdDevice ssd(cfg, &clock);
  fs::SimpleFs fs(&ssd, {});

  kv::EngineOptions options;
  options.engine = "alog";
  options.fs = &fs;
  options.clock = &clock;
  options.params = {{"segment_bytes", std::to_string(8 << 20)},
                    {"read_queue_depth", std::to_string(read_qd)}};
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  kv::WriteBatch batch;
  for (uint64_t id = 0; id < flags.keys; id++) {
    batch.Put(kv::MakeKey(id), kv::MakeValue(id * 31 + 7, flags.value_bytes));
    if (batch.Count() >= 64) {
      PTSB_CHECK_OK(store->Write(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) PTSB_CHECK_OK(store->Write(batch));
  PTSB_CHECK_OK(store->Flush());

  ReadCell r;
  const int64_t t0 = clock.NowNanos();
  std::vector<std::string> keys;
  std::vector<std::string_view> views;
  std::vector<std::string> values;
  uint64_t next = 0x9e3779b97f4a7c15ull;  // deterministic "uniform" stream
  for (uint64_t done = 0; done < flags.reads; done += flags.group) {
    keys.clear();
    for (size_t j = 0; j < flags.group; j++) {
      next = next * 6364136223846793005ull + 1442695040888963407ull;
      keys.push_back(kv::MakeKey((next >> 17) % flags.keys));
    }
    views.assign(keys.begin(), keys.end());
    const std::vector<Status> statuses = store->MultiGet(views, &values);
    for (size_t j = 0; j < statuses.size(); j++) {
      PTSB_CHECK_OK(statuses[j]);
      r.checksum = Crc32c(r.checksum, values[j].data(), values[j].size());
    }
  }
  r.device_ms = static_cast<double>(clock.NowNanos() - t0) / 1e6;
  PTSB_CHECK_OK(store->Close());
  return r;
}

struct BgRun {
  double foreground_ms = 0;   // clock at end of the write loop
  double settled_ms = 0;      // clock after settle + flush (joins bg)
  int64_t scheduled_busy_ns = 0;  // sum of per-channel backend work
  double background_share = 0;    // background class share of busy time
  uint32_t checksum = 0;
};

// The background-separation experiment: a compaction-heavy LSM write
// workload, identical in both modes down to the device command stream.
BgRun RunLsmWorkload(const Flags& flags, bool background_io) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  cfg.channels = 2;  // one foreground channel, one for maintenance
  cfg.timing.cache_bytes = 0;
  ssd::SsdDevice ssd(cfg, &clock);
  fs::SimpleFs fs(&ssd, {});

  kv::EngineOptions options;
  options.engine = "lsm";
  options.fs = &fs;
  options.clock = &clock;
  // Tiny structural sizes so compaction runs continuously.
  options.params = {{"memtable_bytes", std::to_string(64 << 10)},
                    {"l1_target_bytes", std::to_string(256 << 10)},
                    {"sst_target_bytes", std::to_string(128 << 10)},
                    {"background_io", background_io ? "1" : "0"}};
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  kv::WriteBatch batch;
  uint64_t next = 0xc0ffee;
  for (uint64_t i = 0; i < flags.bg_puts; i++) {
    next = next * 6364136223846793005ull + 1442695040888963407ull;
    batch.Clear();
    batch.Put(kv::MakeKey((next >> 11) % (flags.bg_puts / 4)),
              kv::MakeValue(i, 512));
    PTSB_CHECK_OK(store->Write(batch));
  }
  BgRun r;
  r.foreground_ms = static_cast<double>(clock.NowNanos()) / 1e6;

  // Settling and flushing wait the background horizon out, so the two
  // modes end with identical durable state.
  PTSB_CHECK_OK(store->SettleBackgroundWork());
  PTSB_CHECK_OK(store->Flush());
  r.settled_ms = static_cast<double>(clock.NowNanos()) / 1e6;

  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    r.checksum = Crc32c(r.checksum, it->key().data(), it->key().size());
    r.checksum = Crc32c(r.checksum, it->value().data(), it->value().size());
  }
  PTSB_CHECK_OK(it->status());
  PTSB_CHECK_OK(store->Close());

  int64_t class_total = 0, class_bg = 0;
  for (const auto& ch : ssd.channel_stats()) {
    r.scheduled_busy_ns += ch.scheduled_ns;
    for (int c = 0; c < sim::kNumIoClasses; c++) {
      class_total += ch.class_busy_ns[static_cast<size_t>(c)];
    }
    class_bg +=
        ch.class_busy_ns[static_cast<int>(sim::IoClass::kBackground)];
  }
  r.background_share = class_total > 0
                           ? static_cast<double>(class_bg) /
                                 static_cast<double>(class_total)
                           : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::FlagParser parser;
  parser.Value("--keys", &flags.keys, "loaded keys");
  parser.Value("--value-bytes", &flags.value_bytes, "value size in bytes");
  parser.Value("--reads", &flags.reads, "lookups per cell");
  parser.Value("--group", &flags.group, "keys per MultiGet");
  parser.Value("--bg-puts", &flags.bg_puts, "background-check writes");
  parser.Switch("--smoke", "CI-sized run, same self-checks", [&flags] {
    // Same sweep shape, ~10x less work.
    flags.keys = 1024;
    flags.value_bytes = 1024;
    flags.reads = 1024;
    flags.group = 32;
    flags.bg_puts = 1500;
  });
  parser.Parse(argc, argv);

  const int channel_axis[] = {1, 2, 4};
  const int depth_axis[] = {1, 2, 4, 8};

  std::printf(
      "micro_read: simulated device time (ms) of %llu uniform lookups "
      "(%zu-key MultiGets, %llu keys x %zu B, alog), by read_queue_depth "
      "(rows) x channels (columns)\n\n",
      static_cast<unsigned long long>(flags.reads), flags.group,
      static_cast<unsigned long long>(flags.keys), flags.value_bytes);
  std::printf("%-16s |", "read_queue_depth");
  for (const int ch : channel_axis) std::printf(" %4d ch ", ch);
  std::printf("\n");

  std::string csv = "read_queue_depth,channels,device_ms\n";
  bool checksums_agree = true;
  uint32_t baseline_sum = 0;
  double sequential_ms = 0, fanned_ms = 0;
  for (const int qd : depth_axis) {
    std::printf("%-16d |", qd);
    for (const int ch : channel_axis) {
      const ReadCell r = RunReadCell(flags, ch, qd);
      std::printf(" %7.1f ", r.device_ms);
      if (qd == 1 && ch == 1) {
        baseline_sum = r.checksum;
      } else if (r.checksum != baseline_sum) {
        checksums_agree = false;
      }
      if (qd == 1 && ch == 4) sequential_ms = r.device_ms;
      if (qd == 8 && ch == 4) fanned_ms = r.device_ms;
      csv += StrPrintf("%d,%d,%.3f\n", qd, ch, r.device_ms);
    }
    std::printf("\n");
  }

  // ---- Background-separation check (compaction-heavy LSM).
  const BgRun base = RunLsmWorkload(flags, /*background_io=*/false);
  const BgRun sep = RunLsmWorkload(flags, /*background_io=*/true);
  std::printf(
      "\nbackground separation (lsm, %llu puts, 2 channels):\n"
      "  foreground commit time: %8.1f ms -> %8.1f ms  (%.2fx lower)\n"
      "  settled total time:     %8.1f ms -> %8.1f ms\n"
      "  scheduled backend work: %8.1f ms -> %8.1f ms  (conserved)\n"
      "  background busy share:  %7.1f%% -> %7.1f%%\n",
      static_cast<unsigned long long>(flags.bg_puts), base.foreground_ms,
      sep.foreground_ms,
      sep.foreground_ms > 0 ? base.foreground_ms / sep.foreground_ms : 0.0,
      base.settled_ms, sep.settled_ms,
      static_cast<double>(base.scheduled_busy_ns) / 1e6,
      static_cast<double>(sep.scheduled_busy_ns) / 1e6,
      base.background_share * 100, sep.background_share * 100);
  csv += StrPrintf("background_io,foreground_ms,scheduled_busy_ms\n");
  csv += StrPrintf("0,%.3f,%.3f\n", base.foreground_ms,
                   static_cast<double>(base.scheduled_busy_ns) / 1e6);
  csv += StrPrintf("1,%.3f,%.3f\n", sep.foreground_ms,
                   static_cast<double>(sep.scheduled_busy_ns) / 1e6);

  const std::string csv_path = core::WriteResultsFile("micro_read.csv", csv);
  if (!csv_path.empty()) std::printf("written to %s\n", csv_path.c_str());

  // ---- Self-checks (the bench fails loudly instead of rotting).
  if (!checksums_agree) {
    std::printf("FAIL: returned values differ across cells\n");
    return 1;
  }
  if (fanned_ms >= sequential_ms) {
    std::printf("FAIL: MultiGet at read_queue_depth=8 x 4 channels "
                "(%.1f ms) did not beat sequential gets (%.1f ms)\n",
                fanned_ms, sequential_ms);
    return 1;
  }
  if (base.checksum != sep.checksum) {
    std::printf("FAIL: background separation changed store contents\n");
    return 1;
  }
  if (sep.foreground_ms >= base.foreground_ms) {
    std::printf("FAIL: background separation did not lower foreground "
                "commit time (%.1f ms vs %.1f ms)\n",
                sep.foreground_ms, base.foreground_ms);
    return 1;
  }
  if (sep.scheduled_busy_ns != base.scheduled_busy_ns) {
    std::printf("FAIL: scheduled backend work not conserved "
                "(%lld ns vs %lld ns) — background I/O must move, not "
                "vanish\n",
                static_cast<long long>(sep.scheduled_busy_ns),
                static_cast<long long>(base.scheduled_busy_ns));
    return 1;
  }
  std::printf(
      "OK: values identical in every cell; 4-channel qd=8 MultiGet is "
      "%.2fx faster than sequential gets; background separation lowers "
      "foreground time %.2fx at exactly conserved device work\n",
      sequential_ms / fanned_ms, base.foreground_ms / sep.foreground_ms);
  return 0;
}
