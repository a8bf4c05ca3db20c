// micro_async: simulated device time of a cross-shard batched write
// workload as a function of queue_depth x channels — the VIRTUAL-time
// counterpart of micro_sharded's wall-clock sweep, and the bench behind
// the async-submission item on the ROADMAP (Roh et al.'s internal
// parallelism, PAPERS.md). The sharded store commits each batch's
// per-shard sub-batches through KVStore::WriteAsync with at most
// queue_depth in flight; the simulated SSD serializes queue q on channel
// q % channels. One channel or queue_depth=1 reproduces the serialized
// single-server device; more of both lets the sub-commits overlap in
// virtual time, so the same workload finishes in less simulated device
// time with IDENTICAL final contents (checksummed across all cells).
//
//   ./build/micro_async
//   ./build/micro_async --batches=2000 --batch=64 --value-bytes=1024
//
// Single-threaded and deterministic: the sweep replays the exact same
// op stream into every cell, so cells differ only in the timing model.
#include <cstdio>
#include <memory>
#include <string>
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
  uint64_t batches = 512;
  size_t batch = 32;           // entries per WriteBatch
  size_t value_bytes = 4000;   // paper-sized values: program time matters
  uint64_t key_space = 4096;   // ids cycled through by the put stream
  int shards = 8;
};

struct CellResult {
  double device_ms = 0;              // final virtual time
  uint32_t checksum = 0;             // CRC32C over the final contents
  std::vector<double> utilization;   // per-channel busy fraction
};

CellResult RunCell(const Flags& flags, int channels, int queue_depth) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  cfg.channels = channels;
  // No write cache: host writes are synchronous with the channel backend,
  // so channel overlap (not cache absorption) is what the sweep measures
  // — the worst case for a serialized device and the best showcase for
  // multi-queue submission.
  cfg.timing.cache_bytes = 0;
  ssd::SsdDevice ssd(cfg, &clock);
  fs::SimpleFs fs(&ssd, {});

  kv::EngineOptions options;
  options.engine = "sharded";
  options.fs = &fs;
  options.clock = &clock;
  options.params = {{"shards", std::to_string(flags.shards)},
                    {"inner_engine", "alog"},
                    {"segment_bytes", std::to_string(4 << 20)},
                    {"queue_depth", std::to_string(queue_depth)}};
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  kv::WriteBatch batch;
  uint64_t next_id = 0;
  for (uint64_t b = 0; b < flags.batches; b++) {
    batch.Clear();
    for (size_t i = 0; i < flags.batch; i++) {
      const uint64_t id = next_id++ % flags.key_space;
      batch.Put(kv::MakeKey(id), kv::MakeValue(b ^ id, flags.value_bytes));
    }
    PTSB_CHECK_OK(store->Write(batch));
  }
  PTSB_CHECK_OK(store->Flush());

  CellResult r;
  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    r.checksum = Crc32c(r.checksum, it->key().data(), it->key().size());
    r.checksum = Crc32c(r.checksum, it->value().data(), it->value().size());
  }
  PTSB_CHECK_OK(it->status());
  PTSB_CHECK_OK(store->Close());

  const int64_t total_ns = clock.NowNanos();
  r.device_ms = static_cast<double>(total_ns) / 1e6;
  for (const auto& ch : ssd.channel_stats()) {
    r.utilization.push_back(total_ns > 0
                                ? static_cast<double>(ch.busy_ns) /
                                      static_cast<double>(total_ns)
                                : 0.0);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::FlagParser parser;
  parser.Value("--batches", &flags.batches, "write batches per cell");
  parser.Value("--batch", &flags.batch, "entries per WriteBatch");
  parser.Value("--value-bytes", &flags.value_bytes, "value size in bytes");
  parser.Value("--shards", &flags.shards, "sharded store width");
  parser.Value("--key-space", &flags.key_space, "distinct keys cycled through");
  parser.Switch("--smoke", "CI-sized run, same self-checks", [&flags] {
    // Same sweep shape, ~10x less work.
    flags.batches = 96;
    flags.batch = 16;
    flags.value_bytes = 1024;
    flags.key_space = 512;
  });
  parser.Parse(argc, argv);

  const int channel_axis[] = {1, 2, 4, 8};
  const int depth_axis[] = {1, 2, 4, 8};

  std::printf(
      "micro_async: simulated device time (ms) of %llu batches x %zu "
      "entries x %zu B values through sharded(%dx alog), by queue_depth "
      "(rows) x channels (columns)\n\n",
      static_cast<unsigned long long>(flags.batches), flags.batch,
      flags.value_bytes, flags.shards);
  std::printf("%-12s |", "queue_depth");
  for (const int ch : channel_axis) std::printf(" %4d ch ", ch);
  std::printf("\n");

  std::string csv = "queue_depth,channels,device_ms,mean_utilization\n";
  bool checksums_agree = true;
  uint32_t baseline_sum = 0;
  double serialized_ms = 0, overlapped_ms = 0;
  std::vector<double> best_util;
  for (const int qd : depth_axis) {
    std::printf("%-12d |", qd);
    for (const int ch : channel_axis) {
      const CellResult r = RunCell(flags, ch, qd);
      std::printf(" %7.1f ", r.device_ms);
      if (qd == 1 && ch == 1) {
        baseline_sum = r.checksum;
        serialized_ms = r.device_ms;
      } else if (r.checksum != baseline_sum) {
        checksums_agree = false;
      }
      if (qd == 8 && ch == 4) {
        overlapped_ms = r.device_ms;
        best_util = r.utilization;
      }
      double util_sum = 0;
      for (const double u : r.utilization) util_sum += u;
      csv += StrPrintf("%d,%d,%.3f,%.4f\n", qd, ch, r.device_ms,
                       util_sum / static_cast<double>(r.utilization.size()));
    }
    std::printf("\n");
  }

  std::printf("\nper-channel utilization at queue_depth=8, channels=4:");
  for (size_t c = 0; c < best_util.size(); c++) {
    std::printf(" ch%zu=%.1f%%", c, best_util[c] * 100);
  }
  std::printf("\n");

  const std::string csv_path = core::WriteResultsFile("micro_async.csv", csv);
  if (!csv_path.empty()) std::printf("written to %s\n", csv_path.c_str());

  // Self-check: identical contents everywhere, and the multi-channel
  // async run strictly beats the serialized single-channel run.
  if (!checksums_agree) {
    std::printf("FAIL: final store contents differ across cells\n");
    return 1;
  }
  if (overlapped_ms >= serialized_ms) {
    std::printf("FAIL: queue_depth=8 x 4 channels (%.1f ms) did not beat "
                "the serialized run (%.1f ms)\n",
                overlapped_ms, serialized_ms);
    return 1;
  }
  std::printf("OK: contents identical in every cell; 4-channel qd=8 run is "
              "%.2fx faster in simulated device time than serialized\n",
              serialized_ms / overlapped_ms);
  return 0;
}
