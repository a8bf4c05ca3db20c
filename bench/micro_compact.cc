// micro_compact: partitioned subcompactions (LsmOptions::
// compaction_parallelism) against the simulated SSD's channel count. The
// LSM engine splits each picked compaction into K disjoint key subranges
// and runs each in its own background submission lane (queue
// kv::kBackgroundQueue + i); lane i lands on channel
// (kv::kBackgroundQueue + i) % channels, so with enough channels the subranges' device time overlaps
// and the drain settles earlier. With one channel the lanes fold back
// onto one backend timeline and K buys nothing — the win is K x channels,
// not K.
//
// Two regimes over one identical op stream:
//   deferred   compaction_work_per_user_write=0: commits leave all
//              compaction debt behind, SettleBackgroundWork drains it in
//              one go — the settle time IS the compaction wall time, the
//              cleanest view of K x channels overlap.
//   paced      the usual per-commit pacing: compaction runs during the
//              commit loop, where with K=4 on 4 channels lane 3 shares
//              the foreground's channel (the p99 column shows the
//              commit tail that costs).
//
// Self-checks (the bench exits non-zero instead of rotting):
//   - store contents byte-identical in every cell (splitting a compaction
//     must not change WHAT is written, only WHEN),
//   - scheduled backend work conserved EXACTLY across same-K same-pacing
//     cells (it is a pure function of the command byte stream; channels
//     only move it in time) — across K it legitimately differs
//     (subrange seam re-reads, extra output-file framing),
//   - settle time strictly falls as K x channels grows, with
//     settle(K=1)/settle(K=4) >= 1.5 on four channels,
//   - K=4 on ONE channel settles no sooner than K=4 on four (the speedup
//     is channel overlap, not an accounting artifact),
//   - K=1 (one lane: one job per compaction) is deterministic: a repeat
//     run is nanosecond-identical.
//
//   ./build/micro_compact
//   ./build/micro_compact --smoke        # CI-sized, same self-checks
//   ./build/micro_compact --puts=20000 --value-bytes=1024
//
// Single-threaded and deterministic.
#include <algorithm>
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
  uint64_t puts = 8000;       // user commits per cell
  size_t value_bytes = 1024;  // value payload
};

struct CompactSetting {
  const char* label;
  int parallelism;
  uint32_t channels;
  uint64_t pacing;  // compaction_work_per_user_write (0 = deferred)
};

struct CompactCell {
  int64_t foreground_ns = 0;  // clock at end of the commit loop
  int64_t settled_ns = 0;     // after SettleBackgroundWork + Flush
  int64_t settle_ns = 0;      // settled - foreground: the drain's wall time
  double p50_us = 0;          // exact (sorted), not histogram buckets
  double p99_us = 0;
  // Channel counters summed over channels (scheduled_ns is backend work,
  // backlog included).
  ssd::SsdDevice::ChannelStats device;
  uint32_t checksum = 0;
};

// One cell: the fixed LSM workload under one (K, channels, pacing)
// point.
CompactCell RunCell(const Flags& flags, const CompactSetting& s) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  cfg.channels = s.channels;
  // No write cache: programs are synchronous with the channel backend,
  // so channel overlap (or the lack of it) shows directly in the clock.
  cfg.timing.cache_bytes = 0;
  ssd::SsdDevice ssd(cfg, &clock);
  fs::SimpleFs fs(&ssd, {});

  kv::EngineOptions options;
  options.engine = "lsm";
  options.fs = &fs;
  options.clock = &clock;
  // Structural sizes differ by regime (logical contents don't, so the
  // checksum check still spans all cells). Deferred cells keep input
  // files several readahead spans long: a subrange then covers multiple
  // span reads per input, which is what channel overlap compresses
  // (each subjob pays one fixed seek read per input — with single-span
  // files that fixed cost times K would swamp the win; real
  // subcompactions split large inputs). Paced cells use tiny sizes
  // instead: continuous small compactions whose booked bursts collide
  // with foreground syncs. The stall trigger is parked high in both so
  // no commit ever joins the background horizon.
  const bool paced = s.pacing != 0;
  const uint64_t memtable = paced ? (32 << 10) : (256 << 10);
  const uint64_t l1_target = paced ? (256 << 10) : (1 << 20);
  const uint64_t sst_target = paced ? (128 << 10) : (512 << 10);
  const uint64_t readahead = paced ? (32 << 10) : (64 << 10);
  options.params = {{"memtable_bytes", std::to_string(memtable)},
                    {"l1_target_bytes", std::to_string(l1_target)},
                    {"sst_target_bytes", std::to_string(sst_target)},
                    {"l0_stall_trigger", "1000"},
                    {"compaction_work_per_user_write",
                     std::to_string(s.pacing)},
                    {"compaction_readahead_bytes", std::to_string(readahead)},
                    {"wal_sync_every_bytes", "1"},
                    {"background_io", "1"},
                    {"compaction_parallelism", std::to_string(s.parallelism)}};
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  std::vector<int64_t> latencies;
  latencies.reserve(flags.puts);
  kv::WriteBatch batch;
  uint64_t next = 0xc0ffee;
  for (uint64_t i = 0; i < flags.puts; i++) {
    next = next * 6364136223846793005ull + 1442695040888963407ull;
    batch.Clear();
    batch.Put(kv::MakeKey((next >> 11) % flags.puts),
              kv::MakeValue(i, flags.value_bytes));
    const int64_t t0 = clock.NowNanos();
    PTSB_CHECK_OK(store->Write(batch));
    latencies.push_back(clock.NowNanos() - t0);
  }
  CompactCell r;
  r.foreground_ns = clock.NowNanos();

  PTSB_CHECK_OK(store->SettleBackgroundWork());
  PTSB_CHECK_OK(store->Flush());
  PTSB_CHECK_OK(store->SettleBackgroundWork());
  r.settled_ns = clock.NowNanos();
  r.settle_ns = r.settled_ns - r.foreground_ns;

  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    r.checksum = Crc32c(r.checksum, it->key().data(), it->key().size());
    r.checksum = Crc32c(r.checksum, it->value().data(), it->value().size());
  }
  PTSB_CHECK_OK(it->status());
  PTSB_CHECK_OK(store->Close());

  std::sort(latencies.begin(), latencies.end());
  const auto at = [&](uint64_t permille) {
    const size_t idx = std::min(latencies.size() - 1,
                                latencies.size() * permille / 1000);
    return static_cast<double>(latencies[idx]) / 1000.0;
  };
  r.p50_us = at(500);
  r.p99_us = at(990);

  for (const auto& ch : ssd.channel_stats()) r.device += ch;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::FlagParser parser;
  parser.Value("--puts", &flags.puts, "user commits per cell");
  parser.Value("--value-bytes", &flags.value_bytes, "value size in bytes");
  parser.Switch("--smoke", "CI-sized run, same self-checks", [&flags] {
    // Same cells, ~4x less work.
    flags.puts = 2000;
  });
  parser.Parse(argc, argv);

  constexpr uint64_t kPaced = 1024;
  const CompactSetting settings[] = {
      {"K=1 ch=1 deferred", 1, 1, 0},
      {"K=1 ch=4 deferred", 1, 4, 0},
      {"K=2 ch=4 deferred", 2, 4, 0},
      {"K=4 ch=4 deferred", 4, 4, 0},
      {"K=4 ch=1 deferred", 4, 1, 0},
      {"K=4 ch=4 paced", 4, 4, kPaced},
  };
  constexpr size_t kSerial1ch = 0;
  constexpr size_t kBaseline = 1;  // 1..3: the K x channels growth chain
  constexpr size_t kTarget = 3;    // K=4 on 4 channels
  constexpr size_t kNoChannels = 4;

  std::printf(
      "micro_compact: %llu LSM commits (%zu B values), partitioned "
      "subcompactions by K x channels\n\n",
      static_cast<unsigned long long>(flags.puts), flags.value_bytes);
  std::printf("%-22s %9s %9s %11s %11s %12s\n", "setting", "p50(us)",
              "p99(us)", "fg(ms)", "settle(ms)", "sched(ms)");

  std::vector<CompactCell> cells;
  std::string csv =
      "setting,parallelism,channels,pacing,p50_us,p99_us,"
      "foreground_ms,settled_ms,settle_ms,scheduled_ms\n";
  for (const CompactSetting& s : settings) {
    const CompactCell r = RunCell(flags, s);
    cells.push_back(r);
    std::printf("%-22s %9.1f %9.1f %11.2f %11.2f %12.2f\n", s.label,
                r.p50_us, r.p99_us, static_cast<double>(r.foreground_ns) / 1e6,
                static_cast<double>(r.settle_ns) / 1e6,
                static_cast<double>(r.device.scheduled_ns) / 1e6);
    csv += StrPrintf("%s,%d,%u,%llu,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
                     s.label, s.parallelism, s.channels,
                     static_cast<unsigned long long>(s.pacing), r.p50_us,
                     r.p99_us, static_cast<double>(r.foreground_ns) / 1e6,
                     static_cast<double>(r.settled_ns) / 1e6,
                     static_cast<double>(r.settle_ns) / 1e6,
                     static_cast<double>(r.device.scheduled_ns) / 1e6);
  }
  const std::string csv_path =
      core::WriteResultsFile("micro_compact.csv", csv);
  if (!csv_path.empty()) std::printf("written to %s\n", csv_path.c_str());

  // ---- Self-checks.
  // 1. Splitting a compaction must not change contents.
  for (size_t i = 0; i < cells.size(); i++) {
    if (cells[i].checksum != cells[kSerial1ch].checksum) {
      std::printf("FAIL: cell \"%s\" changed store contents\n",
                  settings[i].label);
      return 1;
    }
  }
  // 2. Scheduled backend work is a pure function of the command byte
  // stream: conserved exactly across channel counts for a fixed
  // (K, pacing). (Across K it differs legitimately — each
  // subrange's first span re-reads past the seam, and more output files
  // mean more index/footer framing — so cross-K equality is NOT
  // asserted.)
  const size_t same_stream[][2] = {{kSerial1ch, kBaseline},
                                   {kTarget, kNoChannels}};
  for (const auto& pair : same_stream) {
    if (cells[pair[1]].device.scheduled_ns !=
        cells[pair[0]].device.scheduled_ns) {
      std::printf(
          "FAIL: \"%s\" did not conserve scheduled backend work vs "
          "\"%s\" (%lld ns vs %lld ns) — channels may move work, "
          "never create or destroy it\n",
          settings[pair[1]].label, settings[pair[0]].label,
          static_cast<long long>(cells[pair[1]].device.scheduled_ns),
          static_cast<long long>(cells[pair[0]].device.scheduled_ns));
      return 1;
    }
  }
  // 3. Settle time strictly falls as K x channels grows
  // (1x4 -> 2x4 -> 4x4; serial is channel-blind, so 1x1 = 1x4).
  for (size_t i = kBaseline + 1; i <= kTarget; i++) {
    if (cells[i].settle_ns >= cells[i - 1].settle_ns) {
      std::printf("FAIL: settle time not strictly falling: \"%s\" %.2f ms "
                  ">= \"%s\" %.2f ms\n",
                  settings[i].label,
                  static_cast<double>(cells[i].settle_ns) / 1e6,
                  settings[i - 1].label,
                  static_cast<double>(cells[i - 1].settle_ns) / 1e6);
      return 1;
    }
  }
  // 4. The headline target: K=4 on four channels drains the deferred
  // debt >= 1.5x faster than the serial compactor on the same device.
  const double speedup = static_cast<double>(cells[kBaseline].settle_ns) /
                         static_cast<double>(cells[kTarget].settle_ns);
  if (speedup < 1.5) {
    std::printf("FAIL: K=4 on 4 channels drains only %.2fx faster than "
                "K=1 (target >= 1.5x)\n", speedup);
    return 1;
  }
  // 5. K without channels must not help: the win is overlap across
  // channel timelines, not a bookkeeping artifact of splitting.
  if (cells[kNoChannels].settle_ns <= cells[kTarget].settle_ns) {
    std::printf("FAIL: K=4 on ONE channel drained faster (%.2f ms) than "
                "K=4 on four (%.2f ms)\n",
                static_cast<double>(cells[kNoChannels].settle_ns) / 1e6,
                static_cast<double>(cells[kTarget].settle_ns) / 1e6);
    return 1;
  }
  // 6. K=1 (one lane, one job per compaction) is deterministic: a repeat
  // run is nanosecond-identical.
  const CompactCell again = RunCell(flags, settings[kBaseline]);
  if (again.foreground_ns != cells[kBaseline].foreground_ns ||
      again.settled_ns != cells[kBaseline].settled_ns ||
      again.device.scheduled_ns != cells[kBaseline].device.scheduled_ns ||
      again.checksum != cells[kBaseline].checksum) {
    std::printf("FAIL: K=1 baseline is not reproducible to the nanosecond "
                "(settled %lld vs %lld)\n",
                static_cast<long long>(again.settled_ns),
                static_cast<long long>(cells[kBaseline].settled_ns));
    return 1;
  }
  std::printf(
      "OK: contents identical in all %zu cells and scheduled work "
      "conserved per (K, pacing); settle %.2f -> %.2f ms as K x channels "
      "grows (%.2fx at K=4 on 4 channels, target 1.5x); K=4 on one "
      "channel drains in %.2f ms (no channel overlap, no win)\n",
      cells.size(), static_cast<double>(cells[kBaseline].settle_ns) / 1e6,
      static_cast<double>(cells[kTarget].settle_ns) / 1e6, speedup,
      static_cast<double>(cells[kNoChannels].settle_ns) / 1e6);
  return 0;
}
