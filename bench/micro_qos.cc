// micro_qos: the QoS frontier of the simulated SSD's inter-class
// scheduler, on a compaction-heavy LSM workload. One flash channel, no
// write cache, background_io=1: every user commit's WAL append contends
// with compaction directly at the device, so foreground tail latency is
// at the mercy of background span scheduling — exactly the knob the
// per-channel QoS scheduler (SsdConfig::background_slice_ns /
// class_weights / background_rate_mbps) exists to turn.
//
// Cells (identical op stream; only the SSD scheduler config differs):
//   off        no QoS knobs — the FIFO baseline
//   slice=S    background preempted every S us (sweep, tightening)
//   +weights   slice + 4:4:1 service weights (background interleaves)
//   +rate=R    slice + token-bucket admission at R MB/s (sweep, lower)
//
// Self-checks (the bench exits non-zero instead of rotting):
//   - store contents byte-identical in every cell (scheduling must not
//     change WHAT is written, only WHEN),
//   - per-class scheduled backend work conserved EXACTLY across cells
//     (it is a pure function of the command byte stream),
//   - foreground p99 commit latency strictly decreases as the slice
//     tightens (the latency half of the frontier),
//   - settled time strictly increases as the admission rate drops (the
//     background-throughput half of the frontier),
//   - the no-knob cell reproduces the pre-QoS FIFO device exactly: a
//     repeat run is nanosecond-identical and reports zero preemptions,
//     zero throttle time and zero scheduler wait.
//
//   ./build/micro_qos
//   ./build/micro_qos --smoke        # CI-sized, same self-checks
//   ./build/micro_qos --puts=20000 --value-bytes=1024
//
// Single-threaded and deterministic.
#include <algorithm>
#include <array>
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
#include "sim/io_class.h"
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

struct QosSetting {
  const char* label;
  int64_t slice_us = 0;
  double rate_mbps = 0;
  std::array<int, sim::kNumIoClasses> weights{};
};

struct QosCell {
  int64_t foreground_ns = 0;  // clock at end of the commit loop
  int64_t settled_ns = 0;     // after SettleBackgroundWork + Flush
  double p50_us = 0;          // exact (sorted), not histogram buckets
  double p99_us = 0;
  double max_us = 0;
  // Channel counters summed over channels (scheduled_ns is backend work,
  // backlog included).
  ssd::SsdDevice::ChannelStats device;
  uint32_t checksum = 0;
};

// One cell: the fixed LSM workload under one SSD scheduler setting.
QosCell RunCell(const Flags& flags, const QosSetting& qos) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  // ONE channel and no write cache: user WAL appends (fg-write class,
  // queue 0) and compaction (background class, queue 1) serialize on
  // the same backend timeline, so inter-class scheduling is the whole
  // story. The cache would hide the contention behind async drains.
  cfg.channels = 1;
  cfg.timing.cache_bytes = 0;
  cfg.background_slice_ns = qos.slice_us * 1000;
  cfg.background_rate_mbps = qos.rate_mbps;
  cfg.class_weights = qos.weights;
  ssd::SsdDevice ssd(cfg, &clock);
  fs::SimpleFs fs(&ssd, {});

  kv::EngineOptions options;
  options.engine = "lsm";
  options.fs = &fs;
  options.clock = &clock;
  // Tiny structural sizes keep compaction running continuously; the
  // stall trigger is parked high so no commit ever joins the background
  // horizon — measured latency is pure device-level scheduling. WAL
  // sync on every record makes each commit a synchronous device write,
  // the latency-sensitive foreground a QoS scheduler serves.
  options.params = {{"memtable_bytes", std::to_string(32 << 10)},
                    {"l1_target_bytes", std::to_string(256 << 10)},
                    {"sst_target_bytes", std::to_string(128 << 10)},
                    {"l0_stall_trigger", "1000"},
                    // Batch compaction pacing into long bursts so the
                    // booked background periods span multiple quanta at
                    // every slice setting in the sweep.
                    {"compaction_work_per_user_write", "1024"},
                    {"wal_sync_every_bytes", "1"},
                    {"background_io", "1"}};
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
    batch.Put(kv::MakeKey((next >> 11) % (flags.puts / 4)),
              kv::MakeValue(i, flags.value_bytes));
    const int64_t t0 = clock.NowNanos();
    PTSB_CHECK_OK(store->Write(batch));
    latencies.push_back(clock.NowNanos() - t0);
  }
  QosCell r;
  r.foreground_ns = clock.NowNanos();

  PTSB_CHECK_OK(store->SettleBackgroundWork());
  PTSB_CHECK_OK(store->Flush());
  r.settled_ns = clock.NowNanos();

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
  r.max_us = static_cast<double>(latencies.back()) / 1000.0;

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

  // The slice sweep (tightening) and the admission-rate sweep (lowering)
  // trace the two halves of the latency-vs-throughput frontier.
  const QosSetting settings[] = {
      {"off", 0, 0, {}},
      {"slice=800us", 800, 0, {}},
      {"slice=200us", 200, 0, {}},
      {"slice=50us", 50, 0, {}},
      {"slice=200us w=4:4:1", 200, 0, {4, 4, 1}},
      {"slice=200us rate=60", 200, 60, {}},
      {"slice=200us rate=20", 200, 20, {}},
  };
  constexpr size_t kOff = 0;
  constexpr size_t kSliceFirst = 1;  // 1..3: the tightening slice sweep
  constexpr size_t kSliceLast = 3;
  constexpr size_t kSliceMid = 2;    // rate/weight cells reuse this slice
  constexpr size_t kWeights = 4;
  constexpr size_t kRateFirst = 5;   // 5..6: the lowering rate sweep
  constexpr size_t kRateLast = 6;

  std::printf(
      "micro_qos: %llu LSM commits (%zu B values) vs continuous "
      "compaction on ONE channel, by SSD scheduler setting\n\n",
      static_cast<unsigned long long>(flags.puts), flags.value_bytes);
  std::printf("%-22s %9s %9s %11s %11s %8s %10s\n", "setting", "p50(us)",
              "p99(us)", "fg(ms)", "settled(ms)", "preempt", "thrtl(ms)");

  std::vector<QosCell> cells;
  std::string csv =
      "setting,slice_us,rate_mbps,p50_us,p99_us,foreground_ms,settled_ms,"
      "preemptions,bg_throttled_ms\n";
  for (const QosSetting& s : settings) {
    const QosCell r = RunCell(flags, s);
    cells.push_back(r);
    std::printf("%-22s %9.1f %9.1f %11.2f %11.2f %8llu %10.2f\n", s.label,
                r.p50_us, r.p99_us, static_cast<double>(r.foreground_ns) / 1e6,
                static_cast<double>(r.settled_ns) / 1e6,
                static_cast<unsigned long long>(r.device.preemptions),
                static_cast<double>(r.device.bg_throttled_ns) / 1e6);
    csv += StrPrintf("%s,%lld,%.0f,%.3f,%.3f,%.3f,%.3f,%llu,%.3f\n", s.label,
                     static_cast<long long>(s.slice_us), s.rate_mbps, r.p50_us,
                     r.p99_us, static_cast<double>(r.foreground_ns) / 1e6,
                     static_cast<double>(r.settled_ns) / 1e6,
                     static_cast<unsigned long long>(r.device.preemptions),
                     static_cast<double>(r.device.bg_throttled_ns) / 1e6);
  }
  const std::string csv_path = core::WriteResultsFile("micro_qos.csv", csv);
  if (!csv_path.empty()) std::printf("written to %s\n", csv_path.c_str());

  // ---- Self-checks.
  // 1. Scheduling must not change contents.
  for (size_t i = 0; i < cells.size(); i++) {
    if (cells[i].checksum != cells[kOff].checksum) {
      std::printf("FAIL: cell \"%s\" changed store contents\n",
                  settings[i].label);
      return 1;
    }
  }
  // 2. Per-class scheduled backend work is a pure function of the
  // command byte stream — conserved exactly, cell by cell, class by
  // class.
  for (size_t i = 0; i < cells.size(); i++) {
    if (cells[i].device.scheduled_ns != cells[kOff].device.scheduled_ns ||
        cells[i].device.class_scheduled_ns !=
            cells[kOff].device.class_scheduled_ns) {
      std::printf("FAIL: cell \"%s\" did not conserve scheduled backend "
                  "work (%lld ns vs %lld ns) — the scheduler may move "
                  "work, never create or destroy it\n",
                  settings[i].label,
                  static_cast<long long>(cells[i].device.scheduled_ns),
                  static_cast<long long>(cells[kOff].device.scheduled_ns));
      return 1;
    }
  }
  // 3. The latency half of the frontier: tighter slice -> strictly
  // lower foreground p99 (off counts as the loosest slice).
  for (size_t i = kSliceFirst; i <= kSliceLast; i++) {
    if (cells[i].p99_us >= cells[i - 1].p99_us) {
      std::printf("FAIL: fg p99 not strictly decreasing: \"%s\" %.1f us "
                  ">= \"%s\" %.1f us\n",
                  settings[i].label, cells[i].p99_us, settings[i - 1].label,
                  cells[i - 1].p99_us);
      return 1;
    }
    if (cells[i].device.preemptions == 0) {
      std::printf("FAIL: cell \"%s\" recorded no preemptions\n",
                  settings[i].label);
      return 1;
    }
  }
  // 4. The throughput half: lower admission rate -> strictly later
  // background completion (settled time), with real throttle time.
  for (size_t i = kRateFirst; i <= kRateLast; i++) {
    const size_t prev = (i == kRateFirst) ? kSliceMid : i - 1;
    if (cells[i].settled_ns <= cells[prev].settled_ns) {
      std::printf("FAIL: settled time not strictly increasing as the "
                  "admission rate drops: \"%s\" %.2f ms <= \"%s\" %.2f ms\n",
                  settings[i].label,
                  static_cast<double>(cells[i].settled_ns) / 1e6,
                  settings[prev].label,
                  static_cast<double>(cells[prev].settled_ns) / 1e6);
      return 1;
    }
    if (cells[i].device.bg_throttled_ns == 0) {
      std::printf("FAIL: cell \"%s\" recorded no throttle time\n",
                  settings[i].label);
      return 1;
    }
  }
  // 5. Weighted interleave must charge the foreground for background
  // grants (class_wait on fg-write exceeds the unweighted cell's).
  if (cells[kWeights].device.class_wait_ns[static_cast<size_t>(
          sim::IoClass::kForegroundWrite)] <=
      cells[2].device.class_wait_ns[static_cast<size_t>(
          sim::IoClass::kForegroundWrite)]) {
    std::printf("FAIL: 4:4:1 weights did not add interleaved background "
                "service to foreground windows\n");
    return 1;
  }
  // 6. No knobs = the pre-QoS FIFO device, reproduced exactly: the
  // scheduler counters stay zero and a repeat run is ns-identical.
  if (cells[kOff].device.preemptions != 0 ||
      cells[kOff].device.bg_throttled_ns != 0 ||
      cells[kOff].device.class_wait_ns !=
          std::array<int64_t, sim::kNumIoClasses>{}) {
    std::printf("FAIL: QoS counters moved with no QoS knobs set\n");
    return 1;
  }
  const QosCell again = RunCell(flags, settings[kOff]);
  if (again.foreground_ns != cells[kOff].foreground_ns ||
      again.settled_ns != cells[kOff].settled_ns ||
      again.checksum != cells[kOff].checksum) {
    std::printf("FAIL: default (no QoS) run is not reproducible to the "
                "nanosecond (fg %lld vs %lld)\n",
                static_cast<long long>(again.foreground_ns),
                static_cast<long long>(cells[kOff].foreground_ns));
    return 1;
  }
  std::printf(
      "OK: contents identical and per-class scheduled work conserved in "
      "all %zu cells; fg p99 %.1f -> %.1f us as the slice tightens "
      "(%llu preemptions at the tightest); settled time %.2f -> %.2f ms "
      "as admission drops; no-knob cell reproduces FIFO exactly\n",
      cells.size(), cells[kOff].p99_us, cells[kSliceLast].p99_us,
      static_cast<unsigned long long>(cells[kSliceLast].device.preemptions),
      static_cast<double>(cells[kSliceMid].settled_ns) / 1e6,
      static_cast<double>(cells[kRateLast].settled_ns) / 1e6);
  return 0;
}
