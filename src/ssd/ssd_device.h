// SsdDevice: a simulated flash SSD behind the BlockDevice interface.
//
// It combines:
//  - the FTL (mapping + garbage collection, from which WA-D emerges),
//  - a sparse content store keyed by *logical* page (GC moves no data),
//  - a timing model: host-interface transfer, per-command ack latency,
//    a write-back cache that drains into flash at the program bandwidth,
//    and N per-channel "backend" timelines shared by programs and GC
//    relocations (config.channels; one channel = the single serialized
//    server of the original model). A command issued on submission queue
//    q (sim::SimClock::AsyncQueue, the queue of the submitting lane)
//    serializes on channel q % channels only, so lanes on distinct
//    channels overlap in virtual time. When the cache is full,
//    host writes stall until the backend catches up — reproducing the
//    sustained-write cliff and the bursty stalls of consumer drives
//    (paper Sections 4.1 and 4.7),
//  - SMART-style counters (host vs NAND bytes written) used to measure
//    device write amplification exactly as the paper does.
#ifndef PTSB_SSD_SSD_DEVICE_H_
#define PTSB_SSD_SSD_DEVICE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "block/block_device.h"
#include "sim/clock.h"
#include "sim/io_class.h"
#include "ssd/config.h"
#include "ssd/ftl.h"

namespace ptsb::ssd {

// SMART-like attribute snapshot.
struct SmartCounters {
  uint64_t host_bytes_written = 0;
  uint64_t host_bytes_read = 0;
  uint64_t nand_bytes_written = 0;
  uint64_t blocks_erased = 0;
  uint64_t pages_trimmed = 0;

  // Cumulative device write amplification (paper Section 2.2.3).
  double WaD() const {
    if (host_bytes_written == 0) return 1.0;
    return static_cast<double>(nand_bytes_written) /
           static_cast<double>(host_bytes_written);
  }
};

class SsdDevice : public block::BlockDevice {
 public:
  SsdDevice(const SsdConfig& config, sim::SimClock* clock);
  ~SsdDevice() override;

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  // BlockDevice interface.
  uint64_t lba_bytes() const override { return config_.geometry.page_bytes; }
  uint64_t num_lbas() const override {
    return config_.geometry.LogicalPages();
  }
  sim::SimClock* clock() const override { return clock_; }
  Status Read(uint64_t lba, uint64_t count, uint8_t* dst) override;
  Status Write(uint64_t lba, uint64_t count, const uint8_t* src) override;
  Status Trim(uint64_t lba, uint64_t count) override;
  Status Flush() override;

  SmartCounters smart() const {
    std::lock_guard<std::mutex> lock(mu_);
    return smart_;
  }
  const FlashTranslationLayer& ftl() const { return *ftl_; }
  const SsdConfig& config() const { return config_; }

  // Dynamic state for diagnostics.
  struct CacheState {
    uint64_t occupancy_bytes = 0;
    int64_t backend_lag_ns = 0;  // how far the busiest channel is behind
  };

  // Cumulative virtual time charged by category (diagnostics).
  struct TimeBreakdown {
    int64_t read_ns = 0;
    int64_t read_interference_ns = 0;
    int64_t write_host_ns = 0;   // ack + bus transfer
    int64_t write_stall_ns = 0;  // cache-full waits
    uint64_t read_commands = 0;
    uint64_t write_commands = 0;
  };
  TimeBreakdown time_breakdown() const {
    std::lock_guard<std::mutex> lock(mu_);
    return times_;
  }
  CacheState GetCacheState() const;

  // Per-channel accounting, for the per-channel utilization report:
  // busy_ns is the backend time the channel has actually spent busy as
  // of now (programs and GC relocations; scheduled work that has
  // not elapsed yet — backlog past the current clock — is excluded, so
  // busy_ns / elapsed virtual time is a true utilization <= 1).
  // commands counts backend work items enqueued.
  //
  // scheduled_ns is the CUMULATIVE backend work ever scheduled on the
  // channel, backlog included. Unlike busy_ns it is a pure function of
  // the command byte stream — independent of submission timing, queues
  // and lanes — so two runs of the same logical workload must agree on
  // it exactly even when their foreground/background scheduling differs
  // (the conservation checks of BackgroundIoTest in
  // tests/engine_differential_test.cc and of
  // SubcompactionChannelTest.DrainSpeedsUpWithLanesTimesChannels in
  // tests/subcompaction_test.cc).
  //
  // The per-class arrays (indexed by sim::IoClass) attribute the
  // channel's occupancy to who submitted it: backend work (programs and
  // GC) plus read occupancy, bytes moved, and commands, per class.
  // Device-internal GC triggered by a host write is charged to that
  // write's class (it inflates that command's channel time).
  // class_busy_ns is backlog-adjusted like busy_ns (the unserved backend
  // tail is deducted from the backend classes pro rata; read occupancy
  // is always fully elapsed, since every read is waited out), so the
  // per-class values are true utilizations and sum to at most the
  // elapsed backend + read busy time. class_scheduled_ns is the per-class
  // split of scheduled_ns (backlog included: a pure function of the
  // command byte stream, like scheduled_ns).
  struct ChannelStats {
    int64_t busy_ns = 0;
    uint64_t commands = 0;
    int64_t scheduled_ns = 0;
    std::array<int64_t, sim::kNumIoClasses> class_busy_ns{};
    std::array<uint64_t, sim::kNumIoClasses> class_bytes{};
    std::array<uint64_t, sim::kNumIoClasses> class_commands{};
    std::array<int64_t, sim::kNumIoClasses> class_scheduled_ns{};

    // Field-wise sum (per-class arrays element by element): the device
    // total over channels.
    ChannelStats& operator+=(const ChannelStats& o) {
      const auto add = [](auto& into, const auto& from) {
        for (size_t c = 0; c < into.size(); c++) into[c] += from[c];
      };
      busy_ns += o.busy_ns;
      commands += o.commands;
      scheduled_ns += o.scheduled_ns;
      add(class_busy_ns, o.class_busy_ns);
      add(class_bytes, o.class_bytes);
      add(class_commands, o.class_commands);
      add(class_scheduled_ns, o.class_scheduled_ns);
      return *this;
    }
  };
  int num_channels() const { return static_cast<int>(channels_.size()); }
  std::vector<ChannelStats> channel_stats() const;

  // Memory actually allocated for page contents (diagnostics).
  uint64_t ContentMemoryBytes() const;

 private:
  // One flash channel: an independent backend busy-until timeline (for
  // programs and GC), an independent READ busy-until timeline (the
  // channel's read pipeline: reads submitted concurrently to the same
  // channel serialize on it, reads on distinct channels overlap — for
  // synchronous callers, who always wait each read out, it never moves
  // past the clock, so the pre-async timing is reproduced exactly), and
  // cumulative accounting, total and per I/O class.
  struct Channel {
    int64_t busy_until_ns = 0;
    int64_t busy_ns = 0;  // cumulative scheduled backend work
    uint64_t commands = 0;
    int64_t read_busy_until_ns = 0;
    // Backend (programs and GC, scheduled) and read-pipeline
    // occupancy, separately per class: reads carry no backlog, so the
    // backlog adjustment in channel_stats() applies to the backend
    // share only.
    std::array<int64_t, sim::kNumIoClasses> class_backend_ns{};
    std::array<int64_t, sim::kNumIoClasses> class_read_ns{};
    std::array<uint64_t, sim::kNumIoClasses> class_bytes{};
    std::array<uint64_t, sim::kNumIoClasses> class_commands{};
  };

  void CopyIn(uint64_t lpn, const uint8_t* src);
  void CopyOut(uint64_t lpn, uint8_t* dst) const;
  uint8_t* ChunkFor(uint64_t lpn, bool create);

  // The channel the current command serializes on: the active submission
  // lane's queue id mod channels (queue 0 — and thus channel 0 — for
  // synchronous callers outside any lane).
  Channel& ActiveChannel();

  // Timing helpers.
  void DrainCache(int64_t now_ns);
  // Blocks (advances the current timeline) until `bytes` fit in the cache.
  void WaitForCacheSpace(uint64_t bytes, Channel* channel);
  // Appends backend work to `channel`, booked FIFO at
  // max(now, busy_until); `cached_bytes` > 0 ties a cache entry to its
  // completion. `cls`/`bytes` feed the per-class accounting.
  void EnqueueBackend(Channel* channel, int64_t cost_ns,
                      uint64_t cached_bytes, sim::IoClass cls,
                      uint64_t bytes);
  int64_t BackendBacklogNanos(const Channel& channel) const;

  SsdConfig config_;
  sim::SimClock* clock_;
  // The device's command-processing lock: Read/Write/Trim/Flush bodies
  // and the snapshot accessors serialize here (the firmware command
  // queue). The filesystem above takes no lock for data I/O — two files'
  // commands contend only at this point, never on an fs-wide mutex.
  // Virtual-time lane state lives in the clock (atomic / thread-local),
  // so holding mu_ across clock calls is safe; lock order is
  // SimpleFs::mu_ -> this (never the reverse).
  mutable std::mutex mu_;
  std::unique_ptr<FlashTranslationLayer> ftl_;

  // Sparse content store: fixed-size chunks of pages, allocated on first
  // data write. A chunk left null reads as zeros.
  static constexpr uint64_t kPagesPerChunk = 256;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;

  // Write-back cache: (backend completion time, bytes), ordered by
  // completion time (a min-heap — with multiple channels, completions
  // are not FIFO across channels).
  using CacheEntry = std::pair<int64_t, uint64_t>;
  std::priority_queue<CacheEntry, std::vector<CacheEntry>,
                      std::greater<CacheEntry>>
      cache_;
  uint64_t cache_occupancy_ = 0;
  std::vector<Channel> channels_;

  SmartCounters smart_;
  TimeBreakdown times_;
};

}  // namespace ptsb::ssd

#endif  // PTSB_SSD_SSD_DEVICE_H_
