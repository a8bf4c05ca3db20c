// Configuration of the LSM engine. Defaults correspond to the RocksDB
// setup the paper benchmarks (64 MiB memtables, leveled compaction with
// size ratio 10, WAL on); experiment presets divide the structural sizes by
// the simulation scale factor.
#ifndef PTSB_LSM_OPTIONS_H_
#define PTSB_LSM_OPTIONS_H_

#include <cstdint>

#include "sim/clock.h"

namespace ptsb::lsm {

struct LsmOptions {
  // Memtable (write buffer) capacity.
  uint64_t memtable_bytes = 64ull << 20;

  // Number of L0 files that triggers an L0->L1 compaction.
  int l0_compaction_trigger = 4;
  // Number of L0 files at which user writes stall until compaction
  // catches up (RocksDB's stop-writes trigger).
  int l0_stall_trigger = 12;

  // Target size of L1; level i+1 targets level_size_ratio x level i.
  uint64_t l1_target_bytes = 256ull << 20;
  double level_size_ratio = 10.0;
  int max_levels = 7;

  // Target size of one SST file.
  uint64_t sst_target_bytes = 64ull << 20;
  // Data block size within an SST.
  uint64_t block_bytes = 4096;
  // Bloom filter bits per key (0 disables blooms).
  int bloom_bits_per_key = 10;

  // Write-ahead log. RocksDB's default: WAL written on every put, synced
  // only periodically (here: never synced explicitly unless
  // wal_sync_every_bytes > 0; full pages still reach the device through
  // the filesystem as they fill).
  bool wal_enabled = true;
  uint64_t wal_sync_every_bytes = 0;
  uint64_t wal_buffer_bytes = 64 << 10;

  // Compaction/flush readahead (RocksDB uses 2 MiB by default).
  uint64_t compaction_readahead_bytes = 256 << 10;

  // How many bytes of pending compaction work to process per user write
  // (models the background compaction pool's share of the device). The
  // paper's single-user-thread workload leaves CPUs idle, so compaction
  // pacing is I/O-bound.
  uint64_t compaction_work_per_user_write = 16;  // multiplier on user bytes

  // Bytes of compaction input processed per pacing slice: each stall
  // check steps the running compaction by this budget, and drains use
  // 8x it. Step boundaries do not change the device command stream
  // (I/O is driven by iterator span loads and builder buffer flushes),
  // so this knob trades scheduling granularity, not timing accuracy.
  uint64_t compaction_budget_bytes = 8ull << 20;

  // Partitioned subcompactions: a picked compaction is split into up to
  // this many disjoint key subranges, each merged by its own job on its
  // own background submission lane (queue kv::kBackgroundQueue + i), so
  // reads and writes from different subranges overlap across SSD
  // channels. All subranges install as ONE atomic VersionSet edit.
  // 1 = today's single-job behavior, byte for byte. Only takes effect
  // with background_io and a clock (there is no overlap to win
  // otherwise).
  int compaction_parallelism = 1;

  // CPU cost charged to the virtual clock per operation (0 if no clock).
  int64_t cpu_put_ns = 8'000;
  int64_t cpu_get_ns = 10'000;

  // Cap on the merged byte size of one cross-thread commit group: a
  // leader folds waiting writers' batches into a single WAL record up to
  // this many payload bytes (its own batch always commits regardless).
  // Larger groups amortize record framing further but lengthen the
  // latency of the unluckiest follower.
  uint64_t max_write_group_bytes = 1ull << 20;

  // Run paced compaction on the engine's background submission lane
  // (queue `kv::kBackgroundQueue`, I/O class kBackground) instead of the
  // user's timeline: commits no longer absorb compaction device time,
  // which instead surfaces as background-channel utilization and — at
  // the L0 stall trigger, Flush and SettleBackgroundWork, where the user
  // genuinely waits — as an explicit join. Off by default: the paper's
  // baseline charges compaction to the foreground, and the PR 4 async
  // write path measured it that way.
  bool background_io = false;

  // Optional virtual clock for CPU accounting (device time is charged by
  // the device itself).
  sim::SimClock* clock = nullptr;
};

}  // namespace ptsb::lsm

#endif  // PTSB_LSM_OPTIONS_H_
