// Configuration of the LSM engine. Defaults correspond to the RocksDB
// setup the paper benchmarks (64 MiB memtables, leveled compaction with
// size ratio 10, WAL on); experiment presets divide the structural sizes by
// the simulation scale factor.
#ifndef PTSB_LSM_OPTIONS_H_
#define PTSB_LSM_OPTIONS_H_

#include <cstdint>

#include "kv/params.h"

namespace ptsb::lsm {

// Fixed shape of the tree (RocksDB's defaults, which the paper runs).
inline constexpr int kMaxLevels = 7;
// Bloom filter bits per key.
inline constexpr int kBloomBitsPerKey = 10;
// Bytes of compaction input processed per pacing slice: each stall check
// steps the running compaction by this budget, and drains use 8x it.
// Step boundaries do not change the device command stream (I/O is driven
// by iterator span loads and builder buffer flushes), so this sets
// scheduling granularity, not timing accuracy.
inline constexpr uint64_t kCompactionBudgetBytes = 8ull << 20;

// The kv::CommonOptions fields (clock, cpu_put_ns, background_io,
// compaction_parallelism) apply as documented there. background_io moves
// paced compaction off the commit path; compaction_parallelism splits a
// picked compaction into up to that many disjoint key subranges, each
// merged on its own lane and installed as ONE atomic VersionSet edit.
struct LsmOptions : kv::CommonOptions {
  LsmOptions() { cpu_put_ns = 8'000; }

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

  // Target size of one SST file.
  uint64_t sst_target_bytes = 64ull << 20;
  // Data block size within an SST.
  uint64_t block_bytes = 4096;

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

  // CPU cost charged to the virtual clock per point read (0 if no clock).
  int64_t cpu_get_ns = 10'000;
};

// The lsm engine params (see kv/params.h).
template <typename Options, typename Visit>
void ForEachParam(Options& o, Visit&& visit) {
  PTSB_PARAM(memtable_bytes);
  PTSB_PARAM(l0_compaction_trigger);
  PTSB_PARAM(l0_stall_trigger);
  PTSB_PARAM(l1_target_bytes);
  PTSB_PARAM(level_size_ratio);
  PTSB_PARAM(sst_target_bytes);
  PTSB_PARAM(block_bytes);
  PTSB_PARAM(wal_enabled);
  PTSB_PARAM(wal_sync_every_bytes);
  PTSB_PARAM(wal_buffer_bytes);
  PTSB_PARAM(compaction_readahead_bytes);
  PTSB_PARAM(compaction_work_per_user_write);
  kv::ForEachCommonParam(o, visit);
  PTSB_PARAM(cpu_get_ns);
}

}  // namespace ptsb::lsm

#endif  // PTSB_LSM_OPTIONS_H_
