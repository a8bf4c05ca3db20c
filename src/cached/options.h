// Configuration of the cached front end: a flash-aware write buffer +
// read cache wrapped around one inner engine (any kv::EngineRegistry name
// except "cached" itself). The wrapper absorbs and coalesces mutations in
// memory, keeps them crash-durable in its own append-only log, and flushes
// them to the inner engine as large group-commit batches — so the inner
// structure sees fewer, bigger, flash-friendlier writes than the user
// issued. Structural options of the inner engine pass through the param
// map untouched.
#ifndef PTSB_CACHED_OPTIONS_H_
#define PTSB_CACHED_OPTIONS_H_

#include <cstdint>
#include <string>

#include "sim/clock.h"

namespace ptsb::cached {

struct CachedOptions {
  // Registry name of the engine the wrapper composes over ("lsm",
  // "btree", "alog", "sharded", or any out-of-tree registration).
  // Nesting "cached" is rejected.
  std::string inner_engine = "lsm";

  // Write-buffer capacity: the in-memory map of buffered mutations
  // (last-write-wins per key, tombstones retained) grows to this many
  // key+value bytes before a flush pushes it back down to
  // flush_watermark * write_buffer_bytes.
  uint64_t write_buffer_bytes = 4 << 20;

  // Read-cache capacity in key+value bytes, sitting UNDER the write
  // buffer: lookups that miss the buffer probe the cache before paying
  // the inner engine's read path. 0 disables the cache entirely.
  uint64_t read_cache_bytes = 8 << 20;

  // Eviction policy of the read cache: "lru" (classic recency list) or
  // "2q" (scan-resistant two-queue: one full iterator pass cannot evict
  // the hot working set, because only re-referenced keys are promoted to
  // the long-lived queue).
  std::string read_cache_policy = "2q";

  // Fraction of write_buffer_bytes a flush drains the buffer down to.
  // Flushing to a watermark rather than to empty keeps the hottest
  // (largest-coalesced) entries buffered, where they keep absorbing
  // rewrites; the flush victims are the entries that coalesced the least.
  // Must be in (0, 1].
  double flush_watermark = 0.5;

  // Cap on the merged byte size of one cross-thread commit group: a
  // leader folds waiting writers' batches into a single durability-log
  // record up to this many payload bytes (its own batch always commits
  // regardless). See kv::WriteGroup.
  uint64_t max_write_group_bytes = 1ull << 20;

  // Explicit sync cadence of the wrapper's durability log. 0 = never sync
  // explicitly (full filesystem pages still reach the device as they
  // fill; the buffered log tail is lost on crash, like an unsynced WAL);
  // 1 makes every Write crash-durable the moment it returns.
  uint64_t log_sync_every_bytes = 0;

  // Run buffer flushes on the wrapper's background submission lane (queue
  // `background_queue`, I/O class kBackground) instead of the user's
  // timeline: commits no longer absorb flush device time; Flush, Close
  // and SettleBackgroundWork wait it out explicitly. The param also
  // passes through to the inner engine, so one flag moves the whole
  // stack's maintenance off the commit path. Off by default (the paper's
  // baseline).
  bool background_io = false;

  // Optional virtual clock for time accounting (device time is charged by
  // the device itself).
  sim::SimClock* clock = nullptr;
  // Submission queue for WriteAsync/ReadAsync (see kv::EngineOptions).
  uint32_t io_queue = 0;
  // Submission queue for the background flush lane (see kv::EngineOptions).
  uint32_t background_queue = 1;
};

}  // namespace ptsb::cached

#endif  // PTSB_CACHED_OPTIONS_H_
