// Configuration of the append-only log engine. Defaults mirror the other
// engines' paper-scale sizing (64 MiB structural units); experiment presets
// divide segment_bytes by the simulation scale factor.
#ifndef PTSB_ALOG_OPTIONS_H_
#define PTSB_ALOG_OPTIONS_H_

#include <cstdint>

#include "sim/clock.h"

namespace ptsb::alog {

struct AlogOptions {
  // Target size of one segment file; the active segment is sealed and a
  // new one started once its payload reaches this.
  uint64_t segment_bytes = 64ull << 20;

  // Garbage collection starts when dead bytes across sealed segments
  // exceed this fraction of their total payload. The collector rewrites
  // the coldest (highest dead-ratio) segments until back under trigger.
  // Independently of the ratio, GC also runs whenever the filesystem is
  // nearly full, since a too-lazy trigger would otherwise run the store
  // out of space while holding reclaimable bytes.
  double gc_trigger = 0.5;

  // Explicit segment sync cadence. 0 = never sync explicitly (full
  // filesystem pages still reach the device as they fill, and the
  // buffered tail is lost on crash, like an unsynced WAL).
  uint64_t sync_every_bytes = 0;

  // CPU cost charged to the virtual clock per operation (0 if no clock).
  // The log engine does the least per-write work of the three engines: an
  // append plus one ordered-map update.
  int64_t cpu_put_ns = 5'000;
  int64_t cpu_get_ns = 6'000;

  // Cap on the merged byte size of one cross-thread commit group: a
  // leader folds waiting writers' batches into a single appended record
  // up to this many payload bytes (its own batch always commits
  // regardless). See kv::WriteGroup.
  uint64_t max_write_group_bytes = 1ull << 20;

  // Run segment GC on the engine's background submission lane (queue
  // `kv::kBackgroundQueue`, I/O class kBackground) instead of the user's
  // timeline: commits no longer absorb GC device time; Flush, Close and
  // SettleBackgroundWork wait it out explicitly. Off by default (the
  // paper's baseline).
  bool background_io = false;

  // Partitioned background GC: with background_io and a clock, a
  // collection's per-value segment reads are fanned across this many
  // background submission lanes (queue kv::kBackgroundQueue + i) via a
  // kv::BackgroundPool, so the reads overlap across SSD channels. The
  // rewrite record, sync and victim deletion stay on lane 0 (ordering
  // is unchanged). 1 = today's single-lane behavior. The name matches
  // the LSM engine's knob so one driver param reaches every engine.
  int compaction_parallelism = 1;

  // Optional virtual clock for CPU accounting (device time is charged by
  // the device itself).
  sim::SimClock* clock = nullptr;
};

}  // namespace ptsb::alog

#endif  // PTSB_ALOG_OPTIONS_H_
