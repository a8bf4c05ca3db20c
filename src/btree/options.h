// Configuration of the B+Tree engine. Defaults mirror the WiredTiger setup
// of the paper: 32 KiB leaf pages, 4 KiB internal pages, a small page
// cache (10 MiB in the paper), journaling disabled (WiredTiger's standalone
// default), periodic checkpoints for durability.
#ifndef PTSB_BTREE_OPTIONS_H_
#define PTSB_BTREE_OPTIONS_H_

#include <cstdint>

#include "sim/clock.h"

namespace ptsb::btree {

struct BTreeOptions {
  uint64_t leaf_max_bytes = 32 << 10;
  uint64_t internal_max_bytes = 4 << 10;

  // Page cache for leaves; internal pages are pinned in memory (as
  // WiredTiger effectively retains the internal tree of an active table).
  uint64_t cache_bytes = 10 << 20;

  // Checkpoint after this many bytes of user writes (the durability knob;
  // WiredTiger defaults to time-based checkpoints, which a byte budget
  // approximates in virtual time).
  uint64_t checkpoint_every_bytes = 256ull << 20;

  // Write-ahead journal (WiredTiger standalone runs without logging; this
  // matches the paper's configuration when false).
  bool journal_enabled = false;
  uint64_t journal_sync_every_bytes = 0;  // 0: rely on page-fill writes

  // Block manager: reuse freed blocks (copy-on-write within the file,
  // keeping a compact LBA footprint). false = append-only growth
  // (ablation for the Fig. 4 LBA-locality analysis).
  bool reuse_freed_blocks = true;
  // File growth chunk when the free list cannot satisfy an allocation.
  uint64_t file_grow_bytes = 16 << 20;

  // CPU cost per op charged to the virtual clock (the paper observes
  // WiredTiger is partially CPU/synchronization-bound).
  int64_t cpu_put_ns = 400'000;
  int64_t cpu_get_ns = 150'000;

  // Cap on the merged byte size of one cross-thread commit group: a
  // leader folds waiting writers' batches into a single journal record
  // up to this many payload bytes (its own batch always commits
  // regardless). See kv::WriteGroup.
  uint64_t max_write_group_bytes = 1ull << 20;

  // Run paced checkpoints on the engine's background submission lane
  // (queue `kv::kBackgroundQueue`, I/O class kBackground) instead of the
  // user's timeline: commits no longer absorb checkpoint device time.
  // The explicit Flush/Close checkpoints still run (and are waited out)
  // on the foreground — the user asked for durability there. Off by
  // default (the paper's baseline).
  bool background_io = false;

  // Partitioned paced checkpoints: with background_io and a clock, a
  // checkpoint's dirty-node block writes are fanned across this many
  // background submission lanes (queue kv::kBackgroundQueue + i) via a
  // kv::BackgroundPool, so the writes overlap across SSD channels. The
  // free-list blob, header and journal rotation stay ordered on lane 0
  // (crash-safety order unchanged). 1 = today's single-lane behavior.
  // The name matches the LSM engine's knob so one driver param reaches
  // every engine.
  int compaction_parallelism = 1;

  sim::SimClock* clock = nullptr;
};

}  // namespace ptsb::btree

#endif  // PTSB_BTREE_OPTIONS_H_
