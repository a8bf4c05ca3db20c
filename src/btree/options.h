// Configuration of the B+Tree engine. Defaults mirror the WiredTiger setup
// of the paper: 32 KiB leaf pages, 4 KiB internal pages, a small page
// cache (10 MiB in the paper), journaling disabled (WiredTiger's standalone
// default), periodic checkpoints for durability.
#ifndef PTSB_BTREE_OPTIONS_H_
#define PTSB_BTREE_OPTIONS_H_

#include <cstdint>

#include "kv/params.h"

namespace ptsb::btree {

// The kv::CommonOptions fields apply as documented there. background_io
// moves paced checkpoints off the commit path (the explicit Flush/Close
// checkpoints still run, and are waited out, on the foreground: the user
// asked for durability there); compaction_parallelism fans a checkpoint's
// dirty-node block writes over that many lanes, while the free-list
// blob, header and journal rotation stay ordered on lane 0.
struct BTreeOptions : kv::CommonOptions {
  // The paper observes WiredTiger is partially CPU/synchronization-bound.
  BTreeOptions() { cpu_put_ns = 400'000; }

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

  // CPU cost per point read charged to the virtual clock.
  int64_t cpu_get_ns = 150'000;
};

// The btree engine params (see kv/params.h).
template <typename Options, typename Visit>
void ForEachParam(Options& o, Visit&& visit) {
  PTSB_PARAM(leaf_max_bytes);
  PTSB_PARAM(internal_max_bytes);
  PTSB_PARAM(cache_bytes);
  PTSB_PARAM(checkpoint_every_bytes);
  PTSB_PARAM(journal_enabled);
  PTSB_PARAM(journal_sync_every_bytes);
  PTSB_PARAM(reuse_freed_blocks);
  PTSB_PARAM(file_grow_bytes);
  kv::ForEachCommonParam(o, visit);
  PTSB_PARAM(cpu_get_ns);
}

}  // namespace ptsb::btree

#endif  // PTSB_BTREE_OPTIONS_H_
