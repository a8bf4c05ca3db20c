// Configuration of the append-only log engine. Defaults mirror the other
// engines' paper-scale sizing (64 MiB structural units); experiment presets
// divide segment_bytes by the simulation scale factor.
#ifndef PTSB_ALOG_OPTIONS_H_
#define PTSB_ALOG_OPTIONS_H_

#include <cstdint>

#include "kv/params.h"

namespace ptsb::alog {

// The kv::CommonOptions fields apply as documented there. background_io
// moves segment GC off the commit path; compaction_parallelism fans a
// collection's per-value segment reads over that many lanes, while the
// rewrite record, sync and victim deletion stay ordered on lane 0.
struct AlogOptions : kv::CommonOptions {
  // The log engine does the least per-write work of the three engines: an
  // append plus one ordered-map update.
  AlogOptions() { cpu_put_ns = 5'000; }

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

  // CPU cost charged to the virtual clock per point read (0 if no clock).
  int64_t cpu_get_ns = 6'000;
};

// The alog engine params (see kv/params.h).
template <typename Options, typename Visit>
void ForEachParam(Options& o, Visit&& visit) {
  PTSB_PARAM(segment_bytes);
  PTSB_PARAM(gc_trigger);
  PTSB_PARAM(sync_every_bytes);
  kv::ForEachCommonParam(o, visit);
  PTSB_PARAM(cpu_get_ns);
}

}  // namespace ptsb::alog

#endif  // PTSB_ALOG_OPTIONS_H_
