// A small pool of background submission lanes: an engine's background workers
// (compaction, checkpoint and GC threads). One engine owns one pool; lane i
// submits on queue `kBackgroundQueue + i`, so the simulated SSD maps
// concurrent background work to distinct flash channels
// ((kBackgroundQueue + i) % channels) and overlapped spans cost max, not sum,
// of their device time — partitioned subcompactions, fanned-out GC value
// reads and checkpoint block writes all ride on this.
//
// Each lane is serialized behind its own previous work via a per-lane
// horizon; the foreground clock does not advance while work runs, so
// user commit latency does not absorb the maintenance I/O. Barrier()
// orders later background work behind everything submitted so far
// WITHOUT advancing the foreground (a background-side dependency:
// install-after-all-subranges, delete-victim-after-all-reads). Join()
// advances the foreground to the pool's completion — the points where
// the user genuinely waits.
//
// A pool with one lane is one background worker, like a single
// compaction thread. With no clock — or on a thread already inside a
// submission lane, where a nested fork is impossible — Run degrades to
// running the work synchronously on the current timeline.
#ifndef PTSB_KV_BACKGROUND_POOL_H_
#define PTSB_KV_BACKGROUND_POOL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/status.h"

namespace ptsb::sim {
class SimClock;
}  // namespace ptsb::sim

namespace ptsb::kv {

// Outcome of one span of background work (BackgroundPool::Run).
struct BackgroundResult {
  Status status;
  int64_t busy_ns = 0;  // virtual time the background lane spent on it
};

// Queue of lane 0. Foreground commands run on queue 0, so with two or
// more channels background work lands on channels of its own.
inline constexpr uint32_t kBackgroundQueue = 1;

class BackgroundPool {
 public:
  // `lanes` must be >= 1. The pool does not own the clock.
  BackgroundPool(sim::SimClock* clock, int lanes);

  int lanes() const { return static_cast<int>(horizons_.size()); }

  // Runs `work` on lane `lane % lanes()`: a background-class submission
  // lane on queue kBackgroundQueue + lane, starting no earlier than the
  // lane's previous work finished. busy_ns is the virtual time the lane
  // spent (0 when the work ran synchronously on the current timeline).
  BackgroundResult Run(int lane, const std::function<Status()>& work);

  // Orders all future Run calls behind every lane's current horizon:
  // each lane's horizon becomes the pool-wide max. Purely
  // background-side — the foreground clock does not move.
  void Barrier();

  // Completion time of the pool: the max lane horizon.
  int64_t horizon_ns() const;

  // Advances the foreground clock to horizon_ns() — the explicit wait
  // at stalls, Flush/Close and SettleBackgroundWork.
  void Join();

 private:
  sim::SimClock* clock_;
  std::vector<int64_t> horizons_;
};

}  // namespace ptsb::kv

#endif  // PTSB_KV_BACKGROUND_POOL_H_
