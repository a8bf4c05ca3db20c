// Virtual time. Every latency in the system (flash programs, GC, cache
// stalls, CPU cost per KV op) advances this clock, so experiments report
// "minutes" of device time while running in milliseconds of wall-clock.
//
// The counter is atomic so concurrent workers (the multi-threaded
// experiment driver) can charge time without a data race.
//
// Semantics under concurrency: the clock is a shared timeline that only
// moves forward. Plain Advance() calls from all threads sum (one
// serialized timeline), but work wrapped in a submission *lane*
// (BeginAsync/EndAsync below, used by fs::File's writes and by the
// engines' kv::BackgroundPool) joins back via AdvanceTo — a monotonic
// max — so N submissions issued from the same instant overlap in virtual
// time instead of serializing. This is how the simulated SSD models
// multi-queue/multi-channel parallelism (see docs/SIMULATION.md).
#ifndef PTSB_SIM_CLOCK_H_
#define PTSB_SIM_CLOCK_H_

#include <atomic>
#include <cstdint>

#include "sim/io_class.h"
#include "util/status.h"

namespace ptsb::sim {

constexpr int64_t kNanosPerMicro = 1000;
constexpr int64_t kNanosPerMilli = 1000 * 1000;
constexpr int64_t kNanosPerSecond = 1000 * 1000 * 1000;
constexpr int64_t kNanosPerMinute = 60 * kNanosPerSecond;

class SimClock {
 public:
  SimClock() = default;

  int64_t NowNanos() const {
    if (lane_.owner == this) return lane_.now_ns;
    return now_ns_.load(std::memory_order_relaxed);
  }
  double NowSeconds() const {
    return static_cast<double>(NowNanos()) / 1e9;
  }
  double NowMinutes() const { return NowSeconds() / 60.0; }

  // Advances time by a non-negative delta.
  void Advance(int64_t delta_ns);

  // Advances time to t if t is in the future; no-op otherwise.
  void AdvanceTo(int64_t t_ns);

  void Reset() { now_ns_.store(0, std::memory_order_relaxed); }

  // ---- Async submission lanes -----------------------------------------
  //
  // A lane is a thread-local fork of the timeline modeling one in-flight
  // async submission. While a lane is active on the calling thread,
  // NowNanos/Advance/AdvanceTo on THIS clock read and move the
  // lane-local time (seeded with the global time at BeginAsync) instead
  // of the shared counter; other threads are unaffected. EndAsync
  // returns the lane's completion timestamp WITHOUT touching the global
  // clock — the submission's Wait() joins it back with AdvanceTo. Lanes
  // submitted from the same global instant therefore overlap: waiting on
  // all of them costs max(lane times), not the sum.
  //
  // `queue` identifies the logical submission queue; ssd::SsdDevice maps
  // it to a flash channel (queue % channels) so distinct queues can
  // proceed on distinct per-channel busy-until timelines. `io_class`
  // tags the lane with who the work is for (foreground read/write or
  // engine-internal background maintenance); the device accounts busy
  // time and bytes per class per channel.

  // Starts a lane. Returns false if the thread is already inside a lane
  // (of any clock): the nested submission then simply runs within the
  // enclosing lane, and the caller must NOT call EndAsync.
  bool BeginAsync(uint32_t queue,
                  IoClass io_class = IoClass::kForegroundWrite);

  // Ends the active lane and returns its local completion time.
  int64_t EndAsync();

  // True if the calling thread is inside a lane of this clock.
  bool InAsync() const { return lane_.owner == this; }

  // Queue id of the calling thread's active lane (0 when none): the
  // device's channel selector.
  uint32_t AsyncQueue() const {
    return lane_.owner == this ? lane_.queue : 0;
  }

  // I/O class of the calling thread's active lane; `fallback` outside a
  // lane (the device passes the command's natural class: reads default
  // to kForegroundRead, writes to kForegroundWrite).
  IoClass ActiveIoClass(IoClass fallback) const {
    return lane_.owner == this ? lane_.io_class : fallback;
  }

 private:
  struct Lane {
    const SimClock* owner = nullptr;  // null = no lane active
    int64_t now_ns = 0;
    uint32_t queue = 0;
    IoClass io_class = IoClass::kForegroundWrite;
  };
  static thread_local Lane lane_;

  std::atomic<int64_t> now_ns_{0};
};

// Outcome of one lane submission: the op's status plus the virtual time
// its lane completed at (0 when no clock was involved).
struct LaneResult {
  Status status;
  int64_t complete_ns = 0;
};

// The lane protocol for a one-off submission (fs::File's Append and
// WriteAt): run `op` inside a lane on `clock` tagged with `queue` and
// `io_class` and capture its completion time. With no clock the op just
// runs; inside an enclosing lane the op charges that lane and
// "completes" at its current time (nesting collapses).
template <typename Op>
LaneResult RunInLane(SimClock* clock, uint32_t queue, IoClass io_class,
                     const Op& op) {
  LaneResult r;
  if (clock == nullptr || !clock->BeginAsync(queue, io_class)) {
    r.status = op();
    r.complete_ns = clock != nullptr ? clock->NowNanos() : 0;
    return r;
  }
  r.status = op();
  r.complete_ns = clock->EndAsync();
  return r;
}

// Converts a byte count and a bandwidth (bytes/s) into nanoseconds.
int64_t BytesToNanos(uint64_t bytes, double bytes_per_second);

}  // namespace ptsb::sim

#endif  // PTSB_SIM_CLOCK_H_
