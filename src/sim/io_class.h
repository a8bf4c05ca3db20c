// I/O classes: who a device command is doing work for. The paper's core
// argument is that tree structures must be judged by how their INTERNAL
// operations (compaction, checkpointing, GC) interfere with user reads and
// writes on flash — which requires the simulator to tell the three apart all
// the way down the stack. Every submission lane (sim::SimClock::BeginAsync)
// carries a class, fs writes and the engines' background lanes tag it, and
// ssd::SsdDevice accounts busy time and bytes per class per channel, so
// interference is measurable instead of folded into one timeline.
#ifndef PTSB_SIM_IO_CLASS_H_
#define PTSB_SIM_IO_CLASS_H_

namespace ptsb::sim {

enum class IoClass : int {
  kForegroundRead = 0,   // user point/range reads (Get, scans)
  kForegroundWrite = 1,  // user commits (WAL/journal appends, flushes)
  kBackground = 2,       // engine maintenance: compaction, checkpoint, GC
};

inline constexpr int kNumIoClasses = 3;

inline const char* IoClassName(IoClass c) {
  switch (c) {
    case IoClass::kForegroundRead:
      return "fg-read";
    case IoClass::kForegroundWrite:
      return "fg-write";
    case IoClass::kBackground:
      return "background";
  }
  return "?";
}

}  // namespace ptsb::sim

#endif  // PTSB_SIM_IO_CLASS_H_
