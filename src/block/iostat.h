// iostat-equivalent: a pass-through decorator that counts host reads and
// writes at the block layer. The paper measures "device throughput" and
// "user-level write amplification" from these OS-level counters
// (Section 3.3, metrics ii and iii).
#ifndef PTSB_BLOCK_IOSTAT_H_
#define PTSB_BLOCK_IOSTAT_H_

#include <cstdint>
#include <mutex>

#include "block/block_device.h"

namespace ptsb::block {

// The IoCounters field table: one X(name) row per uint64_t counter; the
// members and operator- are generated from it.
#define PTSB_IO_COUNTERS_FIELDS(X) \
  X(read_ops)                      \
  X(read_bytes)                    \
  X(write_ops)                     \
  X(write_bytes)                   \
  X(trim_ops)                      \
  X(trim_bytes)                    \
  X(flushes)

struct IoCounters {
#define PTSB_IO_COUNTERS_MEMBER(name) uint64_t name = 0;
  PTSB_IO_COUNTERS_FIELDS(PTSB_IO_COUNTERS_MEMBER)
#undef PTSB_IO_COUNTERS_MEMBER

  IoCounters operator-(const IoCounters& o) const {
    IoCounters d;
#define PTSB_IO_COUNTERS_SUB(name) d.name = name - o.name;
    PTSB_IO_COUNTERS_FIELDS(PTSB_IO_COUNTERS_SUB)
#undef PTSB_IO_COUNTERS_SUB
    return d;
  }
};

class IoStatCollector : public BlockDevice {
 public:
  explicit IoStatCollector(BlockDevice* base) : base_(base) {}

  uint64_t lba_bytes() const override { return base_->lba_bytes(); }
  uint64_t num_lbas() const override { return base_->num_lbas(); }
  sim::SimClock* clock() const override { return base_->clock(); }

  Status Read(uint64_t lba, uint64_t count, uint8_t* dst) override {
    Status s = base_->Read(lba, count, dst);
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.read_ops++;
      counters_.read_bytes += count * lba_bytes();
    }
    return s;
  }

  Status Write(uint64_t lba, uint64_t count, const uint8_t* src) override {
    Status s = base_->Write(lba, count, src);
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.write_ops++;
      counters_.write_bytes += count * lba_bytes();
    }
    return s;
  }

  Status Trim(uint64_t lba, uint64_t count) override {
    Status s = base_->Trim(lba, count);
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.trim_ops++;
      counters_.trim_bytes += count * lba_bytes();
    }
    return s;
  }

  Status Flush() override {
    Status s = base_->Flush();
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.flushes++;
    }
    return s;
  }

  IoCounters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }
  void ResetCounters() {
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = IoCounters();
  }

 private:
  BlockDevice* base_;
  // Counter updates happen concurrently once the filesystem stops
  // serializing data I/O (concurrent write groups reach the block layer
  // in parallel); the base device's own lock does not cover this
  // decorator's counters.
  mutable std::mutex mu_;
  IoCounters counters_;
};

}  // namespace ptsb::block

#endif  // PTSB_BLOCK_IOSTAT_H_
