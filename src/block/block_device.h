// The block layer: what the filesystem sees. LBAs are page-sized (4 KiB),
// matching the direct-I/O granularity the paper's setup uses.
#ifndef PTSB_BLOCK_BLOCK_DEVICE_H_
#define PTSB_BLOCK_BLOCK_DEVICE_H_

#include <cstdint>

#include "util/status.h"

namespace ptsb::sim {
class SimClock;
}  // namespace ptsb::sim

namespace ptsb::block {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint64_t lba_bytes() const = 0;
  virtual uint64_t num_lbas() const = 0;
  uint64_t capacity_bytes() const { return lba_bytes() * num_lbas(); }

  // Virtual clock this device charges latencies to; nullptr for untimed
  // devices (MemoryBlockDevice). Decorators forward to the base device.
  virtual sim::SimClock* clock() const { return nullptr; }

  // Reads `count` LBAs starting at `lba` into dst (count * lba_bytes bytes).
  virtual Status Read(uint64_t lba, uint64_t count, uint8_t* dst) = 0;

  // Writes `count` LBAs. src may be nullptr, meaning "don't care" payload
  // (used by preconditioning; reads of such LBAs return zeros).
  virtual Status Write(uint64_t lba, uint64_t count, const uint8_t* src) = 0;

  // Discards `count` LBAs (blkdiscard / TRIM).
  virtual Status Trim(uint64_t lba, uint64_t count) = 0;

  // Device cache flush command.
  virtual Status Flush() = 0;
};

}  // namespace ptsb::block

#endif  // PTSB_BLOCK_BLOCK_DEVICE_H_
