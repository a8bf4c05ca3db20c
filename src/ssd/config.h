// Geometry and timing parameters of the simulated flash SSD.
#ifndef PTSB_SSD_CONFIG_H_
#define PTSB_SSD_CONFIG_H_

#include <cstdint>
#include <string>


namespace ptsb::ssd {

// Flash geometry. "Logical" is the host-visible LBA space; "physical" adds
// the hardware over-provisioning the vendor ships (Section 2.2.2 of the
// paper: "SSD manufacturers always over-provision SSDs by a certain
// amount").
struct FlashGeometry {
  uint64_t page_bytes = 4096;
  uint64_t pages_per_block = 256;
  uint64_t logical_bytes = 4ull << 30;  // host-visible capacity

  // Extra physical capacity as a fraction of logical capacity.
  double hardware_op_frac = 0.12;

  // GC starts when free blocks drop below this fraction of physical blocks
  // and runs until it climbs back above 2x the threshold.
  double gc_low_watermark_frac = 0.02;

  uint64_t LogicalPages() const { return logical_bytes / page_bytes; }
  uint64_t BlockBytes() const { return page_bytes * pages_per_block; }
  uint64_t PhysicalBlocks() const {
    const double physical_bytes =
        static_cast<double>(logical_bytes) * (1.0 + hardware_op_frac);
    return static_cast<uint64_t>(physical_bytes / static_cast<double>(BlockBytes()));
  }
  uint64_t PhysicalPages() const { return PhysicalBlocks() * pages_per_block; }
};

// Timing model. The flash backend (programs and GC relocations) is a single
// server whose busy time is tracked on the virtual clock; block erases
// cost no backend time, since vendor sustained-write bandwidth specs
// already absorb them (parallel dies). The write-back
// cache acks host writes quickly until it fills, after which host writes
// stall on the backend drain — this is the mechanism behind the SSD2 stall
// behavior in Fig. 10 of the paper.
struct SsdTiming {
  // Host interface (bus) bandwidth for transfers into the device cache.
  double host_write_bw = 1.8e9;  // bytes/s
  // Latency to acknowledge one host write command once cache space exists.
  // Models the per-command overhead that penalizes small synchronous writes.
  int64_t write_ack_latency_ns = 20'000;
  // Flash program (drain) bandwidth: how fast cache contents reach flash.
  double program_bw = 550e6;  // bytes/s
  // Read latency (per command) and bandwidth.
  int64_t read_latency_ns = 90'000;
  double read_bw = 2.1e9;  // bytes/s
  // Flash read bandwidth used by GC relocations.
  double gc_read_bw = 2.1e9;
  // Write-back cache capacity. 0 disables the cache (every write goes at
  // program_bw directly).
  uint64_t cache_bytes = 256ull << 20;
  // FLUSH/FUA command latency.
  int64_t flush_latency_ns = 20'000;
  // Fraction of the backend backlog that delays a host read (reads are
  // prioritized over programs, but not perfectly).
  double read_interference = 0.05;
};

struct SsdConfig {
  std::string name = "ssd";
  FlashGeometry geometry;
  SsdTiming timing;
  // Number of concurrently-open host blocks, filled round-robin per page.
  // Models die-level striping: consecutive host writes land in different
  // erase blocks, so each block mixes data written over a longer time
  // span (and therefore with different lifetimes). This mixing is what
  // makes log-structured writers still incur device GC (paper Section
  // 4.2's counterintuitive WA-D ~2 for RocksDB).
  int host_open_blocks = 8;

  // Number of independent flash channels, each with its own busy-until
  // timeline (host ack/transfer + program/GC backend). A command issued
  // on submission queue q serializes only on channel q % channels, so
  // submission lanes on distinct channels overlap in virtual time — the
  // device-internal parallelism of Roh et al. (see PAPERS.md and
  // docs/SIMULATION.md). Synchronous callers (no submission lane) always
  // use channel 0, so channels = 1 reproduces the single-server model
  // exactly.
  int channels = 1;
};

}  // namespace ptsb::ssd

#endif  // PTSB_SSD_CONFIG_H_
