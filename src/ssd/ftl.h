// Page-mapped flash translation layer. This is deliberately a *metadata only*
// model: it tracks logical-to-physical mappings, per-block valid counts,
// free blocks, and garbage-collection work, but stores no data (page
// contents live in SsdDevice's content store, keyed by logical address, so
// GC relocations cost simulated time but no memory traffic).
//
// Device-level write amplification (WA-D), the central metric of the paper,
// is *emergent* here: it is nand_pages_written / host_pages_written, where
// nand writes include GC relocations.
#ifndef PTSB_SSD_FTL_H_
#define PTSB_SSD_FTL_H_

#include <cstdint>
#include <vector>

#include "ssd/config.h"
#include "util/status.h"

namespace ptsb::ssd {

// InvalidArgument unless `geometry` can back a drive: it has pages, and
// its physical blocks cover the logical ones plus four spare blocks for
// the open and GC blocks. The FTL constructor CHECKs it; callers that
// build a geometry from user input (a profile at some --scale) call it
// first to report the error instead.
Status ValidateGeometry(const FlashGeometry& geometry);

class FlashTranslationLayer {
 public:
  explicit FlashTranslationLayer(const FlashGeometry& geometry,
                                 int host_open_blocks = 1);

  FlashTranslationLayer(const FlashTranslationLayer&) = delete;
  FlashTranslationLayer& operator=(const FlashTranslationLayer&) = delete;

  // Work performed by one host operation, for the timing model.
  struct WorkDone {
    uint64_t host_pages = 0;       // pages programmed on behalf of the host
    uint64_t gc_read_pages = 0;    // valid pages read by GC
    uint64_t gc_write_pages = 0;   // valid pages re-programmed by GC

    void Add(const WorkDone& o) {
      host_pages += o.host_pages;
      gc_read_pages += o.gc_read_pages;
      gc_write_pages += o.gc_write_pages;
    }
  };

  // Writes one logical page; may trigger garbage collection.
  WorkDone HostWrite(uint64_t lpn);

  // Discards one logical page (no-op if unmapped).
  void Trim(uint64_t lpn);

  bool IsMapped(uint64_t lpn) const;

  // Cumulative counters.
  struct Stats {
    uint64_t host_pages_written = 0;
    uint64_t gc_pages_relocated = 0;
    uint64_t blocks_erased = 0;
    uint64_t pages_trimmed = 0;
    uint64_t valid_pages = 0;
    uint64_t free_blocks = 0;
    uint64_t physical_blocks = 0;
    uint64_t nand_pages_written() const {
      return host_pages_written + gc_pages_relocated;
    }
  };
  Stats GetStats() const;

  // Cumulative device write amplification; 1.0 before any GC.
  double DeviceWriteAmplification() const;

  const FlashGeometry& geometry() const { return geometry_; }

  // Verifies every internal invariant (mapping bijectivity, valid counts,
  // bucket membership, free-block cleanliness, counter conservation).
  // O(physical pages); used by tests and debug assertions.
  Status CheckConsistency() const;

 private:
  static constexpr uint32_t kUnmapped = UINT32_MAX;
  static constexpr uint32_t kNoBlock = UINT32_MAX;

  struct OpenBlock {
    uint32_t block = kNoBlock;
    uint32_t next_page = 0;  // next free page index within the block
  };

  // Programs lpn into the given open point; returns pages programmed (1).
  void Program(uint64_t lpn, OpenBlock* open, WorkDone* work, bool is_gc);
  void Invalidate(uint64_t lpn);
  // Picks the sealed block with the fewest valid pages and reclaims it.
  void CollectOnce(WorkDone* work);
  void MaybeCollect(WorkDone* work);
  uint32_t TakeFreeBlock();
  void Seal(uint32_t block);

  // Valid-count bucket maintenance for greedy victim selection.
  void BucketInsert(uint32_t block);
  void BucketErase(uint32_t block);
  void BucketMove(uint32_t block, uint32_t old_count);

  FlashGeometry geometry_;
  uint64_t pages_per_block_;
  uint64_t logical_pages_;
  uint64_t physical_blocks_;
  uint64_t gc_low_watermark_blocks_;

  std::vector<uint32_t> l2p_;          // logical page -> physical page
  std::vector<uint32_t> p2l_;          // physical page -> logical page
  std::vector<uint32_t> block_valid_;  // valid pages per block

  // Greedy GC support: sealed blocks bucketed by valid count.
  // buckets_[c] holds sealed blocks with exactly c valid pages.
  std::vector<std::vector<uint32_t>> buckets_;
  std::vector<uint32_t> bucket_pos_;   // block -> index within its bucket
  std::vector<uint8_t> in_bucket_;     // block -> is sealed (bucketed)
  uint64_t min_bucket_hint_ = 0;       // lowest possibly-non-empty bucket

  std::vector<uint32_t> free_blocks_;
  std::vector<OpenBlock> host_open_;  // striped round-robin
  size_t host_open_cursor_ = 0;
  OpenBlock gc_open_;

  // Counters.
  uint64_t host_pages_written_ = 0;
  uint64_t gc_pages_relocated_ = 0;
  uint64_t blocks_erased_ = 0;
  uint64_t pages_trimmed_ = 0;
  uint64_t valid_pages_ = 0;
};

}  // namespace ptsb::ssd

#endif  // PTSB_SSD_FTL_H_
