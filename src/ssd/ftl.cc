#include "ssd/ftl.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace ptsb::ssd {

Status ValidateGeometry(const FlashGeometry& geometry) {
  if (geometry.pages_per_block == 0 || geometry.LogicalPages() == 0) {
    return Status::InvalidArgument(
        "flash geometry has no pages (" +
        std::to_string(geometry.logical_bytes) + " logical bytes, " +
        std::to_string(geometry.pages_per_block) + " pages per block)");
  }
  // The drive needs physical spare space to write at all: at least the
  // logical space plus a handful of blocks for open/GC bootstrap.
  const uint64_t logical_blocks =
      (geometry.LogicalPages() + geometry.pages_per_block - 1) /
      geometry.pages_per_block;
  if (geometry.PhysicalBlocks() < logical_blocks + 4) {
    return Status::InvalidArgument(
        "hardware over-provisioning too small: " +
        std::to_string(geometry.PhysicalBlocks()) + " physical blocks, " +
        std::to_string(logical_blocks + 4) + " needed (" +
        std::to_string(logical_blocks) + " logical + 4 spare)");
  }
  return Status::OK();
}

FlashTranslationLayer::FlashTranslationLayer(const FlashGeometry& geometry,
                                             int host_open_blocks)
    : geometry_(geometry),
      pages_per_block_(geometry.pages_per_block),
      logical_pages_(geometry.LogicalPages()),
      physical_blocks_(geometry.PhysicalBlocks()) {
  PTSB_CHECK_OK(ValidateGeometry(geometry));
  const uint64_t logical_blocks =
      (logical_pages_ + pages_per_block_ - 1) / pages_per_block_;
  // Clamp the stripe width so tiny (test-scale) devices keep enough spare
  // blocks for GC to make progress.
  const uint64_t spare_blocks = physical_blocks_ - logical_blocks;
  const auto max_stripe = std::max<uint64_t>(1, spare_blocks / 2);
  host_open_.resize(std::max<uint64_t>(
      1, std::min<uint64_t>(static_cast<uint64_t>(std::max(1, host_open_blocks)),
                            max_stripe)));

  gc_low_watermark_blocks_ = std::max<uint64_t>(
      host_open_.size() + 2,
      static_cast<uint64_t>(geometry.gc_low_watermark_frac *
                            static_cast<double>(physical_blocks_)));
  l2p_.assign(logical_pages_, kUnmapped);
  p2l_.assign(physical_blocks_ * pages_per_block_, kUnmapped);
  block_valid_.assign(physical_blocks_, 0);
  buckets_.resize(pages_per_block_ + 1);
  bucket_pos_.assign(physical_blocks_, 0);
  in_bucket_.assign(physical_blocks_, 0);

  free_blocks_.reserve(physical_blocks_);
  // Stacked so that block 0 is taken first (purely cosmetic determinism).
  for (uint64_t b = physical_blocks_; b-- > 0;) {
    free_blocks_.push_back(static_cast<uint32_t>(b));
  }
}

void FlashTranslationLayer::BucketInsert(uint32_t block) {
  PTSB_DCHECK(!in_bucket_[block]);
  const uint32_t count = block_valid_[block];
  bucket_pos_[block] = static_cast<uint32_t>(buckets_[count].size());
  buckets_[count].push_back(block);
  in_bucket_[block] = 1;
  min_bucket_hint_ = std::min<uint64_t>(min_bucket_hint_, count);
}

void FlashTranslationLayer::BucketErase(uint32_t block) {
  PTSB_DCHECK(in_bucket_[block]);
  const uint32_t count = block_valid_[block];
  auto& bucket = buckets_[count];
  const uint32_t pos = bucket_pos_[block];
  PTSB_DCHECK(bucket[pos] == block);
  bucket[pos] = bucket.back();
  bucket_pos_[bucket[pos]] = pos;
  bucket.pop_back();
  in_bucket_[block] = 0;
}

void FlashTranslationLayer::BucketMove(uint32_t block, uint32_t old_count) {
  PTSB_DCHECK(in_bucket_[block]);
  auto& bucket = buckets_[old_count];
  const uint32_t pos = bucket_pos_[block];
  PTSB_DCHECK(bucket[pos] == block);
  bucket[pos] = bucket.back();
  bucket_pos_[bucket[pos]] = pos;
  bucket.pop_back();
  const uint32_t count = block_valid_[block];
  bucket_pos_[block] = static_cast<uint32_t>(buckets_[count].size());
  buckets_[count].push_back(block);
  min_bucket_hint_ = std::min<uint64_t>(min_bucket_hint_, count);
}

uint32_t FlashTranslationLayer::TakeFreeBlock() {
  PTSB_CHECK(!free_blocks_.empty())
      << "FTL out of free blocks: GC failed to make progress";
  const uint32_t b = free_blocks_.back();
  free_blocks_.pop_back();
  return b;
}

void FlashTranslationLayer::Seal(uint32_t block) { BucketInsert(block); }

void FlashTranslationLayer::Invalidate(uint64_t lpn) {
  const uint32_t old_ppn = l2p_[lpn];
  if (old_ppn == kUnmapped) return;
  const auto block = static_cast<uint32_t>(old_ppn / pages_per_block_);
  p2l_[old_ppn] = kUnmapped;
  l2p_[lpn] = kUnmapped;
  const uint32_t old_count = block_valid_[block];
  PTSB_DCHECK(old_count > 0);
  block_valid_[block] = old_count - 1;
  valid_pages_--;
  if (in_bucket_[block]) BucketMove(block, old_count);
}

void FlashTranslationLayer::Program(uint64_t lpn, OpenBlock* open,
                                    WorkDone* work, bool is_gc) {
  if (open->block == kNoBlock) {
    open->block = TakeFreeBlock();
    open->next_page = 0;
  }
  const uint64_t ppn =
      static_cast<uint64_t>(open->block) * pages_per_block_ + open->next_page;
  open->next_page++;
  l2p_[lpn] = static_cast<uint32_t>(ppn);
  p2l_[ppn] = static_cast<uint32_t>(lpn);
  block_valid_[open->block]++;
  valid_pages_++;
  if (is_gc) {
    gc_pages_relocated_++;
    work->gc_write_pages++;
  } else {
    host_pages_written_++;
    work->host_pages++;
  }
  if (open->next_page == pages_per_block_) {
    Seal(open->block);
    open->block = kNoBlock;
    open->next_page = 0;
  }
}

FlashTranslationLayer::WorkDone FlashTranslationLayer::HostWrite(uint64_t lpn) {
  PTSB_DCHECK(lpn < logical_pages_);
  WorkDone work;
  Invalidate(lpn);
  // Stripe host writes across the open blocks (die parallelism).
  OpenBlock* open = &host_open_[host_open_cursor_];
  host_open_cursor_ = (host_open_cursor_ + 1) % host_open_.size();
  Program(lpn, open, &work, /*is_gc=*/false);
  MaybeCollect(&work);
  return work;
}

void FlashTranslationLayer::Trim(uint64_t lpn) {
  PTSB_DCHECK(lpn < logical_pages_);
  if (l2p_[lpn] == kUnmapped) return;
  Invalidate(lpn);
  pages_trimmed_++;
}

bool FlashTranslationLayer::IsMapped(uint64_t lpn) const {
  PTSB_DCHECK(lpn < logical_pages_);
  return l2p_[lpn] != kUnmapped;
}

void FlashTranslationLayer::MaybeCollect(WorkDone* work) {
  // Hysteresis: once below the low watermark, collect until 2x above it so
  // GC runs in bursts rather than one block at a time. At extreme
  // utilization the 2x target may be unachievable (every sealed block fully
  // valid); GC then stops early — the pigeonhole principle guarantees that
  // a reclaimable victim reappears before the free list empties.
  if (free_blocks_.size() >= gc_low_watermark_blocks_) return;
  while (free_blocks_.size() < 2 * gc_low_watermark_blocks_) {
    uint64_t c = min_bucket_hint_;
    while (c < buckets_.size() && buckets_[c].empty()) c++;
    min_bucket_hint_ = c;
    if (c >= pages_per_block_) break;  // nothing reclaimable right now
    CollectOnce(work);
  }
}

void FlashTranslationLayer::CollectOnce(WorkDone* work) {
  // Greedy victim: sealed block with the fewest valid pages.
  uint64_t c = min_bucket_hint_;
  while (c < buckets_.size() && buckets_[c].empty()) c++;
  PTSB_CHECK(c < pages_per_block_) << "no reclaimable block for GC";
  min_bucket_hint_ = c;
  const uint32_t victim = buckets_[c].back();
  BucketErase(victim);

  // Relocate valid pages into the dedicated GC open block, apart from
  // host writes (hot/cold separation).
  const uint64_t base = static_cast<uint64_t>(victim) * pages_per_block_;
  for (uint64_t i = 0; i < pages_per_block_; i++) {
    const uint32_t lpn = p2l_[base + i];
    if (lpn == kUnmapped) continue;
    work->gc_read_pages++;
    // Invalidate the old copy directly (victim is not bucketed anymore).
    p2l_[base + i] = kUnmapped;
    l2p_[lpn] = kUnmapped;
    block_valid_[victim]--;
    valid_pages_--;
    Program(lpn, &gc_open_, work, /*is_gc=*/true);
  }
  PTSB_DCHECK(block_valid_[victim] == 0);
  blocks_erased_++;
  free_blocks_.push_back(victim);
}

FlashTranslationLayer::Stats FlashTranslationLayer::GetStats() const {
  Stats s;
  s.host_pages_written = host_pages_written_;
  s.gc_pages_relocated = gc_pages_relocated_;
  s.blocks_erased = blocks_erased_;
  s.pages_trimmed = pages_trimmed_;
  s.valid_pages = valid_pages_;
  s.free_blocks = free_blocks_.size();
  s.physical_blocks = physical_blocks_;
  return s;
}

double FlashTranslationLayer::DeviceWriteAmplification() const {
  if (host_pages_written_ == 0) return 1.0;
  return static_cast<double>(host_pages_written_ + gc_pages_relocated_) /
         static_cast<double>(host_pages_written_);
}

Status FlashTranslationLayer::CheckConsistency() const {
  // l2p/p2l bijectivity.
  uint64_t mapped = 0;
  for (uint64_t lpn = 0; lpn < logical_pages_; lpn++) {
    const uint32_t ppn = l2p_[lpn];
    if (ppn == kUnmapped) continue;
    mapped++;
    if (ppn >= p2l_.size() || p2l_[ppn] != lpn) {
      return Status::Corruption("l2p/p2l mismatch");
    }
  }
  uint64_t reverse_mapped = 0;
  std::vector<uint32_t> valid_count(physical_blocks_, 0);
  for (uint64_t ppn = 0; ppn < p2l_.size(); ppn++) {
    const uint32_t lpn = p2l_[ppn];
    if (lpn == kUnmapped) continue;
    reverse_mapped++;
    if (lpn >= logical_pages_ || l2p_[lpn] != ppn) {
      return Status::Corruption("p2l/l2p mismatch");
    }
    valid_count[ppn / pages_per_block_]++;
  }
  if (mapped != reverse_mapped || mapped != valid_pages_) {
    return Status::Corruption("valid page count mismatch");
  }
  // Per-block counts and bucket membership.
  std::vector<uint8_t> is_free(physical_blocks_, 0);
  for (const uint32_t b : free_blocks_) {
    if (is_free[b]) return Status::Corruption("block in free list twice");
    is_free[b] = 1;
  }
  for (uint32_t b = 0; b < physical_blocks_; b++) {
    if (valid_count[b] != block_valid_[b]) {
      return Status::Corruption("block valid count mismatch");
    }
    if (is_free[b] && block_valid_[b] != 0) {
      return Status::Corruption("free block has valid pages");
    }
    bool is_open = (b == gc_open_.block);
    for (const OpenBlock& ob : host_open_) is_open = is_open || (b == ob.block);
    const bool should_be_bucketed = !is_free[b] && !is_open;
    if (static_cast<bool>(in_bucket_[b]) != should_be_bucketed) {
      return Status::Corruption("bucket membership mismatch");
    }
    if (in_bucket_[b]) {
      const auto& bucket = buckets_[block_valid_[b]];
      if (bucket_pos_[b] >= bucket.size() || bucket[bucket_pos_[b]] != b) {
        return Status::Corruption("bucket position mismatch");
      }
    }
  }
  return Status::OK();
}

}  // namespace ptsb::ssd
