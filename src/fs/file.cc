#include "fs/file.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "fs/filesystem.h"
#include "sim/clock.h"
#include "util/logging.h"

namespace ptsb::fs {

namespace {
// Writes a run of logically-consecutive file pages, batching device writes
// over physically-contiguous LBA runs. Takes no filesystem lock: the
// device serializes its own command processing, and the extent list is
// per-file state owned by the file's single user. The fault-policy check
// happens here — one consult per device write command, so a counting
// policy sees every distinct write the filesystem issues.
Status WriteFilePages(SimpleFs* fs, const Inode& inode, uint64_t first_page,
                      uint64_t num_pages, const uint8_t* src,
                      uint64_t page_bytes) {
  block::BlockDevice* device = fs->device();
  const std::vector<Extent>& extents = inode.extents;
  uint64_t skipped = 0;
  uint64_t page = first_page;
  uint64_t remaining = num_pages;
  const uint8_t* p = src;
  for (const Extent& e : extents) {
    if (remaining == 0) break;
    if (page >= skipped + e.num_pages) {
      skipped += e.num_pages;
      continue;
    }
    const uint64_t offset_in_extent = page - skipped;
    const uint64_t run =
        std::min(remaining, e.num_pages - offset_in_extent);
    PTSB_RETURN_IF_ERROR(fs->CheckFault(inode.name));
    PTSB_RETURN_IF_ERROR(
        device->Write(e.first_page + offset_in_extent, run, p));
    p += run * page_bytes;
    page += run;
    remaining -= run;
    skipped += e.num_pages;
  }
  if (remaining != 0) return Status::IoError("write beyond allocation");
  return Status::OK();
}

// Runs a write body in a foreground-write submission lane on queue 0 and
// joins the lane's completion into the clock: submit-then-wait, so the
// writes of concurrent threads overlap in virtual time up to per-channel
// serialization instead of summing.
template <typename Op>
Status SubmitAndWait(sim::SimClock* clock, const Op& op) {
  const sim::LaneResult r =
      sim::RunInLane(clock, 0, sim::IoClass::kForegroundWrite, op);
  if (clock != nullptr && r.complete_ns > 0) clock->AdvanceTo(r.complete_ns);
  return r.status;
}

}  // namespace

Status File::Append(std::string_view data) {
  return SubmitAndWait(fs_->device_->clock(), [&] { return AppendImpl(data); });
}

Status File::WriteAt(uint64_t offset, std::string_view data) {
  return SubmitAndWait(fs_->device_->clock(),
                       [&] { return WriteAtImpl(offset, data); });
}

Status File::AppendImpl(std::string_view data) {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  while (!data.empty()) {
    const uint64_t tail_off = inode.size_bytes % page;
    const uint64_t file_page = inode.size_bytes / page;
    if (tail_off == 0 && data.size() >= page) {
      // Bulk path: whole pages write through directly.
      const uint64_t npages = data.size() / page;
      PTSB_RETURN_IF_ERROR(fs_->ExtendInode(
          &inode,
          std::max(file_page + npages,
                   file_page + fs_->options_.append_alloc_pages)));
      PTSB_RETURN_IF_ERROR(WriteFilePages(
          fs_, inode, file_page, npages,
          reinterpret_cast<const uint8_t*>(data.data()), page));
      inode.size_bytes += npages * page;
      inode.synced_bytes = inode.size_bytes;
      data.remove_prefix(npages * page);
      continue;
    }
    // Buffered path: fill the tail page (no lock -- per-file state).
    const uint64_t take = std::min<uint64_t>(page - tail_off, data.size());
    std::memcpy(inode.tail.get() + tail_off, data.data(), take);
    inode.size_bytes += take;
    data.remove_prefix(take);
    if (inode.size_bytes % page == 0) {
      // Tail page completed: materialize it.
      PTSB_RETURN_IF_ERROR(fs_->ExtendInode(
          &inode, std::max(file_page + 1,
                           file_page + fs_->options_.append_alloc_pages)));
      PTSB_RETURN_IF_ERROR(WriteFilePages(fs_, inode, file_page, 1,
                                          inode.tail.get(), page));
      inode.synced_bytes = inode.size_bytes;
      std::memset(inode.tail.get(), 0, page);
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> File::ReadAt(uint64_t offset, uint64_t n, char* dst) const {
  const Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  if (offset >= inode.size_bytes) return uint64_t{0};
  n = std::min(n, inode.size_bytes - offset);

  // Bytes in [0, tail_start) are device-backed; bytes in [tail_start, size)
  // live in the in-memory tail buffer (which always mirrors the current
  // partial tail page, synced or not).
  const uint64_t tail_start = inode.size_bytes - inode.size_bytes % page;
  const uint64_t end = offset + n;

  uint64_t done = 0;
  uint64_t pos = offset;
  const uint64_t device_end = std::min(end, tail_start);
  if (pos < device_end) {
    std::unique_ptr<uint8_t[]> scratch(new uint8_t[page]);
    // Unaligned head.
    if (pos % page != 0) {
      const uint64_t in_page = pos % page;
      const uint64_t take = std::min(page - in_page, device_end - pos);
      PTSB_RETURN_IF_ERROR(
          fs_->device_->Read(fs_->PageToLba(inode, pos / page), 1,
                             scratch.get()));
      std::memcpy(dst + done, scratch.get() + in_page, take);
      pos += take;
      done += take;
    }
    // Aligned middle: batch physically-contiguous page runs into single
    // device commands (one command per extent run, not per page).
    while (pos + page <= device_end) {
      const uint64_t first_page = pos / page;
      const uint64_t want_pages = (device_end - pos) / page;
      uint64_t run = 1;
      const uint64_t first_lba = fs_->PageToLba(inode, first_page);
      while (run < want_pages &&
             fs_->PageToLba(inode, first_page + run) == first_lba + run) {
        run++;
      }
      PTSB_RETURN_IF_ERROR(fs_->device_->Read(
          first_lba, run, reinterpret_cast<uint8_t*>(dst + done)));
      pos += run * page;
      done += run * page;
    }
    // Unaligned tail (still device-backed).
    if (pos < device_end) {
      const uint64_t take = device_end - pos;
      PTSB_RETURN_IF_ERROR(
          fs_->device_->Read(fs_->PageToLba(inode, pos / page), 1,
                             scratch.get()));
      std::memcpy(dst + done, scratch.get(), take);
      pos += take;
      done += take;
    }
  }
  if (pos < end) {
    // Tail portion (per-file memory; no lock).
    PTSB_DCHECK(pos >= tail_start);
    const uint64_t take = end - pos;
    std::memcpy(dst + done, inode.tail.get() + (pos - tail_start), take);
    done += take;
  }
  return done;
}

Status File::WriteAtImpl(uint64_t offset, std::string_view data) {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  if (offset % page != 0 || data.size() % page != 0) {
    return Status::InvalidArgument("WriteAt requires page alignment");
  }
  if (offset + data.size() > inode.allocated_pages * page) {
    return Status::InvalidArgument("WriteAt beyond allocation");
  }
  return WriteFilePages(fs_, inode, offset / page, data.size() / page,
                        reinterpret_cast<const uint8_t*>(data.data()), page);
}

Status File::Extend(uint64_t bytes) {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  const uint64_t pages = (bytes + page - 1) / page;
  PTSB_RETURN_IF_ERROR(fs_->ExtendInode(&inode, pages));
  if (bytes > inode.size_bytes) {
    inode.size_bytes = bytes;
    inode.synced_bytes = std::max(inode.synced_bytes, bytes);
  }
  return Status::OK();
}

Status File::Sync() {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  const uint64_t tail_off = inode.size_bytes % page;
  if (inode.synced_bytes < inode.size_bytes && tail_off != 0) {
    const uint64_t file_page = inode.size_bytes / page;
    PTSB_RETURN_IF_ERROR(fs_->ExtendInode(&inode, file_page + 1));
    PTSB_RETURN_IF_ERROR(WriteFilePages(fs_, inode, file_page, 1,
                                        inode.tail.get(), page));
  }
  inode.synced_bytes = inode.size_bytes;
  return fs_->device_->Flush();
}

Status File::ShrinkToFit() {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  const uint64_t needed = (inode.size_bytes + page - 1) / page;
  // Returning extents mutates the shared allocator: that is fs-wide
  // allocation state, guarded by the filesystem mutex.
  std::lock_guard<std::mutex> lock(fs_->mu_);
  while (inode.allocated_pages > needed) {
    Extent& last = inode.extents.back();
    const uint64_t excess =
        std::min(inode.allocated_pages - needed, last.num_pages);
    const Extent freed{last.first_page + last.num_pages - excess, excess};
    last.num_pages -= excess;
    inode.allocated_pages -= excess;
    if (last.num_pages == 0) inode.extents.pop_back();
    fs_->allocator_->Free(freed);
    if (!fs_->options_.nodiscard) {
      PTSB_RETURN_IF_ERROR(
          fs_->device_->Trim(freed.first_page, freed.num_pages));
    }
  }
  return Status::OK();
}

uint64_t File::size() const { return inode_->size_bytes; }

uint64_t File::synced_size() const { return inode_->synced_bytes; }

uint64_t File::allocated_bytes() const {
  return inode_->allocated_pages * fs_->page_bytes_;
}

const std::string& File::name() const { return inode_->name; }

uint64_t File::ExtentCount() const { return inode_->extents.size(); }

}  // namespace ptsb::fs
