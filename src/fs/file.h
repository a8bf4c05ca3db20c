// File handle for SimpleFs. Safe to use from one thread per file while
// other threads operate on OTHER files: per-file state (tail buffer,
// sizes, extents) is touched only by this file's user, and the shared
// substrate (allocator, device) is serialized by the filesystem's I/O
// mutex. A single File shared by two unsynchronized threads is a bug: appends
// would interleave unpredictably.
#ifndef PTSB_FS_FILE_H_
#define PTSB_FS_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace ptsb::fs {

class SimpleFs;
struct Inode;

class File {
 public:
  // Appends bytes at the end of the file (buffered; full pages are written
  // through to the device, the partial tail stays in memory until Sync).
  // The device commands run in a foreground-write submission lane whose
  // completion is joined into the clock (submit-then-wait), so appends
  // from concurrent threads overlap in virtual time.
  Status Append(std::string_view data);

  // Reads [offset, offset+n) into dst. Reads through the device but serves
  // the buffered tail from memory, like the page cache would. Returns the
  // number of bytes read (short reads happen at EOF).
  StatusOr<uint64_t> ReadAt(uint64_t offset, uint64_t n, char* dst) const;

  // Overwrites existing bytes. The range must be page-aligned on both ends
  // (direct-I/O style), and must lie within the allocated space (use
  // Extend first). Used by the B+Tree block manager. Timed like Append.
  Status WriteAt(uint64_t offset, std::string_view data);

  // Ensures at least `bytes` of allocated capacity; sets size to at least
  // `bytes` (newly allocated space reads as zeros).
  Status Extend(uint64_t bytes);

  // Writes out the buffered tail page (zero-padded) and flushes the device
  // write cache. After Sync, size() == synced_size().
  Status Sync();

  // Releases allocated-but-unused whole pages past the end of the file
  // (appends over-allocate in chunks; call this after finishing a file).
  Status ShrinkToFit();

  uint64_t size() const;
  uint64_t synced_size() const;
  uint64_t allocated_bytes() const;
  const std::string& name() const;

  // Number of extents backing this file (fragmentation diagnostic).
  uint64_t ExtentCount() const;

 private:
  friend class SimpleFs;
  File(SimpleFs* fs, Inode* inode) : fs_(fs), inode_(inode) {}

  // Synchronous bodies; the public entry points wrap them in a submission
  // lane (submit-then-wait).
  Status AppendImpl(std::string_view data);
  Status WriteAtImpl(uint64_t offset, std::string_view data);

  SimpleFs* fs_;
  Inode* inode_;
};

}  // namespace ptsb::fs

#endif  // PTSB_FS_FILE_H_
