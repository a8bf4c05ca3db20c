// SimpleFs: an extent-based filesystem over a BlockDevice, standing in for
// the paper's ext4-with-nodiscard setup (Section 3.5).
//
// Semantics that matter for the study:
//  - nodiscard (default): deleting a file returns its extents to the FS
//    free pool but does NOT trim them on the device, so the FTL keeps
//    treating them as valid data until the LBAs are rewritten. This is the
//    mechanism that erodes the "LSM trees are flash friendly" intuition
//    (paper Section 4.2/4.3).
//  - Appends are buffered per-file at page granularity; Sync() writes the
//    partial tail page and issues a device flush. Repeated small appends +
//    syncs hammer the same LBA, as on a real filesystem.
//  - The namespace (directory + inode table) is modeled as a small reserved
//    metadata region; namespace mutations charge one metadata page write.
//    Namespace durability follows the journaled-fs assumption: after
//    SimulateCrash() the namespace survives, unsynced file data does not.
//  - Thread safety, modeled on the kernel's locking split. ONE filesystem
//    mutex: `mu_` serializes the namespace (directory + inode table) AND
//    the shared allocation state (extent allocator, metadata-region
//    cursor) — the inode/block-bitmap lock. Device commands take no filesystem
//    lock at all: each BlockDevice serializes its own command processing
//    internally (the bio/FTL serialization point lives in the device, where it
//    belongs), so two files' data I/O never contends on a filesystem-wide
//    mutex — only allocations and namespace mutations do. Per-file state (tail
//    buffer, sizes, extent list) takes no lock either: like a kernel page
//    cache keyed by inode, it is safe as long as each File has one user at a
//    time, which is exactly the serialization kv::WriteGroup (per store)
//    provides. Concurrent writers therefore overlap all their CPU work — key
//    comparisons, checksums, index updates, tail-page memcpys — and their
//    device commands queue only inside the device model. A single File shared
//    by two unsynchronized threads is still a bug (appends would interleave
//    unpredictably), and whole-fs inspection (SimulateCrash, CheckConsistency,
//    GetStats over in-flight files) expects writers quiesced. Lock order: mu_
//    before any device-internal mutex.
#ifndef PTSB_FS_FILESYSTEM_H_
#define PTSB_FS_FILESYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "block/block_device.h"
#include "fs/extent_allocator.h"
#include "util/status.h"

namespace ptsb::fs {

class File;

// Fault-injection hook, consulted immediately BEFORE every device write
// the filesystem issues — file data pages (appends, write-through,
// sync of a partial tail) and namespace metadata pages alike. Returning
// non-OK suppresses the write and fails the operation above it, modeling
// power loss at exactly that device write; the crash-recovery tests
// install a counting policy, run a workload until it trips, then
// SimulateCrash() and reopen. Reads are never faulted (a dying drive
// that corrupts reads is a different failure model).
class FaultPolicy {
 public:
  virtual ~FaultPolicy() = default;
  // `name` is the file being written ("" for namespace metadata). Called
  // once per device write command, before it reaches the device.
  virtual Status BeforeDeviceWrite(const std::string& name) = 0;
};

struct FsOptions {
  // If true (paper default), freed extents are not trimmed on the device.
  bool nodiscard = true;
  // Allocations longer than this are split into multiple extents,
  // modeling ext4 block-group spreading. 0 = unlimited.
  uint64_t max_extent_pages = 2048;
  // Appending beyond the allocated size grows the file by chunks of this
  // many pages (delayed-allocation analog).
  uint64_t append_alloc_pages = 256;
  // Reserved metadata region at the start of the partition.
  uint64_t metadata_pages = 64;
};

struct FsStats {
  uint64_t capacity_bytes = 0;
  uint64_t used_bytes = 0;       // allocated data + metadata region
  uint64_t free_bytes = 0;
  uint64_t num_files = 0;
  uint64_t free_extents = 0;
  uint64_t largest_free_extent_bytes = 0;

  // Total disk utilization as the paper reports it (Fig. 6a).
  double Utilization() const {
    if (capacity_bytes == 0) return 0;
    return static_cast<double>(used_bytes) /
           static_cast<double>(capacity_bytes);
  }
};

// Per-file state. Internal to SimpleFs/File (namespace-scope only so the
// File handle can hold a typed pointer); fields are mutated exclusively
// by the file's single user plus the namespace operations under
// SimpleFs::mu_.
struct Inode {
  uint64_t id = 0;
  std::string name;
  std::vector<Extent> extents;
  uint64_t size_bytes = 0;         // logical size including buffered tail
  uint64_t synced_bytes = 0;       // durable prefix
  uint64_t allocated_pages = 0;
  // Buffered tail page (size % page_bytes bytes of it are meaningful).
  std::unique_ptr<uint8_t[]> tail;
  std::unique_ptr<File> handle;
};

class SimpleFs {
 public:
  SimpleFs(block::BlockDevice* device, const FsOptions& options);
  ~SimpleFs();

  SimpleFs(const SimpleFs&) = delete;
  SimpleFs& operator=(const SimpleFs&) = delete;

  // Creates a new empty file. Fails with InvalidArgument if it exists.
  StatusOr<File*> Create(const std::string& name);
  // Opens an existing file. Fails with NotFound.
  StatusOr<File*> Open(const std::string& name);
  // Creates or opens.
  StatusOr<File*> OpenOrCreate(const std::string& name);

  // Deletes a file. Its extents are freed (and trimmed iff !nodiscard).
  Status Delete(const std::string& name);
  Status Rename(const std::string& from, const std::string& to);
  bool Exists(const std::string& name) const;
  std::vector<std::string> List(const std::string& prefix = "") const;
  StatusOr<uint64_t> FileSize(const std::string& name) const;

  // Drops all unsynced buffered data, as a power failure would. The
  // namespace and all synced data survive.
  void SimulateCrash();

  FsStats GetStats() const;
  const FsOptions& options() const { return options_; }
  block::BlockDevice* device() const { return device_; }

  // Internal consistency check (allocator invariants + no extent shared by
  // two files + sizes consistent). Used by tests.
  Status CheckConsistency() const;

  // Installs (or, with nullptr, clears) the fault-injection policy.
  // Unowned: the caller keeps it alive until cleared. Install/clear with
  // writers quiesced.
  void SetFaultPolicy(FaultPolicy* policy) { fault_policy_ = policy; }

  // Consults the installed policy before a device write on behalf of
  // `name`. Internal to the fs and its File handles, public so the
  // file-data write path (a free function in file.cc) can reach it.
  Status CheckFault(const std::string& name) {
    if (fault_policy_ == nullptr) return Status::OK();
    return fault_policy_->BeforeDeviceWrite(name);
  }

 private:
  friend class File;

  // Unlocked implementations; callers hold mu_. Public entry points wrap
  // these so internal cross-calls (Rename deleting its target,
  // OpenOrCreate probing then creating) never re-enter the lock.
  StatusOr<File*> CreateLocked(const std::string& name);
  StatusOr<File*> OpenLocked(const std::string& name);
  Status DeleteLocked(const std::string& name);

  // Charges one metadata page write for a namespace mutation. Caller
  // holds mu_ (every namespace mutation already does).
  Status TouchMetadata();

  // Maps a page index within the file to a device LBA. Reads only the
  // file's own extent list: the caller must be the file's (sole) user.
  uint64_t PageToLba(const Inode& inode, uint64_t file_page) const;

  // Allocator interactions. ExtendInode takes mu_ internally (its callers
  // are File operations, which hold no fs lock); FreeInodeExtents expects
  // the caller to hold mu_ (its one caller is DeleteLocked). Both
  // otherwise touch only the inode's own fields.
  Status ExtendInode(Inode* inode, uint64_t min_pages);
  void FreeInodeExtents(Inode* inode);

  block::BlockDevice* device_;
  FsOptions options_;
  uint64_t page_bytes_;
  // Guards directory_/inodes_/next_inode_id_ (the namespace) and
  // allocator_/metadata_cursor_ (shared allocation state). Device
  // commands are serialized by the device itself, not here; File data
  // paths take mu_ only to allocate (ExtendInode) or free (ShrinkToFit).
  mutable std::mutex mu_;
  std::unique_ptr<ExtentAllocator> allocator_;
  std::map<std::string, uint64_t> directory_;       // name -> inode id
  std::map<uint64_t, std::unique_ptr<Inode>> inodes_;
  uint64_t next_inode_id_ = 1;
  uint64_t metadata_cursor_ = 0;
  FaultPolicy* fault_policy_ = nullptr;  // unowned; null = no injection
};

}  // namespace ptsb::fs

#endif  // PTSB_FS_FILESYSTEM_H_

