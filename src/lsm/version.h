// LSM tree metadata: the set of live SST files per level, persisted through
// an append-only MANIFEST (a kv::LogWriter log of VersionEdit payloads,
// one sync per record, with snapshot rotation) and a CURRENT pointer file,
// as in LevelDB/RocksDB. Recovery continues in a fresh snapshot manifest,
// never in the one it replayed.
//
// Level invariants:
//   L0: files may overlap; ordered newest-first (descending file number).
//   L1+: files have disjoint key ranges; ordered by smallest key.
#ifndef PTSB_LSM_VERSION_H_
#define PTSB_LSM_VERSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "kv/log.h"
#include "lsm/format.h"
#include "util/status.h"

namespace ptsb::lsm {

struct FileMeta {
  uint64_t number = 0;
  uint64_t file_bytes = 0;
  uint64_t num_entries = 0;
  std::string smallest;  // user keys
  std::string largest;
};

struct VersionEdit {
  std::optional<uint64_t> next_file_number;
  std::optional<SequenceNumber> last_sequence;
  std::optional<uint64_t> log_number;
  std::vector<std::pair<int, FileMeta>> added;    // (level, file)
  std::vector<std::pair<int, uint64_t>> removed;  // (level, file number)
  // Replace-on-apply: when present, the FULL range-tombstone list as of
  // this edit (written at every memtable flush, so the manifest state is
  // always "tombstones as of the last flush"; WAL replay re-adds newer
  // ones). Absent means "unchanged".
  std::optional<std::vector<RangeTombstone>> range_tombstones;

  std::string Encode() const;
  static StatusOr<VersionEdit> Decode(std::string_view in);
};

class VersionSet {
 public:
  VersionSet(fs::SimpleFs* fs, std::string dir, int max_levels);

  // Loads state from CURRENT/MANIFEST, or initializes a fresh store; either
  // way, continues in a freshly written snapshot manifest.
  Status Recover();

  // Applies the edit and persists it to the manifest (rotating if large).
  Status LogAndApply(const VersionEdit& edit);

  // State accessors.
  const std::vector<FileMeta>& LevelFiles(int level) const {
    return levels_[level];
  }
  int num_levels() const { return static_cast<int>(levels_.size()); }
  uint64_t LevelBytes(int level) const;
  uint64_t TotalSstBytes() const;
  uint64_t TotalEntries() const;
  int MaxPopulatedLevel() const;  // -1 if empty

  // Durable range tombstones (as of the last flush-carrying edit).
  const std::vector<RangeTombstone>& range_tombstones() const {
    return tombstones_;
  }

  uint64_t NewFileNumber() { return next_file_number_++; }
  // Guarantees NewFileNumber never re-issues `number`. Recovery calls
  // this for every file found on disk: a crash can leave files whose
  // allocating edit never reached the manifest, and a reissued number
  // would collide on Create.
  void EnsureFileNumberPast(uint64_t number) {
    next_file_number_ = std::max(next_file_number_, number + 1);
  }
  SequenceNumber last_sequence() const { return last_sequence_; }
  void set_last_sequence(SequenceNumber s) { last_sequence_ = s; }
  uint64_t log_number() const { return log_number_; }

  // Files in `level` overlapping [smallest, largest] (user-key range), in
  // level order. Requires level >= 1 (sorted, disjoint files): a binary
  // search on `largest` plus a walk over the k results, O(log n + k).
  std::vector<FileMeta> Overlapping(int level, std::string_view smallest,
                                    std::string_view largest) const;

  // Invariant checks for tests: L1+ sorted and disjoint, L0 newest-first.
  Status CheckInvariants() const;

 private:
  // Writes the full state as one edit into a fresh manifest, points
  // CURRENT at it, then deletes `obsolete` (the previous manifest), if any.
  Status WriteSnapshot(const std::string& obsolete);
  void Apply(const VersionEdit& edit);
  std::string ManifestName(uint64_t number) const;
  std::string CurrentName() const;

  fs::SimpleFs* fs_;
  std::string dir_;
  std::vector<std::vector<FileMeta>> levels_;
  std::vector<RangeTombstone> tombstones_;
  uint64_t next_file_number_ = 1;
  SequenceNumber last_sequence_ = 0;
  uint64_t log_number_ = 0;
  uint64_t manifest_number_ = 0;
  std::unique_ptr<kv::LogWriter> manifest_;
  uint64_t manifest_edits_ = 0;
};

}  // namespace ptsb::lsm

#endif  // PTSB_LSM_VERSION_H_
