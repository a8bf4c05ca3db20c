// Leveled compaction: picking (score-based, with RocksDB-style trivial
// moves) and execution (an incremental job that merges input tables into
// the next level in bounded steps, so compaction I/O interleaves with user
// operations the way background compaction threads would).
#ifndef PTSB_LSM_COMPACTION_H_
#define PTSB_LSM_COMPACTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "lsm/options.h"
#include "lsm/sst.h"
#include "lsm/version.h"
#include "util/status.h"

namespace ptsb::lsm {

// Target size for a level under the leveled policy.
uint64_t LevelTargetBytes(const LsmOptions& options, int level);

// Compaction pressure of a level: >= 1.0 means compaction is due.
double LevelScore(const VersionSet& versions, const LsmOptions& options,
                  int level);

// True when no level deeper than `output_level` holds any file, i.e.
// tombstones compacted to `output_level` can be dropped.
bool CanDropTombstones(const VersionSet& versions, int output_level);

struct CompactionPick {
  bool valid = false;
  bool trivial_move = false;  // single input, no overlap: just relink
  int level = 0;              // input level
  std::vector<FileMeta> inputs0;  // files from `level`
  std::vector<FileMeta> inputs1;  // overlapping files from `level + 1`
  bool drop_tombstones = false;
  double score = 0;
};

// Chooses the most pressured level. `cursors` holds one round-robin file
// cursor per level and is advanced by the pick.
CompactionPick PickCompaction(const VersionSet& versions,
                              const LsmOptions& options,
                              std::vector<uint64_t>* cursors);

// Range splitter for partitioned subcompactions: cuts the key space the
// input tables cover into up to `k` byte-balanced subranges, using the
// readers' pinned block indexes as (last key, block bytes) anchors — no
// device I/O. Returns the interior boundaries b_1 < ... < b_m (m <=
// k-1) as user keys: subrange i covers (b_{i-1}, b_i], begin-exclusive
// and end-inclusive, with the first subrange open at the bottom and the
// last unbounded at the top. Boundaries are block last-keys, so all
// versions of one user key always land in one subrange. Returns empty
// (do not split) when the inputs are too small to cut.
std::vector<std::string> SplitCompactionRange(
    const std::vector<SstReader*>& readers, int k);

// Byte-level accounting of one compaction, merged into the engine stats.
struct CompactionIoStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t entries_dropped = 0;  // shadowed versions + dropped tombstones
};

// Merges one key subrange of inputs0+inputs1 into new tables at
// level+1, in steps. The job only writes its outputs: the store opens the
// inputs, installs every subrange's outputs as one VersionSet edit and
// disposes the inputs.
class CompactionJob {
 public:
  CompactionJob(fs::SimpleFs* fs, std::string dir, VersionSet* versions,
                const LsmOptions& options, CompactionPick pick);
  ~CompactionJob();

  CompactionJob(const CompactionJob&) = delete;
  CompactionJob& operator=(const CompactionJob&) = delete;

  // Restricts the job to user keys in (begin_exclusive, end_inclusive]
  // — a subrange from SplitCompactionRange. Empty begin means from the
  // start, empty end means unbounded. Must be set before Prepare.
  void SetKeyBounds(std::string begin_exclusive, std::string end_inclusive) {
    begin_key_ = std::move(begin_exclusive);
    end_key_ = std::move(end_inclusive);
  }

  // Positions the job on borrowed readers, one per input in
  // inputs0-then-inputs1 order, so the subjobs over one pick share the
  // footer/index/bloom reads. The readers must outlive the job. Must be
  // called once before Step.
  Status Prepare(const std::vector<SstReader*>& readers);

  // Processes about `max_bytes` of input data. Returns true when the
  // subrange is drained and every output table is finished.
  StatusOr<bool> Step(uint64_t max_bytes);

  bool finished() const { return finished_; }
  const CompactionIoStats& io_stats() const { return io_; }
  // Finished output tables (meta, file number), for the store's edit.
  const std::vector<std::pair<FileMeta, uint64_t>>& outputs() const {
    return outputs_;
  }

 private:
  struct Input {
    FileMeta meta;
    SstReader* reader = nullptr;  // borrowed
    std::unique_ptr<SstReader::Iterator> iter;
  };

  // Index of the input whose current entry is smallest in internal order,
  // or -1 when all are exhausted.
  int FindSmallest() const;
  Status OpenOutput();
  Status FinishOutput();

  fs::SimpleFs* fs_;
  std::string dir_;
  VersionSet* versions_;
  const LsmOptions& options_;
  CompactionPick pick_;

  std::vector<Input> inputs_;
  std::string begin_key_;  // exclusive lower bound ("" = none)
  std::string end_key_;    // inclusive upper bound ("" = none)
  std::unique_ptr<SstBuilder> builder_;
  fs::File* output_file_ = nullptr;
  uint64_t output_number_ = 0;
  std::vector<std::pair<FileMeta, uint64_t>> outputs_;  // meta, number
  std::string last_emitted_key_;
  bool emitted_any_ = false;
  bool prepared_ = false;
  bool finished_ = false;
  CompactionIoStats io_;
};

}  // namespace ptsb::lsm

#endif  // PTSB_LSM_COMPACTION_H_
