// LsmStore: the RocksDB-analog key-value store. Memtable + WAL in front,
// leveled SSTs behind, compaction interleaved with user operations.
#ifndef PTSB_LSM_LSM_STORE_H_
#define PTSB_LSM_LSM_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "kv/group_commit_store.h"
#include "kv/log.h"
#include "lsm/compaction.h"
#include "lsm/memtable.h"
#include "lsm/options.h"
#include "lsm/sst.h"
#include "lsm/version.h"
#include "lsm/wal.h"

namespace ptsb::lsm {

class LsmStore : public kv::GroupCommitStore {
 public:
  // Opens (or creates) a store rooted at `dir` within `fs`. Recovers the
  // manifest into a fresh one and replays the WALs; new writes go to a
  // fresh WAL, never to a replayed one.
  static StatusOr<std::unique_ptr<LsmStore>> Open(fs::SimpleFs* fs,
                                                  const LsmOptions& options,
                                                  std::string dir = "lsm");
  ~LsmStore() override;

  // Freezes the current state: sequence bound + shared memtable + the
  // per-level file lists (each file pinned against physical deletion) +
  // the range-tombstone list. Compaction may still retire pinned files
  // from the live version; they become zombies on disk (accounted in
  // snapshot_pinned_bytes) until the last pinning snapshot drops.
  StatusOr<std::shared_ptr<const kv::Snapshot>> GetSnapshot() override;
  Status Flush() override;
  Status SettleBackgroundWork() override { return DrainCompactions(); }
  Status Close() override;
  std::string Name() const override { return "lsm(rocksdb-like)"; }
  uint64_t DiskBytesUsed() const override;

  // Introspection for tests and benches.
  const VersionSet& versions() const { return *versions_; }
  uint64_t MemtableBytes() const { return memtable_->ApproximateBytes(); }
  bool CompactionPending() const { return compaction_ != nullptr; }
  // Runs compaction to completion (tests; also used by Flush).
  Status DrainCompactions();
  // Manual full compaction (RocksDB CompactRange analog): pushes all data
  // to a single bottom level, dropping every shadowed version and
  // tombstone on the way.
  Status CompactAll();
  std::string DebugString() const;
  // The options the store was opened with.
  const LsmOptions& options() const { return options_; }

 private:
  class MergingIterator;
  class SnapshotImpl;

  LsmStore(fs::SimpleFs* fs, const LsmOptions& options, std::string dir);

  // One WAL record and one memtable insertion pass for the whole group,
  // then one flush/compaction pacing step.
  Status WriteInternal(const kv::WriteBatch& batch) override;
  Status GetInternal(std::string_view key, std::string* value) override;
  // Resolves the key against the snapshot's pinned memtable + file lists
  // at its sequence bound, filtered by its range tombstones.
  Status SnapshotGetInternal(const kv::Snapshot& snap, std::string_view key,
                             std::string* value) override;
  // A MergingIterator. Live: over the memtable and every live SST,
  // invalidated by any write. With a snapshot: over its pinned sources
  // (shared memtable, pinned SSTs) at its sequence bound, taking the
  // commit-exclusion lock around every move and skipping the write-epoch
  // check.
  std::unique_ptr<kv::KVStore::Iterator> NewIteratorInternal(
      const kv::Snapshot* snap) override;
  // Creates a fresh WAL as wal_ and returns its file number.
  StatusOr<uint64_t> StartWal();
  Status FlushMemtable();
  // Runs up to `budget` bytes of compaction work, starting a compaction
  // if one is due. The work runs on the engine's background pool: with
  // background_io on (and a clock) the foreground clock does not advance,
  // and the pool's horizon is joined back only where the user genuinely
  // waits (MaybeStall, DrainCompactions, Close); otherwise it runs inline.
  Status CompactionWork(uint64_t budget);
  // Opens the picked inputs once (lane 0), cuts their key space into up
  // to pool_.lanes() disjoint subranges and prepares one CompactionJob
  // per subrange on its own lane, so reads and writes of different
  // subranges overlap in virtual device time. One lane is one job over
  // the whole range.
  Status StartCompaction(CompactionPick pick);
  // Steps every unfinished subrange by its share of `budget`, each on its
  // lane; once all have drained, installs them (InstallCompaction).
  Status StepCompaction(uint64_t budget);
  // Logs all subranges' outputs as ONE atomic VersionSet edit on lane 0,
  // behind every lane, then disposes the shared inputs.
  Status InstallCompaction();
  Status MaybeStall();
  StatusOr<SstReader*> GetReader(uint64_t number);
  void EvictReaders(const std::vector<uint64_t>& numbers);

  // Disposes of one compacted input: a snapshot-pinned input becomes an
  // on-disk zombie (snapshot_pinned_bytes grows) and false is returned;
  // otherwise the file is deleted and true is returned.
  StatusOr<bool> DisposeInput(const FileMeta& f);
  // Snapshot deleter body: un-pins every file the snapshot held and
  // physically deletes zombies whose last pin dropped.
  void ReleaseSnapshot(const SnapshotImpl& snap);
  void UnpinFile(uint64_t number);

  fs::SimpleFs* fs_;
  LsmOptions options_;
  std::string dir_;

  std::unique_ptr<VersionSet> versions_;
  // shared_ptr: a snapshot keeps the memtable it froze alive across
  // rotations (flush swaps in a fresh one; pinned versions stay readable).
  std::shared_ptr<Memtable> memtable_;
  std::unique_ptr<kv::LogWriter> wal_;
  // Every WAL no flush has covered yet, oldest first: the WALs replayed
  // at open, then wal_'s (last).
  std::vector<uint64_t> wal_numbers_;

  // In-flight compaction: one pick, the shared input readers (each
  // input table opened once), and one job per key subrange.
  struct Compaction {
    CompactionPick pick;
    std::vector<std::unique_ptr<SstReader>> input_readers;
    std::vector<std::unique_ptr<CompactionJob>> jobs;
  };
  std::unique_ptr<Compaction> compaction_;
  std::vector<uint64_t> compaction_cursors_;

  // Table cache: open readers with pinned index+bloom (never evicted while
  // the file is live, as RocksDB effectively does for filter/index blocks).
  std::map<uint64_t, std::unique_ptr<SstReader>> readers_;

  // Range tombstones, oldest first: {begin, end, seq} hides every version
  // of a covered key older than seq. They live beside the key space (WAL
  // records until the next flush, then the manifest's full-list edit) and
  // are filtered on the read path, never merged into SSTs.
  std::vector<RangeTombstone> tombstones_;
  // How many of tombstones_ the manifest already holds (they are only
  // appended, so a count is a full description).
  size_t tombstones_persisted_ = 0;

  // Snapshot pinning. pins_: file number -> number of open snapshots
  // whose frozen file lists include it. zombies_: pinned files the live
  // version already dropped (compaction inputs) -> their byte size; they
  // stay on the filesystem until the last pin drops.
  std::map<uint64_t, int> pins_;
  std::map<uint64_t, uint64_t> zombies_;

  SequenceNumber seq_ = 0;
};

// The param map of `o`, one entry per ForEachParam row (what
// kv::OpenStore decodes back); the clock travels in kv::EngineOptions.
std::map<std::string, std::string> EncodeEngineParams(const LsmOptions& o);

}  // namespace ptsb::lsm

#endif  // PTSB_LSM_LSM_STORE_H_
