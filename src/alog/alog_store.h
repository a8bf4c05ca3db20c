// AlogStore: the append-only log engine (Bitcask-like). The limiting case
// of sequential-write friendliness among the testbed's engines: every
// mutation is an append to the active segment file, an in-memory sorted
// index (key -> segment/offset) serves point reads and ordered iteration,
// and a garbage collector rewrites the coldest segments once the dead-byte
// ratio across sealed segments exceeds a trigger. Where the LSM pays
// compaction and the B+Tree pays page writebacks, the log pays only GC —
// the third point of the paper's flash-friendliness trade-off space.
//
// A segment is a kv::LogWriter log with one kv::EncodeBatch record per
// write batch (group commit). Unlike a WAL, the segment IS the value
// store: the index keeps the file offset of each live value.
#ifndef PTSB_ALOG_ALOG_STORE_H_
#define PTSB_ALOG_ALOG_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alog/options.h"
#include "fs/filesystem.h"
#include "kv/group_commit_store.h"
#include "kv/log.h"

namespace ptsb::alog {

class AlogStore : public kv::GroupCommitStore {
 public:
  // Opens (or creates) a store rooted at `dir` within `fs`. Recovery
  // replays every segment in numeric id order, rebuilding the index; a
  // torn record tail stops that segment's replay (the normal crash case),
  // and a bad record followed by an intact one fails the open with
  // Corruption. All pre-existing segments are sealed; new writes go to a
  // fresh segment.
  static StatusOr<std::unique_ptr<AlogStore>> Open(fs::SimpleFs* fs,
                                                   const AlogOptions& options,
                                                   std::string dir = "alog");
  ~AlogStore() override;

  // Freezes the current index (a full copy — the index IS the engine's
  // version state) and pins every current segment: GC may still collect
  // a pinned segment, but its file deletion is deferred until the last
  // pinning snapshot drops (tracked in snapshot_pinned_bytes).
  StatusOr<std::shared_ptr<const kv::Snapshot>> GetSnapshot() override;
  Status Flush() override;  // sync the active segment
  Status SettleBackgroundWork() override;
  Status Close() override;
  std::string Name() const override { return "alog(bitcask-like)"; }
  uint64_t DiskBytesUsed() const override;

  // Introspection for tests and benches.
  uint64_t SegmentCount() const { return segments_.size(); }
  uint64_t LiveKeys() const;
  // Dead payload bytes across sealed segments (what GC reclaims).
  uint64_t DeadBytes() const;
  std::string DebugString() const;
  // The options the store was opened with.
  const AlogOptions& options() const { return options_; }

 private:
  class Cursor;
  class SnapshotImpl;

  // Where the newest record for a key lives. Tombstones stay in the index
  // so GC can carry them forward past older shadowed puts (dropping one is
  // only safe while collecting the oldest segment; see CollectSegment).
  struct Location {
    uint64_t segment = 0;
    uint64_t value_offset = 0;
    uint32_t value_bytes = 0;
    uint32_t entry_bytes = 0;
    bool tombstone = false;
  };
  using Index = std::map<std::string, Location, std::less<>>;

  struct SegmentInfo {
    fs::File* file = nullptr;
    uint64_t payload_bytes = 0;  // sum of encoded entry bytes appended
    uint64_t live_bytes = 0;     // entries currently referenced by the index
    uint64_t live_entries = 0;
    bool sealed = false;
  };

  AlogStore(fs::SimpleFs* fs, const AlogOptions& options, std::string dir);

  // The whole group becomes ONE appended record, then one index update
  // pass; GC runs once per group when the dead-byte trigger is exceeded.
  Status WriteInternal(const kv::WriteBatch& batch) override;
  Status GetInternal(std::string_view key, std::string* value) override;
  // Consults the snapshot's frozen index copy and reads the value from
  // its (possibly GC-deferred) segment file.
  Status SnapshotGetInternal(const kv::Snapshot& snap, std::string_view key,
                             std::string* value) override;
  // Both point reads' body: looks `key` up in `index` (the live one or a
  // snapshot's copy) and reads the value from its segment file.
  Status IndexGet(const Index& index, std::string_view key,
                  std::string* value);
  // The one Cursor: an ordered walk of the in-memory index (live, and
  // invalidated by any write) or of a snapshot's frozen copy (immune to
  // concurrent writes: segments are append-only and the snapshot's pins
  // defer GC file deletion), reading values lazily from the segments. On
  // a snapshot.
  std::unique_ptr<kv::KVStore::Iterator> NewIteratorInternal(
      const kv::Snapshot* snap) override;

  // Appends the batch as ONE record (group commit), rolling to a new
  // segment first if the active one is full, and points the index at the
  // new locations, in entry order (last entry wins on duplicates). GC
  // appends are accounted to gc_bytes_written, user appends to
  // wal_bytes_written (the log is both data and WAL).
  Status ApplyBatchRecord(const kv::WriteBatch& batch, bool gc);
  Status RollSegment();

  // Points the index at `loc` for `key` (newest wins); the previously
  // indexed entry, if any, becomes dead in its segment. A tombstone for a
  // key with no surviving entries is dead immediately and not indexed.
  void ApplyToIndex(kv::WriteBatch::EntryKind kind, std::string_view key,
                    const Location& loc);
  void ReleaseLocation(const Location& loc);

  // Expands every kDeleteRange entry of `batch` into per-key tombstones
  // against the index overlaid with the batch's earlier entries, so the
  // appended record (and hence crash replay) carries plain tombstones.
  // Returns the expanded batch; `*changed` says whether expansion
  // happened (false: append `batch` itself).
  kv::WriteBatch ExpandRangeDeletes(const kv::WriteBatch& batch,
                                    bool* changed) const;

  // Called by ~SnapshotImpl: unpins the snapshot's segments, deleting
  // any zombie whose last pin dropped.
  void ReleaseSnapshot(const SnapshotImpl& snap);
  void UnpinSegment(uint64_t id);
  // The file backing segment `id`: live (segments_) or GC-collected but
  // snapshot-pinned (zombie_segments_).
  fs::File* SegmentFile(uint64_t id) const;

  // Rewrites every live entry (and surviving tombstone) of one sealed
  // segment to the active head, then deletes its file — unless a
  // snapshot pins it, in which case the file lingers as a zombie until
  // the last pin drops. The I/O runs on the background pool: the value
  // reads fan out over its lanes, and the rewrite and the deletion follow
  // on lane 0 behind a barrier. With background_io on, the foreground
  // clock does not advance.
  Status CollectSegment(uint64_t id);
  // Collects segments while a GC trigger holds. Picking a victim is
  // CPU-only and stays on the caller's timeline.
  Status MaybeGc();

  fs::SimpleFs* fs_;
  AlogOptions options_;
  std::string dir_;

  Index index_;
  std::map<uint64_t, SegmentInfo> segments_;  // ordered by segment id
  uint64_t active_id_ = 0;                    // 0 = no active segment yet
  std::unique_ptr<kv::LogWriter> log_;        // the active segment's writer
  uint64_t next_segment_id_ = 1;
  // Running sums over the sealed segments, so the GC trigger check is
  // O(1) per write instead of a scan of segments_.
  uint64_t sealed_payload_bytes_ = 0;
  uint64_t sealed_live_bytes_ = 0;
  bool pressure_check_due_ = true;  // re-check fs headroom at next GC pass
  bool replaying_ = false;

  // segment id -> number of live snapshots pinning it.
  std::map<uint64_t, int> seg_pins_;
  // GC-collected segments whose file deletion is deferred by pins.
  struct ZombieSegment {
    fs::File* file = nullptr;
    uint64_t file_bytes = 0;
  };
  std::map<uint64_t, ZombieSegment> zombie_segments_;
};

// The param map of `o`, one entry per ForEachParam row (what
// kv::OpenStore decodes back); the clock travels in kv::EngineOptions.
std::map<std::string, std::string> EncodeEngineParams(const AlogOptions& o);

// Param map with structural sizes divided by the simulation scale factor
// (the analog of core::ScaledLsmOptions for drivers that shrink the
// paper-scale setup; the floor keeps segments a few filesystem pages).
std::map<std::string, std::string> ScaledEngineParams(uint64_t scale);

}  // namespace ptsb::alog

#endif  // PTSB_ALOG_ALOG_STORE_H_
