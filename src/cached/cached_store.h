// The "cached" engine: a flash-aware write buffer + read cache wrapped
// around any inner registry engine (eFIND-style host buffering; ROADMAP
// open item 1). User batches land in an in-memory buffer (last-write-wins
// per key, tombstones retained) backed by the wrapper's own append-only
// durability log; the buffer is drained to the inner engine as large
// group-commit batches picked least-coalesced-first, so the inner
// structure sees fewer, bigger, flash-friendlier writes. Point reads that
// miss the buffer probe a pluggable scan-resistant read cache ("lru" or
// "2q") before paying the inner read path.
#ifndef PTSB_CACHED_CACHED_STORE_H_
#define PTSB_CACHED_CACHED_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cached/options.h"
#include "cached/read_cache.h"
#include "fs/filesystem.h"
#include "kv/group_commit_store.h"
#include "kv/log.h"
#include "kv/registry.h"
#include "util/status.h"

namespace ptsb::cached {

class CachedStore : public kv::GroupCommitStore {
 public:
  // Opens (or reopens) the wrapper at eo.root: validates params, checks
  // the META file (layout-critical inner_engine must match the on-disk
  // choice), opens the inner engine under <root>/inner, and replays any
  // durability-log segments into the write buffer.
  static StatusOr<std::unique_ptr<CachedStore>> Open(
      const kv::EngineOptions& eo);

  ~CachedStore() override;

  // Serves buffer/cache hits inline and forwards the misses as ONE inner
  // MultiGet, so they inherit the inner engine's read fan-out.
  std::vector<Status> MultiGet(std::span<const std::string_view> keys,
                               std::vector<std::string>* values) override;
  // Freezes the wrapper state (a copy of the write buffer and buffered
  // range deletes) AND the inner engine (inner_->GetSnapshot()) into one
  // composite view at the wrapper's commit sequence. The buffer copy's
  // bytes are accounted in snapshot_pinned_bytes until release.
  StatusOr<std::shared_ptr<const kv::Snapshot>> GetSnapshot() override;
  Status Flush() override;
  Status SettleBackgroundWork() override;
  Status Close() override;
  kv::KvStoreStats GetStats() const override;
  std::string Name() const override;
  uint64_t DiskBytesUsed() const override;

  // Introspection for benches/tests: the inner engine's own stats (what
  // actually reached the wrapped structure), and the live buffer shape.
  kv::KvStoreStats InnerStats() const { return inner_->GetStats(); }
  uint64_t BufferBytes() const { return buffer_bytes_; }
  size_t BufferEntries() const { return buffer_.size(); }

 private:
  class Cursor;
  class SnapshotImpl;

  // One buffered mutation. absorbed_bytes accumulates the charges of the
  // earlier versions this entry overwrote since it entered the buffer —
  // the flush manager drains least-absorbed-first, keeping the entries
  // that coalesce the most in memory the longest.
  struct BufferEntry {
    std::string value;
    bool tombstone = false;
    uint64_t absorbed_bytes = 0;
  };
  using Buffer = std::map<std::string, BufferEntry, std::less<>>;

  // One buffered range delete ([begin, end), end exclusive). Ingesting a
  // range erases every covered buffer entry, so EVERY buffered entry
  // postdates every buffered range — which is why a flush can emit all
  // ranges first and then any subset of entries and still reproduce the
  // user's order.
  struct BufferedRange {
    std::string begin;
    std::string end;
  };

  // What a read sees above the inner engine: the live write buffer,
  // buffered ranges and read cache over the inner engine's live state,
  // or a snapshot's frozen buffer and range copies over its inner
  // snapshot (no cache: historical values never enter it).
  struct View {
    const Buffer* buffer;
    const std::vector<BufferedRange>* ranges;
    ReadCache* cache;           // null: no read cache in this view
    const kv::Snapshot* inner;  // null: the live view
  };

  CachedStore(const CachedOptions& options, fs::SimpleFs* fs,
              std::string root, std::unique_ptr<kv::KVStore> inner,
              std::unique_ptr<ReadCache> cache);

  int64_t NowNs() const {
    return options_.clock != nullptr ? options_.clock->NowNanos() : 0;
  }
  static uint64_t EntryCharge(std::string_view key, const BufferEntry& e) {
    return key.size() + e.value.size();
  }

  // One durability-log record for the whole group, then the buffer
  // update and any flush it triggers.
  Status WriteInternal(const kv::WriteBatch& batch) override;
  Status GetInternal(std::string_view key, std::string* value) override;
  // Consults the snapshot's frozen buffer/range copies, then the inner
  // engine AT the snapshot's inner snapshot. The live read cache is
  // skipped entirely (it reflects live state, not the snapshot's).
  Status SnapshotGetInternal(const kv::Snapshot& snap, std::string_view key,
                             std::string* value) override;
  // The live view for a null `snap`, else the snapshot's frozen one.
  View ViewOf(const kv::Snapshot* snap) const;
  // The point-read probe above the inner engine, shared by every point
  // read: counts the lookup and, when the view's buffer, ranges or cache
  // answer it, counts the hit and returns its status (filling *value on
  // a found key). Returns nullopt on a miss (counted), which the caller
  // forwards to the inner engine.
  std::optional<Status> ProbeAbove(const View& v, std::string_view key,
                                   std::string* value);
  // Both Gets' body: ProbeAbove, then the inner engine at the view's
  // inner snapshot; a value found below enters the view's read cache.
  Status ViewGet(const View& v, std::string_view key, std::string* value);
  // The one Cursor: a merge of the view's write buffer over an inner
  // cursor. Live, it feeds the read cache and is invalidated by any
  // write; on a snapshot, it merges the frozen buffer copy over the inner
  // engine's snapshot cursor and is immune to concurrent writes.
  // readahead forwards to the inner snapshot cursor (the wrapper's buffer
  // is memory-resident; prefetch only helps below); the live cursor
  // ignores it.
  std::unique_ptr<Iterator> NewIteratorInternal(const kv::Snapshot* snap,
                                                int readahead) override;
  // MultiGet's body, run under the group's commit-exclusion lock.
  std::vector<Status> MultiGetInternal(std::span<const std::string_view> keys,
                                       std::vector<std::string>* values);

  // Applies one mutation to the in-memory buffer and invalidates the read
  // cache for the key. Coalescing stats are skipped during log replay.
  void ApplyEntry(kv::WriteBatch::EntryKind kind, std::string_view key,
                  std::string_view value);
  // Ingests one range delete: erases every covered buffer entry
  // (coalescing credit), invalidates the covered read-cache span, and
  // appends the range to ranges_ (charged to buffer_bytes_).
  void ApplyRangeDelete(std::string_view begin, std::string_view end);
  void ApplyToBuffer(const kv::WriteBatch& batch);
  // Whether `key` falls inside any of the given buffered ranges.
  static bool Covers(const std::vector<BufferedRange>& ranges,
                     std::string_view key);
  // Starts a fresh, empty log segment as the active one.
  Status StartLogSegment();
  // Appends the batch as one record to the active log segment (starting
  // one lazily) at the log_sync_every_bytes cadence.
  Status AppendLogRecord(const kv::WriteBatch& batch);
  // Starts a fresh log segment holding the whole buffer as one synced
  // snapshot record (no record at all if the buffer is empty).
  Status WriteSnapshotSegment();
  // Replays every on-disk log segment into the buffer, then rewrites the
  // log as a single snapshot segment.
  Status ReplayAndCompactLog();
  // Drains the buffer down to target_bytes with one inner group-commit
  // batch (victims picked least-absorbed-first). No-op if already at
  // or under target.
  Status FlushBuffer(uint64_t target_bytes);
  // Kicks a flush when the buffer crosses capacity — inline on the user
  // timeline, or on the background lane under background_io.
  Status MaybeFlush();
  // Rotates an overgrown log: everything still buffered is rewritten as
  // one snapshot record in a fresh segment and older segments are
  // deleted. Requires the inner engine be flushed first so records
  // dropped from the log are durable below.
  Status MaybeCheckpointLog();
  // Deletes every log segment with id < keep_from_id.
  Status DeleteLogSegments(uint64_t keep_from_id);

  // Called by ~SnapshotImpl: releases the pinned-buffer accounting (the
  // inner snapshot releases itself via its own shared_ptr deleter).
  void ReleaseSnapshot(const SnapshotImpl& snap);

  const CachedOptions options_;
  fs::SimpleFs* const fs_;
  const std::string root_;
  std::unique_ptr<kv::KVStore> inner_;
  std::unique_ptr<ReadCache> cache_;  // null when read_cache_bytes == 0

  Buffer buffer_;
  uint64_t buffer_bytes_ = 0;
  // Buffered range deletes in ingest order; flushed (all of them, first
  // in the batch) by the next FlushBuffer. Their begin+end bytes are
  // charged to buffer_bytes_ and tracked separately here.
  std::vector<BufferedRange> ranges_;
  uint64_t ranges_bytes_ = 0;
  // Sum of buffer-copy bytes held by live snapshots (a memory gauge,
  // reported as this layer's share of snapshot_pinned_bytes).
  uint64_t snapshot_pinned_buffer_bytes_ = 0;

  // The durability log: numbered ".wlog" segments under the root, each a
  // kv::LogWriter log of kv::EncodeBatch records.
  std::unique_ptr<kv::LogWriter> log_;  // null until the first append
  uint64_t log_id_ = 0;                 // id of the active segment
  uint64_t next_log_id_ = 0;

  bool replaying_ = false;
};

// Parses CachedOptions out of generic engine options (unknown params are
// the inner engine's business and pass through).
CachedOptions CachedOptionsFromEngineOptions(const kv::EngineOptions& eo);

// Registers the "cached" engine constructor with the global registry.
void RegisterCachedEngine();

// Emits every CachedOptions field as "key=value" params (the wrapper's
// own keys only; docs lint keeps docs/ENGINES.md in sync with this list).
std::map<std::string, std::string> EncodeEngineParams(
    const CachedOptions& options);

}  // namespace ptsb::cached

#endif  // PTSB_CACHED_CACHED_STORE_H_
