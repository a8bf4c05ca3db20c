// The engine-neutral key-value store interface. The storage engines (lsm,
// btree, alog) implement it; the experiment driver, the benches and the
// examples program against it. The engines share one implementation of
// the write and point-read surface, kv::GroupCommitStore.
//
// The API has three pillars:
//
//  1. Batched writes. Write(const WriteBatch&) is the primary mutation
//     path: the engine persists the whole batch under a single WAL or
//     journal record (group commit), then applies the entries in order.
//     Put and Delete are thin one-entry convenience wrappers over Write —
//     correct, but paying the full per-record log overhead each call.
//
//  2. Streaming reads. NewIterator(ReadOptions) returns a cursor (Seek /
//     Valid / Next / key / value) that walks the store in ascending key
//     order without materializing results: a merging iterator over
//     memtable + SSTs in the LSM, a leaf-walking cursor in the B+Tree, an
//     index walk in the log. One cursor serves two views: without a
//     Snapshot it reads the live store as of its creation and is
//     invalidated by writes (create, consume, discard); opened on a
//     Snapshot it reads that frozen view and survives concurrent writes.
//     Point reads are Get (one key, live or on a snapshot).
//
//  3. Construction by name. Callers build a store through
//     kv::OpenStore(EngineOptions) with an engine name ("lsm", "btree",
//     "alog") and a param map, instead of linking against a concrete
//     engine type; an unknown name or a bad param is InvalidArgument
//     (see kv/registry.h).
#ifndef PTSB_KV_KVSTORE_H_
#define PTSB_KV_KVSTORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "kv/write_batch.h"
#include "util/status.h"

namespace ptsb::kv {

// The KvStoreStats field table: one X(type, name) row per field. The
// members, operator== and ForEachField are generated from it, so a new
// counter is a one-row change.
#define PTSB_KV_STORE_STATS_FIELDS(X)                                       \
  X(uint64_t, user_puts)                                                    \
  /* point lookups */                                                       \
  X(uint64_t, user_gets)                                                    \
  X(uint64_t, user_deletes)                                                 \
  /* iterators created */                                                   \
  X(uint64_t, user_scans)                                                   \
  /* Write calls (Put/Delete count as size-1) */                            \
  X(uint64_t, user_batches)                                                 \
  /* sum of key+value sizes put */                                          \
  X(uint64_t, user_bytes_written)                                           \
  X(uint64_t, user_bytes_read)                                              \
                                                                            \
  /* Group-commit accounting. wal_records counts the log records the        \
     engine actually wrote (one per commit GROUP); write_groups counts the  \
     groups committed and write_group_batches the user batches folded into  \
     them. Under a single writer all three track user_batches one-to-one;   \
     under N concurrent writers wal_records/write_groups grow SUB-linearly  \
     while write_group_batches keeps counting every user batch — their      \
     ratio is the measured group occupancy. */                              \
  X(uint64_t, wal_records)                                                  \
  X(uint64_t, write_groups)                                                 \
  X(uint64_t, write_group_batches)                                          \
                                                                            \
  X(uint64_t, wal_bytes_written)        /* WAL / journal / alog */          \
  X(uint64_t, flush_bytes_written)      /* LSM memtable flushes */          \
  X(uint64_t, compaction_bytes_written) /* LSM compaction output */         \
  X(uint64_t, compaction_bytes_read)    /* LSM compaction input */          \
  X(uint64_t, page_write_bytes)         /* B+Tree page writebacks */        \
  X(uint64_t, page_read_bytes)          /* B+Tree page reads */             \
  X(uint64_t, checkpoint_bytes_written) /* B+Tree checkpoints */            \
  X(uint64_t, gc_bytes_written)         /* alog segment-GC output */        \
  X(uint64_t, gc_bytes_read)            /* alog segment-GC input */         \
                                                                            \
  /* engine-level write stalls (LSM L0 pressure) */                         \
  X(uint64_t, stall_count)                                                  \
                                                                            \
  /* Bloom-filter effectiveness on the LSM point-read path (zero in         \
     engines without blooms). A negative is an SST probe the pinned         \
     filter rejected without touching the device — the work blooms          \
     exist to save; a false positive is a probe the filter admitted         \
     whose table turned out not to hold the key — the data-block read       \
     was wasted. true-negative rate = negatives / (negatives + false        \
     positives + hits); the paper's 10-bits-per-key default targets         \
     ~1% false positives. */                                                \
  X(uint64_t, bloom_negatives)                                              \
  X(uint64_t, bloom_false_positives)                                        \
                                                                            \
  /* Snapshot accounting. snapshots_created counts GetSnapshot calls over   \
     the store's lifetime; snapshots_open is a gauge of snapshots handed    \
     out and not yet released; snapshot_pinned_bytes is a gauge of disk     \
     bytes that are dead to the live view but kept on the filesystem only   \
     because an open snapshot still reads them (obsolete SSTs past          \
     compaction, quarantined B+Tree blocks, sealed alog segments past GC).  \
     Both gauges must return to zero after the last snapshot drops — the    \
     stats-verified release the acceptance criteria require. */             \
  X(uint64_t, snapshots_created)                                            \
  X(uint64_t, snapshots_open)                                               \
  X(uint64_t, snapshot_pinned_bytes)                                        \
                                                                            \
  /* Virtual-time breakdown (nanoseconds of simulated time spent inside     \
     each engine mechanism); only filled when a clock is attached. The      \
     time_* fields measure FOREGROUND time: what the user-visible           \
     timeline absorbed. With background_io on, maintenance runs on a        \
     background lane instead, its span lands in time_background_ns, and     \
     the corresponding foreground field stays near zero — the               \
     foreground-vs-background breakdown the paper's interference argument   \
     needs. */                                                              \
  X(int64_t, time_wal_ns)                                                   \
  X(int64_t, time_flush_ns)                                                 \
  X(int64_t, time_compaction_ns)                                            \
  X(int64_t, time_read_path_ns)                                             \
  /* B+Tree leaf writebacks + page reads */                                 \
  X(int64_t, time_writeback_ns)                                             \
  /* B+Tree checkpoints */                                                  \
  X(int64_t, time_checkpoint_ns)                                            \
  /* background-lane spans (background_io) */                               \
  X(int64_t, time_background_ns)

// Engine-side write accounting (application-level write breakdown). The
// paper's WA-A is measured at the block layer (host bytes / user bytes);
// these counters let benches attribute it to engine mechanisms. Under
// group commit, wal_bytes_written grows sub-linearly with batch size:
// record framing is paid once per batch, not once per entry.
struct KvStoreStats {
#define PTSB_KV_STATS_MEMBER(type, name) type name = 0;
  PTSB_KV_STORE_STATS_FIELDS(PTSB_KV_STATS_MEMBER)
#undef PTSB_KV_STATS_MEMBER

  bool operator==(const KvStoreStats&) const = default;

  // Calls f(name, value) for every field, in declaration order.
  template <typename F>
  void ForEachField(F&& f) const {
#define PTSB_KV_STATS_VISIT(type, name) f(#name, name);
    PTSB_KV_STORE_STATS_FIELDS(PTSB_KV_STATS_VISIT)
#undef PTSB_KV_STATS_VISIT
  }
};

// A consistent, read-only view of a store as of one commit sequence
// number. Obtained via KVStore::GetSnapshot() (which returns a
// shared_ptr whose deleter releases the engine-side pins) and consumed
// by passing the raw pointer in ReadOptions. While at least one snapshot
// pins a resource (an SST past compaction, a B+Tree checkpoint's pages,
// an alog segment past GC), the engine defers its physical deletion and
// accounts the held bytes in KvStoreStats::snapshot_pinned_bytes.
class Snapshot {
 public:
  virtual ~Snapshot() = default;
  // The engine's commit sequence number this view freezes. Opaque except
  // for ordering: later snapshots of the same store have larger numbers.
  virtual uint64_t sequence() const = 0;
};

// Per-read options for Get/NewIterator.
struct ReadOptions {
  // Null reads the live store (and, for iterators, keeps the
  // invalidated-by-any-write contract). Non-null must point at a live
  // snapshot of the SAME store; reads then observe exactly the state at
  // the snapshot's sequence, and iterators survive concurrent writes.
  const Snapshot* snapshot = nullptr;
};

class KVStore {
 public:
  // Streaming cursor over the store in ascending key order. Deleted keys
  // are skipped; each user key surfaces once (newest version). After
  // construction the cursor is unpositioned: call Seek or SeekToFirst
  // first. If an I/O error occurs the cursor becomes !Valid() and
  // status() holds the error (end-of-data leaves status() OK).
  class Iterator {
   public:
    virtual ~Iterator() = default;

    virtual void SeekToFirst() = 0;
    // Positions at the first live key >= target.
    virtual void Seek(std::string_view target) = 0;
    virtual bool Valid() const = 0;
    virtual void Next() = 0;

    // Valid only while Valid() is true and until the next move.
    virtual std::string_view key() const = 0;
    virtual std::string_view value() const = 0;

    virtual Status status() const = 0;
  };

  virtual ~KVStore() = default;

  // Write and both Gets may be called from any number of threads at once;
  // iterators on the live store and the lifecycle calls (Flush, Close,
  // SettleBackgroundWork) expect a quiesced store (kv::GroupCommitStore).

  // Primary mutation path: applies all entries atomically with respect to
  // logging (one WAL/journal record for the whole batch).
  virtual Status Write(const WriteBatch& batch) = 0;

  // One-entry conveniences over Write. Each thread reuses one WriteBatch
  // (and its entry's string capacity) across calls, so the steady-state
  // hot path allocates nothing: a fresh batch per call would pay a vector
  // plus two string allocations per operation. Safe because the batch is
  // consumed synchronously by Write before the wrapper returns, and no
  // engine's Write re-enters Put/Delete.
  Status Put(std::string_view key, std::string_view value) {
    thread_local WriteBatch batch;
    batch.SetSingle(WriteBatch::EntryKind::kPut, key, value);
    return Write(batch);
  }
  Status Delete(std::string_view key) {
    thread_local WriteBatch batch;
    batch.SetSingle(WriteBatch::EntryKind::kDelete, key, "");
    return Write(batch);
  }
  // One-entry range delete ([begin, end), end exclusive). begin >= end is
  // a uniform no-op (normalized away by WriteBatch::DeleteRange).
  Status DeleteRange(std::string_view begin, std::string_view end) {
    thread_local WriteBatch batch;
    batch.Clear();
    batch.DeleteRange(begin, end);
    if (batch.empty()) return Status::OK();
    return Write(batch);
  }

  virtual Status Get(std::string_view key, std::string* value) = 0;

  // Snapshot-aware point lookup: a null opts.snapshot reads the live
  // store, like Get(key, value).
  virtual Status Get(const ReadOptions& opts, std::string_view key,
                     std::string* value) = 0;

  // The streaming read path; never returns null. Without a snapshot the
  // cursor reads the live store and is invalidated by any write. With
  // one, it observes exactly the state at the snapshot's sequence and
  // SURVIVES concurrent writes (the engine's write-epoch invalidation
  // check is skipped).
  virtual std::unique_ptr<Iterator> NewIterator(const ReadOptions& opts) = 0;
  // A live cursor with default options.
  std::unique_ptr<Iterator> NewIterator() { return NewIterator(ReadOptions{}); }

  // Freezes the current committed state into a refcounted snapshot. The
  // returned shared_ptr's deleter releases the engine-side pins (under
  // the engine's commit exclusion), so dropping the last reference
  // un-pins every resource the snapshot held.
  virtual StatusOr<std::shared_ptr<const Snapshot>> GetSnapshot() = 0;

  // Forces all buffered state to stable storage (memtable flush or
  // checkpoint), e.g. before measuring space, or before Close.
  virtual Status Flush() = 0;

  // Completes pending background work (compaction debt). Used between a
  // load phase and a measurement phase.
  virtual Status SettleBackgroundWork() = 0;

  // Graceful shutdown; the store can be re-opened from disk state.
  virtual Status Close() = 0;

  virtual KvStoreStats GetStats() const = 0;
  virtual std::string Name() const = 0;

  // Bytes of live engine data on the filesystem (for space amplification).
  virtual uint64_t DiskBytesUsed() const = 0;
};

}  // namespace ptsb::kv

#endif  // PTSB_KV_KVSTORE_H_
