// The engine-neutral key-value store interface. LsmStore (RocksDB-like)
// and BTreeStore (WiredTiger-like) implement it; the experiment driver,
// the benches and the examples program against it.
//
// The API has three pillars:
//
//  1. Batched writes. Write(const WriteBatch&) is the primary mutation
//     path: the engine persists the whole batch under a single WAL or
//     journal record (group commit), then applies the entries in order.
//     Put and Delete are thin one-entry convenience wrappers over Write —
//     correct, but paying the full per-record log overhead each call.
//
//  2. Streaming reads. NewIterator() returns a cursor (Seek / Valid /
//     Next / key / value) that walks the store in ascending key order
//     without materializing results: a merging iterator over
//     memtable + SSTs in the LSM, a leaf-walking cursor in the B+Tree.
//     An iterator observes the store as of its creation and is
//     invalidated by writes (no snapshot pinning, like a RocksDB
//     iterator without a snapshot); create, consume, discard.
//     Point reads come in three shapes: Get (one key), MultiGet (a batch
//     of keys, fanned out across read submission lanes so independent
//     lookups overlap in virtual device time), and ReadAsync (one key,
//     caller-managed overlap via ReadHandle — the read-side mirror of
//     WriteAsync/WriteHandle).
//
//  3. Registry construction. Engines self-register by name ("lsm",
//     "btree") in kv::EngineRegistry; callers build stores through
//     kv::OpenStore(EngineOptions) with a string name + option map
//     instead of linking against a concrete engine type (see
//     kv/registry.h).
#ifndef PTSB_KV_KVSTORE_H_
#define PTSB_KV_KVSTORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kv/write_batch.h"
#include "util/status.h"

namespace ptsb::sim {
class SimClock;
}  // namespace ptsb::sim

namespace ptsb::kv {

// What a wrapper engine (cached) does with one KvStoreStats field when it
// folds its inner engine's stats into its own (KvStoreStats::FoldInner).
enum class StatRule {
  // The wrapper keeps its own value: the inner engine's "user" operations
  // are the wrapper's flush traffic, and the inner snapshots are parts of
  // the wrapper's own composite snapshots.
  kOwn,
  // The inner value adds onto the wrapper's: maintenance bytes and time,
  // stalls, bloom probes and pinned bytes happen only below the wrapper.
  kFold,
};

// The KvStoreStats field table: one X(type, name, rule) row per field.
// The members, operator+=, operator==, ForEachField and FoldInner are all
// generated from it, so a new counter is a one-row change.
#define PTSB_KV_STORE_STATS_FIELDS(X)                                       \
  X(uint64_t, user_puts, kOwn)                                              \
  /* point lookups (MultiGet counts per key) */                             \
  X(uint64_t, user_gets, kOwn)                                              \
  X(uint64_t, user_deletes, kOwn)                                           \
  /* iterators created */                                                   \
  X(uint64_t, user_scans, kOwn)                                             \
  /* Write calls (Put/Delete count as size-1) */                            \
  X(uint64_t, user_batches, kOwn)                                           \
  /* sum of key+value sizes put */                                          \
  X(uint64_t, user_bytes_written, kOwn)                                     \
  X(uint64_t, user_bytes_read, kOwn)                                        \
                                                                            \
  /* Group-commit accounting. wal_records counts the log records the       \
     engine actually wrote (one per commit GROUP); write_groups counts the  \
     groups committed and write_group_batches the user batches folded into  \
     them. Under a single writer all three track user_batches one-to-one;   \
     under N concurrent writers wal_records/write_groups grow SUB-linearly  \
     while write_group_batches keeps counting every user batch — their      \
     ratio is the measured group occupancy. */                              \
  X(uint64_t, wal_records, kOwn)                                            \
  X(uint64_t, write_groups, kOwn)                                           \
  X(uint64_t, write_group_batches, kOwn)                                    \
                                                                            \
  X(uint64_t, wal_bytes_written, kFold)        /* WAL / journal / alog */   \
  X(uint64_t, flush_bytes_written, kFold)      /* LSM memtable flushes */   \
  X(uint64_t, compaction_bytes_written, kFold) /* LSM compaction output */  \
  X(uint64_t, compaction_bytes_read, kFold)    /* LSM compaction input */   \
  X(uint64_t, page_write_bytes, kFold)         /* B+Tree page writebacks */ \
  X(uint64_t, page_read_bytes, kFold)          /* B+Tree page reads */      \
  X(uint64_t, checkpoint_bytes_written, kFold) /* B+Tree checkpoints */     \
  X(uint64_t, gc_bytes_written, kFold)         /* alog segment-GC output */ \
  X(uint64_t, gc_bytes_read, kFold)            /* alog segment-GC input */  \
                                                                            \
  /* Wrapper cache layer (the "cached" engine; zero in the bare engines).  \
     A hit is a point lookup served entirely above the inner engine (write  \
     buffer or read cache); a miss is one forwarded to it. NotFound from    \
     the inner engine still counts as a miss — the lookup paid the inner    \
     read path either way. */                                               \
  X(uint64_t, cache_hits, kOwn)                                             \
  X(uint64_t, cache_misses, kOwn)                                           \
  /* Bytes of earlier buffered entries absorbed by newer writes to the     \
     same key before any flush: rewrite traffic the write buffer kept off   \
     the inner engine entirely. */                                          \
  X(uint64_t, buffer_coalesced_bytes, kOwn)                                 \
  /* Write-buffer flush batches committed to the inner engine (each is one \
     inner group commit). */                                                \
  X(uint64_t, flush_batches, kOwn)                                          \
                                                                            \
  /* engine-level write stalls (LSM L0 pressure) */                         \
  X(uint64_t, stall_count, kFold)                                           \
                                                                            \
  /* Bloom-filter effectiveness on the LSM point-read path (zero in        \
     engines without blooms). A negative is an SST probe the pinned         \
     filter rejected without touching the device — the work blooms          \
     exist to save; a false positive is a probe the filter admitted         \
     whose table turned out not to hold the key — the data-block read       \
     was wasted. true-negative rate = negatives / (negatives + false        \
     positives + hits); the paper's 10-bits-per-key default targets         \
     ~1% false positives. */                                                \
  X(uint64_t, bloom_negatives, kFold)                                       \
  X(uint64_t, bloom_false_positives, kFold)                                 \
                                                                            \
  /* Snapshot accounting. snapshots_created counts GetSnapshot calls over  \
     the store's lifetime; snapshots_open is a gauge of snapshots handed    \
     out and not yet released; snapshot_pinned_bytes is a gauge of disk     \
     bytes that are dead to the live view but kept on the filesystem only   \
     because an open snapshot still reads them (obsolete SSTs past          \
     compaction, quarantined B+Tree blocks, sealed alog segments past GC).  \
     Both gauges must return to zero after the last snapshot drops — the    \
     stats-verified release the acceptance criteria require. */             \
  X(uint64_t, snapshots_created, kOwn)                                      \
  X(uint64_t, snapshots_open, kOwn)                                         \
  X(uint64_t, snapshot_pinned_bytes, kFold)                                 \
                                                                            \
  /* Virtual-time breakdown (nanoseconds of simulated time spent inside    \
     each engine mechanism); only filled when a clock is attached. The      \
     time_* fields measure FOREGROUND time: what the user-visible           \
     timeline absorbed. With background_io on, maintenance runs on a       \
     background lane instead, its span lands in time_background_ns, and     \
     the corresponding foreground field stays near zero — the               \
     foreground-vs-background breakdown the paper's interference argument   \
     needs. */                                                              \
  X(int64_t, time_wal_ns, kFold)                                            \
  X(int64_t, time_flush_ns, kFold)                                          \
  X(int64_t, time_compaction_ns, kFold)                                     \
  X(int64_t, time_read_path_ns, kFold)                                      \
  /* B+Tree leaf writebacks + page reads */                                 \
  X(int64_t, time_writeback_ns, kFold)                                      \
  /* B+Tree checkpoints */                                                  \
  X(int64_t, time_checkpoint_ns, kFold)                                     \
  /* background-lane spans (background_io) */                               \
  X(int64_t, time_background_ns, kFold)

// Engine-side write accounting (application-level write breakdown). The
// paper's WA-A is measured at the block layer (host bytes / user bytes);
// these counters let benches attribute it to engine mechanisms. Under
// group commit, wal_bytes_written grows sub-linearly with batch size:
// record framing is paid once per batch, not once per entry.
struct KvStoreStats {
#define PTSB_KV_STATS_MEMBER(type, name, rule) type name = 0;
  PTSB_KV_STORE_STATS_FIELDS(PTSB_KV_STATS_MEMBER)
#undef PTSB_KV_STATS_MEMBER

  // Sums every field, gauges included (the sharded front end's total
  // over its shards, which share one clock).
  KvStoreStats& operator+=(const KvStoreStats& o) {
#define PTSB_KV_STATS_ADD(type, name, rule) name += o.name;
    PTSB_KV_STORE_STATS_FIELDS(PTSB_KV_STATS_ADD)
#undef PTSB_KV_STATS_ADD
    return *this;
  }

  bool operator==(const KvStoreStats&) const = default;

  // Calls f(name, value) for every field, in declaration order.
  template <typename F>
  void ForEachField(F&& f) const {
#define PTSB_KV_STATS_VISIT(type, name, rule) f(#name, name);
    PTSB_KV_STORE_STATS_FIELDS(PTSB_KV_STATS_VISIT)
#undef PTSB_KV_STATS_VISIT
  }

  // Adds the StatRule::kFold fields of an inner engine's stats `in`.
  void FoldInner(const KvStoreStats& in) {
#define PTSB_KV_STATS_FOLD(type, name, rule) \
  if constexpr (StatRule::rule == StatRule::kFold) name += in.name;
    PTSB_KV_STORE_STATS_FIELDS(PTSB_KV_STATS_FOLD)
#undef PTSB_KV_STATS_FOLD
  }
};

// Handle for one in-flight asynchronous commit (KVStore::WriteAsync).
// The commit's side effects (memtable/index/log state, stats) are applied
// at submission; `complete_ns` is the virtual time at which it finishes.
// Wait() joins that time into the shared clock (a monotonic max) and
// returns the commit's status — so handles obtained from the same global
// instant overlap in virtual time. For engines without a clock (or
// without async support) the handle is already complete and Wait() just
// returns the status.
//
// Completion can also be consumed push-style: OnComplete(cb) registers a
// single callback that fires EXACTLY ONCE with the commit status —
// inline, on the registering thread, if the handle is already complete;
// otherwise inside the Wait() that joins the completion time (so the
// callback always observes a clock that has absorbed the commit's
// latency). Handles are move-only: the callback has one owner and one
// firer. Destroying a handle that was never waited is NOT an error — the
// destructor safe-joins (performs the Wait-join and fires the pending
// callback), so a dropped handle can neither lose its latency nor strand
// its callback. This is the documented alternative to making un-waited
// destruction a hard error; see tests/async_io_test.cc.
class WriteHandle {
 public:
  using Callback = std::function<void(const Status&)>;

  WriteHandle() : joined_(true) {}
  // Already-complete (synchronous) commit.
  explicit WriteHandle(Status status)
      : status_(std::move(status)), joined_(true) {}
  WriteHandle(Status status, int64_t complete_ns, sim::SimClock* clock)
      : status_(std::move(status)), complete_ns_(complete_ns),
        clock_(clock), joined_(clock == nullptr || complete_ns <= 0) {}

  WriteHandle(WriteHandle&& o) noexcept { MoveFrom(o); }
  WriteHandle& operator=(WriteHandle&& o) noexcept {
    if (this != &o) {
      Settle();
      MoveFrom(o);
    }
    return *this;
  }
  WriteHandle(const WriteHandle&) = delete;
  WriteHandle& operator=(const WriteHandle&) = delete;

  // Safe-join: never loses the commit's virtual latency or a pending
  // callback.
  ~WriteHandle() { Settle(); }

  // Joins the completion time into the clock, fires the pending callback
  // (if any), and returns the commit status. Idempotent (the join and
  // the callback each happen at most once).
  Status Wait();

  // Registers the completion callback (one per handle). Fires inline if
  // the handle is already complete.
  void OnComplete(Callback cb);

  // True once the completion time has been joined (or there was never a
  // pending timeline to join).
  bool complete() const { return joined_; }

  int64_t complete_ns() const { return complete_ns_; }

 private:
  void MoveFrom(WriteHandle& o) {
    status_ = std::move(o.status_);
    complete_ns_ = o.complete_ns_;
    clock_ = o.clock_;
    joined_ = o.joined_;
    callback_ = std::move(o.callback_);
    o.clock_ = nullptr;
    o.joined_ = true;
    o.callback_ = nullptr;
  }
  void Settle();

  Status status_;
  int64_t complete_ns_ = 0;
  sim::SimClock* clock_ = nullptr;
  bool joined_ = true;
  Callback callback_;
};

// Runs `commit` inside a virtual-time submission lane on `clock` (queue
// id `queue`, which the simulated SSD maps to a flash channel) and wraps
// the result in a WriteHandle. The shared engine-side implementation of
// KVStore::WriteAsync: with no clock — or when the calling thread is
// already inside a lane — the commit runs synchronously on the current
// timeline.
WriteHandle AsyncCommit(sim::SimClock* clock, uint32_t queue,
                        const std::function<Status()>& commit);

// Handle for one in-flight asynchronous point read (KVStore::ReadAsync),
// mirroring WriteHandle: the value is filled at submission, `complete_ns`
// is the virtual time the lookup's lane finished at, and Wait() joins
// that time into the shared clock (monotonic max) and returns the read's
// status. Completion callbacks, move-only ownership and the safe-join
// destructor follow WriteHandle exactly: OnComplete(cb) fires once —
// inline if already complete, inside Wait() (or the destructor's
// safe-join) otherwise.
class ReadHandle {
 public:
  using Callback = std::function<void(const Status&)>;

  ReadHandle() : joined_(true) {}
  // Already-complete (synchronous) read.
  explicit ReadHandle(Status status)
      : status_(std::move(status)), joined_(true) {}
  ReadHandle(Status status, int64_t complete_ns, sim::SimClock* clock)
      : status_(std::move(status)), complete_ns_(complete_ns),
        clock_(clock), joined_(clock == nullptr || complete_ns <= 0) {}

  ReadHandle(ReadHandle&& o) noexcept { MoveFrom(o); }
  ReadHandle& operator=(ReadHandle&& o) noexcept {
    if (this != &o) {
      Settle();
      MoveFrom(o);
    }
    return *this;
  }
  ReadHandle(const ReadHandle&) = delete;
  ReadHandle& operator=(const ReadHandle&) = delete;

  ~ReadHandle() { Settle(); }

  // Joins the completion time into the clock, fires the pending callback
  // (if any), and returns the read status. Idempotent.
  Status Wait();

  // Registers the completion callback (one per handle). Fires inline if
  // the handle is already complete.
  void OnComplete(Callback cb);

  bool complete() const { return joined_; }

  int64_t complete_ns() const { return complete_ns_; }

 private:
  void MoveFrom(ReadHandle& o) {
    status_ = std::move(o.status_);
    complete_ns_ = o.complete_ns_;
    clock_ = o.clock_;
    joined_ = o.joined_;
    callback_ = std::move(o.callback_);
    o.clock_ = nullptr;
    o.joined_ = true;
    o.callback_ = nullptr;
  }
  void Settle();

  Status status_;
  int64_t complete_ns_ = 0;
  sim::SimClock* clock_ = nullptr;
  bool joined_ = true;
  Callback callback_;
};

// Runs `read` inside a virtual-time submission lane on `clock` tagged
// sim::IoClass::kForegroundRead and wraps the result in a ReadHandle.
// The shared engine-side implementation of KVStore::ReadAsync.
ReadHandle AsyncRead(sim::SimClock* clock, uint32_t queue,
                     const std::function<Status()>& read);

// Outcome of one span of background maintenance work (RunBackgroundWork).
struct BackgroundResult {
  Status status;
  int64_t busy_ns = 0;  // virtual time the background lane spent on it
};

// Runs `work` on the engine's background submission lane: a lane on
// `queue` tagged sim::IoClass::kBackground, serialized behind the
// engine's previous background work via `*horizon_ns` (one background
// worker per engine, like a compaction thread) — the foreground clock
// does not advance, so user commit latency no longer absorbs the
// maintenance I/O. `*horizon_ns` is updated to the work's completion
// time; the engine must join it back into the clock (AdvanceTo) at the
// points where the user genuinely waits: write stalls, Flush/Close, and
// SettleBackgroundWork. With no clock — or inside an enclosing lane,
// where a nested fork is impossible — the work simply runs on the
// current timeline (busy_ns stays 0: nothing moved off the foreground).
BackgroundResult RunBackgroundWork(sim::SimClock* clock, uint32_t queue,
                                   int64_t* horizon_ns,
                                   const std::function<Status()>& work);

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

// Per-read options for Get/MultiGet/NewIterator.
struct ReadOptions {
  // Null reads the live store (and, for iterators, keeps the
  // invalidated-by-any-write contract). Non-null must point at a live
  // snapshot of the SAME store; reads then observe exactly the state at
  // the snapshot's sequence, and iterators survive concurrent writes.
  const Snapshot* snapshot = nullptr;
  // Iterator readahead in entries/blocks: > 1 lets the iterator prefetch
  // that many leaves/blocks/values through foreground-read submission
  // lanes (queue striping at the engine's read_queue_depth), so a scan's
  // I/O overlaps across SSD channels instead of running at queue depth 1.
  // 0 or 1 reads one block at a time.
  int readahead = 0;
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

  // Primary mutation path: applies all entries atomically with respect to
  // logging (one WAL/journal record for the whole batch).
  virtual Status Write(const WriteBatch& batch) = 0;

  // Asynchronous variant: submits the commit and returns a handle whose
  // Wait() yields the commit status. Engines with a virtual clock run the
  // commit in a submission lane (kv::AsyncCommit) so several WriteAsync
  // calls issued back-to-back overlap in virtual device time — the
  // mechanism kv::ShardedStore uses to overlap cross-shard sub-batch
  // commits on distinct flash channels. The default implementation is
  // simply synchronous (correct for any engine; no overlap). Like Write,
  // one store must not see concurrent unsynchronized callers unless
  // SupportsConcurrentWriters() is true.
  virtual WriteHandle WriteAsync(const WriteBatch& batch) {
    return WriteHandle(Write(batch));
  }

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

  // Snapshot-aware point lookup. The default forwards live reads and
  // rejects snapshot reads, so only engines that actually implement
  // snapshot visibility accept one.
  virtual Status Get(const ReadOptions& opts, std::string_view key,
                     std::string* value) {
    if (opts.snapshot != nullptr) {
      return Status::NotSupported(Name() + ": snapshot reads not supported");
    }
    return Get(key, value);
  }

  // Batched point reads: one status per key (NotFound for missing keys,
  // which is data, not failure), `values` resized to match. The default
  // implementation is sequential Gets; engines with a virtual clock fan
  // the lookups out across read submission lanes at their
  // `read_queue_depth` (LSM SST probes, B+Tree leaf reads, alog segment
  // reads, per-shard sub-lookups in the sharded store), so independent
  // reads overlap in virtual device time across SSD channels — the
  // read-side counterpart of the WriteBatch group commit.
  virtual std::vector<Status> MultiGet(
      std::span<const std::string_view> keys,
      std::vector<std::string>* values);

  // Snapshot-aware batched point reads. The default runs sequential
  // snapshot Gets (engines override to keep their fan-out under the
  // snapshot's visibility bound).
  virtual std::vector<Status> MultiGet(const ReadOptions& opts,
                                       std::span<const std::string_view> keys,
                                       std::vector<std::string>* values) {
    if (opts.snapshot == nullptr) return MultiGet(keys, values);
    values->assign(keys.size(), std::string());
    std::vector<Status> statuses(keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
      statuses[i] = Get(opts, keys[i], &(*values)[i]);
    }
    return statuses;
  }

  // Asynchronous point read, mirroring WriteAsync: submits the lookup
  // and returns a handle whose Wait() yields its status. The value is
  // filled at submission; engines with a clock run the lookup in a
  // foreground-read submission lane so several ReadAsync calls issued
  // back-to-back overlap in virtual device time. The default
  // implementation is simply synchronous.
  virtual ReadHandle ReadAsync(std::string_view key, std::string* value) {
    return ReadHandle(Get(key, value));
  }

  // The streaming read path. Never returns null; a failed setup yields an
  // iterator whose status() carries the error.
  virtual std::unique_ptr<Iterator> NewIterator() = 0;

  // Snapshot-aware iterator. With a snapshot, the cursor observes exactly
  // the state at the snapshot's sequence and SURVIVES concurrent writes
  // (the engine's write-epoch invalidation check is skipped); with
  // readahead > 1 the cursor prefetches through foreground-read lanes.
  // The default forwards live cursors and errors on snapshot requests
  // (defined out of line: it needs FailedIterator).
  virtual std::unique_ptr<Iterator> NewIterator(const ReadOptions& opts);

  // Freezes the current committed state into a refcounted snapshot. The
  // returned shared_ptr's deleter releases the engine-side pins (under
  // the engine's commit exclusion), so dropping the last reference
  // un-pins every resource the snapshot held. The default errors; all
  // bundled engines override.
  virtual StatusOr<std::shared_ptr<const Snapshot>> GetSnapshot() {
    return Status::NotSupported(Name() + ": snapshots not supported");
  }

  // Forces all buffered state to stable storage (memtable flush or
  // checkpoint), e.g. before measuring space, or before Close.
  virtual Status Flush() = 0;

  // Completes pending background work (compaction debt). Used between a
  // load phase and a measurement phase; engines without background work
  // keep the default no-op.
  virtual Status SettleBackgroundWork() { return Status::OK(); }

  // Graceful shutdown; the store can be re-opened from disk state.
  virtual Status Close() = 0;

  // Whether Write/Get may be called from multiple threads concurrently.
  // The storage engines route Write through a kv::WriteGroup (concurrent
  // callers line up and a leader commits their batches as one log record)
  // and exclude point reads against in-flight commits, so they return
  // true; the sharded front end serializes per shard and returns true as
  // well. Iterators and lifecycle calls (Flush/Close/SettleBackgroundWork)
  // still expect a quiesced store. Drivers must check this before fanning
  // out workers.
  virtual bool SupportsConcurrentWriters() const { return false; }

  virtual KvStoreStats GetStats() const = 0;
  virtual std::string Name() const = 0;

  // Bytes of live engine data on the filesystem (for space amplification).
  virtual uint64_t DiskBytesUsed() const = 0;
};

// The shared MultiGet fan-out: submits each key's Get in its own
// foreground-read lane on queues `base_queue + (i mod depth)` with at
// most `depth` lookups in flight (waiting the oldest before submitting
// past the depth, exactly a bounded submission queue), then waits the
// stragglers. With no clock or depth <= 1 this degrades to sequential
// Gets. Engines whose Get already expresses the whole lookup (LSM,
// B+Tree) implement MultiGet with this directly; alog overrides it with
// a File::SubmitReadAt fan-out instead.
std::vector<Status> FanOutMultiGet(KVStore* store, sim::SimClock* clock,
                                   uint32_t base_queue, int depth,
                                   std::span<const std::string_view> keys,
                                   std::vector<std::string>* values);

// An always-invalid iterator carrying `status` — what NewIterator returns
// when cursor setup itself fails (the API never returns null).
std::unique_ptr<KVStore::Iterator> FailedIterator(Status status);

}  // namespace ptsb::kv

#endif  // PTSB_KV_KVSTORE_H_
