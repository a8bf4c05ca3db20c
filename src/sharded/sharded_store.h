// ShardedStore: a concurrent front end over N inner engine instances.
//
// The paper's harness (and this repo's engines) are single-threaded; an
// SSD only shows its internal parallelism when several flash channels are
// kept busy at once (Roh et al. — see PAPERS.md). ShardedStore is the
// testbed's first multi-threaded execution path: it hash-partitions the
// keyspace across N shards, each shard a full instance of any registered
// engine rooted in its own directory, each guarded by its own mutex.
// Writers on different shards proceed in parallel; below them the
// filesystem locks only namespace and allocation changes and the device
// model serializes the actual I/O (see fs/filesystem.h), so the engines'
// CPU work — key comparison, checksums, memtable/index updates — overlaps
// across shards the way a multi-threaded storage engine overlaps it above
// a kernel block layer.
//
// Semantics relative to a single engine instance:
//  - Write(batch) splits the batch by shard and commits one sub-batch per
//    shard touched (one group commit each): inline on the calling thread,
//    or — with queue_depth > 1 and a virtual clock — through the inner
//    engines' WriteAsync so the commits overlap in virtual device time.
//    Entries for the same key land on the same shard, so last-entry-wins
//    order is preserved. Atomicity is per shard: a crash can persist one
//    shard's sub-batch and not another's (like a distributed store
//    without a cross-shard commit protocol).
//  - NewIterator() is a k-way merge over per-shard ordered iterators; the
//    partition is disjoint so no key appears twice. Like every iterator
//    in this codebase it observes the store as of creation, must not run
//    concurrently with writes, and is invalidated by them (the inner
//    engines' debug-build epoch checks fail fast on misuse). A snapshot
//    iterator (NewIterator(ReadOptions)) survives concurrent writes.
//  - GetStats() sums KvStoreStats across shards. user_batches counts
//    per-shard sub-batch commits (each is one WAL/journal/segment
//    record), which is the unit the group-commit accounting cares about.
#ifndef PTSB_SHARDED_SHARDED_STORE_H_
#define PTSB_SHARDED_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "kv/kvstore.h"
#include "kv/registry.h"
#include "sharded/options.h"

namespace ptsb::sharded {

class ShardedStore : public kv::KVStore {
 public:
  // Opens (or reopens) the sharded store described by `options`:
  // engine-level params "shards", "inner_engine" and "queue_depth" are
  // consumed here, every other param passes through to the inner engine
  // factories. Shard i is rooted at <root>/shard-i (root defaults to
  // "sharded"); reopening with the same root recovers every shard through
  // the inner engine's own recovery path. The shard count is part of the
  // on-disk layout: reopening with a different count would strand keys on
  // shards the hash no longer routes to, so it must match.
  static StatusOr<std::unique_ptr<ShardedStore>> Open(
      const kv::EngineOptions& options);
  ~ShardedStore() override;

  // Splits the batch by shard (Put/Delete route by hash; a DeleteRange
  // spans the partition and is broadcast to every shard) and commits the
  // sub-batches (see the file comment).
  Status Write(const kv::WriteBatch& batch) override;
  Status Get(std::string_view key, std::string* value) override;
  // Snapshot-aware point lookup: routes to the owning shard with that
  // shard's component of the composite snapshot.
  Status Get(const kv::ReadOptions& opts, std::string_view key,
             std::string* value) override;
  // Fans each key's lookup out to its owning shard via the inner
  // engine's ReadAsync (shard i on queue i), with at most
  // read_queue_depth sub-lookups in flight — reads hitting distinct
  // shards overlap in virtual device time across SSD channels (see
  // kv::KVStore::MultiGet).
  std::vector<Status> MultiGet(std::span<const std::string_view> keys,
                               std::vector<std::string>* values) override;
  // Routes to the owning shard's ReadAsync.
  kv::ReadHandle ReadAsync(std::string_view key, std::string* value) override;
  std::unique_ptr<kv::KVStore::Iterator> NewIterator() override;
  // With a snapshot: the same k-way merge over per-shard SNAPSHOT
  // iterators (opts.readahead forwards to each shard's cursor), immune
  // to concurrent writes. Without a snapshot, falls back to the live
  // merged cursor.
  std::unique_ptr<kv::KVStore::Iterator> NewIterator(
      const kv::ReadOptions& opts) override;
  // Composes one inner snapshot per shard. Each component is a
  // consistent view of its shard, but the composite is NOT cross-shard
  // atomic: a concurrent multi-shard Write can land in a later shard's
  // component and miss an earlier one — exactly mirroring Write's
  // per-shard atomicity contract.
  StatusOr<std::shared_ptr<const kv::Snapshot>> GetSnapshot() override;
  Status Flush() override;
  Status SettleBackgroundWork() override;
  Status Close() override;
  // Per-shard mutexes make concurrent Write/Get safe.
  bool SupportsConcurrentWriters() const override { return true; }
  kv::KvStoreStats GetStats() const override;
  std::string Name() const override;
  uint64_t DiskBytesUsed() const override;

  // Introspection for tests and benches.
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // Which shard a key routes to (stable across runs: CRC32C of the key).
  int ShardOf(std::string_view key) const;
  // Per-shard stats, for load-balance diagnostics.
  kv::KvStoreStats ShardStats(int shard) const;

 private:
  class MergingIterator;
  class SnapshotImpl;
  struct Shard;

  ShardedStore(ShardedOptions options, std::string root);

  // Async-dispatch path (queue_depth > 1 + clock): commits the touched
  // sub-batches via WriteAsync with at most queue_depth in flight, so
  // their device time overlaps across channels.
  Status WriteAsyncDispatch(const std::vector<kv::WriteBatch>& subs,
                            const std::vector<size_t>& touched);

  ShardedOptions options_;
  std::string root_;
  sim::SimClock* clock_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  // De-synchronizes concurrent Writes' shard-commit order (see Write).
  std::atomic<uint32_t> write_rotation_{0};
  // Orders composite snapshots (kv::Snapshot::sequence is per-store
  // monotonic; the per-shard components each carry their own engine
  // sequence).
  std::atomic<uint64_t> snapshot_seq_{0};
  bool closed_ = false;
};

// Registers the "sharded" engine factory with kv::EngineRegistry.
// Recognized params mirror ShardedOptions field names ("shards",
// "inner_engine", "queue_depth", "read_queue_depth"); all other params
// pass through to the inner engine, so one map configures the whole
// stack.
void RegisterShardedEngine();

// Encodes the ShardedOptions fields into an EngineOptions param map (the
// inverse of what the factory parses). Merge the inner engine's own
// EncodeEngineParams output into the same map to configure the shards.
std::map<std::string, std::string> EncodeEngineParams(
    const ShardedOptions& o);

}  // namespace ptsb::sharded

#endif  // PTSB_SHARDED_SHARDED_STORE_H_
