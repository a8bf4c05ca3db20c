// BTreeStore: the WiredTiger-analog key-value store. A single-file paged
// B+Tree with a leaf page cache, copy-on-write block management, periodic
// checkpoints (alternating header slots), and an optional journal.
#ifndef PTSB_BTREE_BTREE_STORE_H_
#define PTSB_BTREE_BTREE_STORE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btree/block_manager.h"
#include "btree/node.h"
#include "btree/options.h"
#include "fs/filesystem.h"
#include "kv/group_commit_store.h"
#include "kv/log.h"

namespace ptsb::btree {

class BTreeStore : public kv::GroupCommitStore {
 public:
  // Opens (or creates) the tree file at `file_name`, recovering from the
  // newest valid checkpoint and replaying the journal if enabled. A
  // replayed journal is checkpointed and rotated before the store
  // accepts writes, so new records never follow a torn tail.
  static StatusOr<std::unique_ptr<BTreeStore>> Open(
      fs::SimpleFs* fs, const BTreeOptions& options,
      std::string file_name = "btree/tree.db");
  ~BTreeStore() override;

  // Pins the current state as a checkpoint: runs a foreground checkpoint
  // and holds its generation's blocks out of reuse (quarantine cohorts
  // in the block manager) until the snapshot drops.
  StatusOr<std::shared_ptr<const kv::Snapshot>> GetSnapshot() override;
  Status Flush() override;  // checkpoint
  // Waits out a background-lane checkpoint in flight (background_io);
  // checkpoints have no deferred debt beyond that, so nothing else to do.
  Status SettleBackgroundWork() override;
  Status Close() override;
  kv::KvStoreStats GetStats() const override {
    return write_group_.RunExclusive([&] {
      kv::KvStoreStats s = stats_;
      // Live gauge: bytes the block manager holds out of reuse for
      // snapshots (returns to 0 when the last snapshot drops).
      s.snapshot_pinned_bytes = blocks_->quarantined_bytes();
      return s;
    });
  }
  std::string Name() const override { return "btree(wiredtiger-like)"; }
  uint64_t DiskBytesUsed() const override;

  // Introspection for tests and benches.
  uint64_t checkpoint_count() const { return checkpoint_count_; }
  uint64_t CacheBytes() const { return cache_leaf_bytes_; }
  const BlockManager& block_manager() const { return *blocks_; }
  // Structural invariants: sorted keys, route consistency, uniform depth.
  Status CheckStructure();
  // The options the store was opened with.
  const BTreeOptions& options() const { return options_; }

 private:
  class Cursor;
  class SnapshotImpl;

  BTreeStore(fs::SimpleFs* fs, const BTreeOptions& options,
             std::string file_name);

  // One journal record for the whole group, then all leaf updates
  // applied with page writebacks deferred (dirty pages sit in the cache;
  // checkpoint/evict pacing runs once per group).
  Status WriteInternal(const kv::WriteBatch& batch) override;
  // Descends the tree, faulting and LRU-touching leaves in the shared
  // cache.
  Status GetInternal(std::string_view key, std::string* value) override;
  // A private root-to-leaf walk of the pinned checkpoint's on-disk tree
  // (never touching the live cache).
  Status SnapshotGetInternal(const kv::Snapshot& snap, std::string_view key,
                             std::string* value) override;
  // A Cursor walking the leaves in key order. Live: through the leaf
  // cache, invalidated by any write (splits and evictions move items
  // between pages). With a snapshot: over private copies of the pinned
  // checkpoint's on-disk tree, immune to concurrent writes (it never
  // touches the live cache).
  std::unique_ptr<kv::KVStore::Iterator> NewIteratorInternal(
      const kv::Snapshot* snap) override;

  // Applies one batch entry to its leaf (insert/overwrite/erase + split).
  Status ApplyEntry(const kv::WriteBatch::Entry& entry);
  // Eagerly erases every key in [begin, end): B+Trees keep no tombstones,
  // so a range delete is the per-leaf erasure of the covered spans.
  Status ApplyDeleteRange(std::string_view begin, std::string_view end);

  // Called by ~SnapshotImpl: drops the generation pin and releases any
  // quarantine cohorts no remaining snapshot needs.
  void ReleaseSnapshot(const SnapshotImpl& snap);

  Status Recover();
  StatusOr<std::unique_ptr<Node>> ReadNode(const BlockAddr& addr);
  // Ensures children[idx] of `parent` is loaded; returns the child.
  StatusOr<Node*> FetchChild(Node* parent, size_t idx);
  StatusOr<Node*> DescendToLeaf(std::string_view key);

  // One deferred block write: the bytes for a node (or blob) at its
  // freshly allocated offset, issued after the bookkeeping so a batch of
  // them can fan out across background lanes.
  struct PendingWrite {
    uint64_t offset = 0;
    std::string data;
  };
  // Moves a node to a fresh block: allocates it, frees the old one and
  // updates the parent address cell (or the pending root address), then
  // appends the device write to `writes` for the caller to issue.
  Status WriteNode(Node* node, std::vector<PendingWrite>* writes);
  // Issues writes[begin, end) in order on the current timeline.
  Status IssueWrites(const std::vector<PendingWrite>& writes, size_t begin,
                     size_t end);
  // Post-order: writes every dirty node in the loaded subtree.
  Status WriteDirtySubtree(Node* node, std::vector<PendingWrite>* writes);
  // Writes every dirty node, then the free-list blob and the header, then
  // rotates the journal. Foreground checkpoints (Flush, GetSnapshot,
  // Close, and the one after replay) run all of it on the caller's
  // timeline. The paced checkpoint (`paced` set) fans the node writes
  // out over the pool's lanes in contiguous chunks, then runs the rest on
  // lane 0 behind a barrier. Either way the header that publishes the new
  // tree is the last tree write, and frees become reusable only once it
  // is durable.
  Status Checkpoint(bool paced = false);
  // Syncs the journal and replaces it with an empty one. On failure the
  // journal is lost and WriteInternal refuses writes until a reopen.
  Status RotateJournal();
  Status WriteHeader();

  // Leaf cache management.
  void TouchLeaf(Node* leaf);
  void ForgetLeaf(Node* leaf);  // remove from LRU accounting
  Status EvictIfNeeded();

  // Split path after an insert made `node` oversized.
  Status SplitIfNeeded(Node* node);

  static int Depth(const Node* n);
  Status CheckSubtree(Node* node, int depth, int expect_depth,
                      std::string_view lower_bound);

  fs::SimpleFs* fs_;
  BTreeOptions options_;
  std::string file_name_;
  fs::File* file_ = nullptr;
  std::unique_ptr<BlockManager> blocks_;
  std::unique_ptr<Node> root_;
  BlockAddr root_addr_;      // as of the last write of the root
  BlockAddr freelist_addr_;  // current persisted free list blob
  uint64_t checkpoint_gen_ = 0;
  uint64_t checkpoint_count_ = 0;
  uint64_t bytes_since_checkpoint_ = 0;

  std::list<Node*> lru_;  // front = least recently used
  uint64_t cache_leaf_bytes_ = 0;

  // The optional journal (WiredTiger's logging): a kv::LogWriter log of
  // kv::EncodeBatch payloads, one record per write batch (group commit),
  // rotated by every checkpoint.
  std::unique_ptr<kv::LogWriter> journal_;
  bool replaying_ = false;
  // Set when a journal rotation failed mid-way: the tree state is durable
  // but new commits would have no durable record, so Write fail-stops
  // until a reopen rebuilds the journal.
  bool journal_lost_ = false;

  // checkpoint generation -> number of live snapshots pinning it.
  std::map<uint64_t, int> snapshot_pins_;
  bool in_checkpoint_ = false;
};

// The param map of `o`, one entry per ForEachParam row (what
// kv::OpenStore decodes back); the clock travels in kv::EngineOptions.
std::map<std::string, std::string> EncodeEngineParams(const BTreeOptions& o);

}  // namespace ptsb::btree

#endif  // PTSB_BTREE_BTREE_STORE_H_
