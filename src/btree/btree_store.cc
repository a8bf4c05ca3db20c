#include "btree/btree_store.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "util/crc32.h"
#include "util/encoding.h"
#include "util/logging.h"

namespace ptsb::btree {

namespace {

constexpr uint64_t kHeaderMagic = 0x7074736274726565ULL;  // "ptsbtree"
constexpr uint64_t kHeaderBytes = BlockManager::kUnit;
constexpr uint64_t kDataStart = 2 * kHeaderBytes;

struct Header {
  uint64_t gen = 0;
  BlockAddr root;
  BlockAddr freelist;
};

std::string EncodeHeader(const Header& h) {
  std::string payload;
  PutFixed64(&payload, kHeaderMagic);
  PutFixed64(&payload, h.gen);
  PutFixed64(&payload, h.root.offset);
  PutFixed64(&payload, h.root.bytes);
  PutFixed64(&payload, h.freelist.offset);
  PutFixed64(&payload, h.freelist.bytes);
  std::string out = payload;
  PutFixed32(&out, MaskCrc(Crc32c(payload)));
  out.resize(kHeaderBytes, 0);
  return out;
}

bool DecodeHeader(std::string_view in, Header* h) {
  if (in.size() < 52) return false;
  const std::string_view payload = in.substr(0, 48);
  std::string_view crc_in = in.substr(48, 4);
  uint32_t crc;
  GetFixed32(&crc_in, &crc);
  if (UnmaskCrc(crc) != Crc32c(payload)) return false;
  std::string_view p = payload;
  uint64_t magic;
  GetFixed64(&p, &magic);
  if (magic != kHeaderMagic) return false;
  GetFixed64(&p, &h->gen);
  GetFixed64(&p, &h->root.offset);
  GetFixed64(&p, &h->root.bytes);
  GetFixed64(&p, &h->freelist.offset);
  GetFixed64(&p, &h->freelist.bytes);
  return true;
}

}  // namespace

BTreeStore::BTreeStore(fs::SimpleFs* fs, const BTreeOptions& options,
                       std::string file_name)
    : GroupCommitStore(options),
      fs_(fs),
      options_(options),
      file_name_(std::move(file_name)) {}

BTreeStore::~BTreeStore() {
  DcheckSnapshotsReleased();
  if (opened_ && !closed_) Close().ok();
}

StatusOr<std::unique_ptr<BTreeStore>> BTreeStore::Open(
    fs::SimpleFs* fs, const BTreeOptions& options, std::string file_name) {
  auto store = std::unique_ptr<BTreeStore>(
      new BTreeStore(fs, options, std::move(file_name)));
  PTSB_ASSIGN_OR_RETURN(store->file_, fs->OpenOrCreate(store->file_name_));
  PTSB_RETURN_IF_ERROR(store->file_->Extend(kDataStart));
  store->blocks_ = std::make_unique<BlockManager>(
      store->file_, kDataStart, options.reuse_freed_blocks,
      options.file_grow_bytes);
  PTSB_RETURN_IF_ERROR(store->Recover());

  if (options.journal_enabled) {
    PTSB_ASSIGN_OR_RETURN(fs::File * journal,
                          fs->OpenOrCreate(store->file_name_ + ".journal"));
    if (journal->size() > 0) {
      // Replay through the normal write path, before the journal has a
      // writer: nothing is re-journaled.
      store->replaying_ = true;
      std::vector<kv::DecodedEntry> entries;
      kv::WriteBatch op;
      const Status replayed = kv::ReplayLog(
          journal, [&](uint64_t, std::string_view payload) -> Status {
            PTSB_RETURN_IF_ERROR(kv::DecodeBatch(payload, &entries));
            for (const kv::DecodedEntry& e : entries) {
              op.SetSingle(e.kind, e.key, e.value);
              PTSB_RETURN_IF_ERROR(store->Write(op));
            }
            return Status::OK();
          });
      store->replaying_ = false;
      PTSB_RETURN_IF_ERROR(replayed);
    }
    store->journal_ = std::make_unique<kv::LogWriter>(
        journal, options.journal_sync_every_bytes, /*buffer_bytes=*/0);
    // Never append to the journal just replayed (a torn tail must stay
    // its last record): checkpoint the replayed state, which rotates the
    // journal, before accepting writes.
    if (journal->size() > 0) PTSB_RETURN_IF_ERROR(store->Flush());
  }
  store->opened_ = true;
  return store;
}

Status BTreeStore::Recover() {
  Header best;
  bool found = false;
  for (int slot = 0; slot < 2; slot++) {
    std::string buf(kHeaderBytes, '\0');
    auto got = file_->ReadAt(slot * kHeaderBytes, kHeaderBytes, buf.data());
    if (!got.ok() || *got != kHeaderBytes) continue;
    Header h;
    if (DecodeHeader(buf, &h) && (!found || h.gen > best.gen)) {
      best = h;
      found = true;
    }
  }
  if (!found) {
    // Fresh tree: an empty root leaf.
    root_ = std::make_unique<Node>();
    root_->is_leaf = true;
    root_->dirty = true;
    root_->bytes = root_->RecomputeBytes();
    checkpoint_gen_ = 0;
    return Status::OK();
  }
  checkpoint_gen_ = best.gen;
  freelist_addr_ = best.freelist;
  if (!best.freelist.IsNull()) {
    std::string blob(best.freelist.bytes, '\0');
    PTSB_ASSIGN_OR_RETURN(const uint64_t got,
                          file_->ReadAt(best.freelist.offset,
                                        best.freelist.bytes, blob.data()));
    if (got != best.freelist.bytes) {
      return Status::Corruption("short free-list read");
    }
    PTSB_RETURN_IF_ERROR(blocks_->DecodeFreeList(blob));
  }
  root_addr_ = best.root;
  PTSB_ASSIGN_OR_RETURN(root_, ReadNode(best.root));
  return Status::OK();
}

StatusOr<std::unique_ptr<Node>> BTreeStore::ReadNode(const BlockAddr& addr) {
  PTSB_CHECK(!addr.IsNull());
  std::string buf(addr.bytes, '\0');
  PTSB_ASSIGN_OR_RETURN(const uint64_t got,
                        file_->ReadAt(addr.offset, addr.bytes, buf.data()));
  if (got != addr.bytes) return Status::Corruption("short node read");
  stats_.page_read_bytes += addr.bytes;
  PTSB_ASSIGN_OR_RETURN(auto node, Node::Deserialize(buf));
  node->addr = addr;
  return node;
}

StatusOr<Node*> BTreeStore::FetchChild(Node* parent, size_t idx) {
  Node::ChildRef& ref = parent->children[idx];
  if (ref.child == nullptr) {
    PTSB_ASSIGN_OR_RETURN(auto node, ReadNode(ref.addr));
    node->parent = parent;
    node->route_key = ref.first_key;
    ref.child = std::move(node);
  }
  if (ref.child->is_leaf) TouchLeaf(ref.child.get());
  return ref.child.get();
}

StatusOr<Node*> BTreeStore::DescendToLeaf(std::string_view key) {
  Node* node = root_.get();
  while (!node->is_leaf) {
    const size_t idx = node->FindChildIdx(key);
    PTSB_ASSIGN_OR_RETURN(node, FetchChild(node, idx));
  }
  return node;
}

void BTreeStore::TouchLeaf(Node* leaf) {
  if (leaf->parent == nullptr) return;  // the root is never cache-managed
  if (leaf->in_lru) {
    lru_.splice(lru_.end(), lru_, leaf->lru_it);
  } else {
    leaf->lru_it = lru_.insert(lru_.end(), leaf);
    leaf->in_lru = true;
  }
  cache_leaf_bytes_ += leaf->bytes - leaf->accounted_bytes;
  leaf->accounted_bytes = leaf->bytes;
}

void BTreeStore::ForgetLeaf(Node* leaf) {
  if (!leaf->in_lru) return;
  lru_.erase(leaf->lru_it);
  leaf->in_lru = false;
  cache_leaf_bytes_ -= leaf->accounted_bytes;
  leaf->accounted_bytes = 0;
}

Status BTreeStore::EvictIfNeeded() {
  while (cache_leaf_bytes_ > options_.cache_bytes && !lru_.empty()) {
    Node* leaf = lru_.front();
    if (leaf->dirty) {
      std::vector<PendingWrite> write;
      PTSB_RETURN_IF_ERROR(WriteNode(leaf, &write));
      PTSB_RETURN_IF_ERROR(IssueWrites(write, 0, write.size()));
    }
    ForgetLeaf(leaf);
    Node* parent = leaf->parent;
    const size_t idx = parent->FindChildIdxExact(leaf->route_key);
    parent->children[idx].child.reset();  // destroys `leaf`
    // The destroyed leaf may be one an open cursor points into — and
    // eviction can be triggered by READS (Get fills the cache), not just
    // writes. Count it as an invalidation so the cursors' debug epoch
    // check fails fast; a cursor's own eviction calls resynchronize (its
    // current leaf is never in the LRU while it is positioned there).
    write_epoch_++;
  }
  return Status::OK();
}

Status BTreeStore::WriteNode(Node* node, std::vector<PendingWrite>* writes) {
  std::string data = node->Serialize();
  PTSB_ASSIGN_OR_RETURN(BlockAddr addr, blocks_->Allocate(data.size()));
  data.resize(addr.bytes, 0);
  // Only the device write is postponed. Pending writes may be issued in
  // any order: each targets its own freshly allocated block, and the
  // header that makes any of them reachable is written after all of
  // them complete.
  writes->push_back({addr.offset, std::move(data)});
  if (in_checkpoint_) {
    stats_.checkpoint_bytes_written += addr.bytes;
  } else {
    stats_.page_write_bytes += addr.bytes;
  }
  blocks_->Free(node->addr);
  node->addr = addr;
  if (node->parent != nullptr) {
    const size_t idx = node->parent->FindChildIdxExact(node->route_key);
    node->parent->children[idx].addr = addr;
    node->parent->dirty = true;
  } else {
    root_addr_ = addr;
  }
  node->dirty = false;
  return Status::OK();
}

Status BTreeStore::IssueWrites(const std::vector<PendingWrite>& writes,
                               size_t begin, size_t end) {
  for (size_t j = begin; j < end; j++) {
    PTSB_RETURN_IF_ERROR(file_->WriteAt(writes[j].offset, writes[j].data));
  }
  return Status::OK();
}

Status BTreeStore::WriteDirtySubtree(Node* node,
                                     std::vector<PendingWrite>* writes) {
  if (!node->is_leaf) {
    for (auto& ref : node->children) {
      if (ref.child != nullptr) {
        PTSB_RETURN_IF_ERROR(WriteDirtySubtree(ref.child.get(), writes));
      }
    }
  }
  if (node->dirty) PTSB_RETURN_IF_ERROR(WriteNode(node, writes));
  return Status::OK();
}

Status BTreeStore::WriteHeader() {
  Header h;
  h.gen = ++checkpoint_gen_;
  h.root = root_addr_;
  h.freelist = freelist_addr_;
  const std::string data = EncodeHeader(h);
  const uint64_t slot = h.gen % 2;
  PTSB_RETURN_IF_ERROR(file_->WriteAt(slot * kHeaderBytes, data));
  stats_.checkpoint_bytes_written += kHeaderBytes;
  return file_->Sync();
}

Status BTreeStore::Checkpoint(bool paced) {
  // A paced checkpoint runs its phases on the pool's lanes; a foreground
  // one runs them inline.
  auto run = [&](int lane, const std::function<Status()>& work) {
    return paced ? RunBackground(lane, work) : work();
  };
  in_checkpoint_ = true;
  Status s = [&]() -> Status {
    // Phase 1 (CPU only): serialize and allocate every dirty node in
    // post-order, collecting the device writes.
    std::vector<PendingWrite> writes;
    PTSB_RETURN_IF_ERROR(WriteDirtySubtree(root_.get(), &writes));

    // Phase 2: the block writes. A paced checkpoint fans them out in
    // contiguous chunks, so each lane still issues ascending offsets.
    const auto issue = [&](size_t begin, size_t end) {
      return IssueWrites(writes, begin, end);
    };
    PTSB_RETURN_IF_ERROR(paced ? FanOut(writes.size(), issue)
                               : issue(0, writes.size()));

    // Phase 3, ordered after every block write: the post-commit free
    // list, the header, then the free bookkeeping.
    if (paced) pool_.Barrier();
    return run(0, [&]() -> Status {
      // The blob is allocated from the currently-available list only
      // (never from blocks the previous checkpoint still references),
      // then the old blob becomes free.
      const BlockAddr old_blob = freelist_addr_;
      std::string encoded = blocks_->EncodeMergedFreeList(old_blob);
      PTSB_ASSIGN_OR_RETURN(BlockAddr blob,
                            blocks_->Allocate(encoded.size() + 64));
      encoded = blocks_->EncodeMergedFreeList(old_blob);
      PTSB_CHECK_LE(encoded.size(), blob.bytes);
      encoded.resize(blob.bytes, 0);
      PTSB_RETURN_IF_ERROR(file_->WriteAt(blob.offset, encoded));
      stats_.checkpoint_bytes_written += blob.bytes;
      freelist_addr_ = blob;

      PTSB_RETURN_IF_ERROR(WriteHeader());

      // The new header is durable: deferred frees become reusable —
      // unless a live snapshot pins an older checkpoint, whose tree may
      // still reference them; then they wait in a quarantine cohort until
      // the last such snapshot drops. (Crash recovery ignores quarantine:
      // the persisted free list already counts these blocks as free,
      // which is correct because a crash drops every snapshot.)
      if (snapshot_pins_.empty()) {
        blocks_->MergePendingFrees();
      } else {
        blocks_->QuarantinePendingFrees(checkpoint_gen_);
      }
      blocks_->FreeImmediately(old_blob);
      return Status::OK();
    });
  }();
  in_checkpoint_ = false;
  PTSB_RETURN_IF_ERROR(s);
  checkpoint_count_++;
  bytes_since_checkpoint_ = 0;

  // Rotate the journal: everything it held is now in the checkpoint.
  if (journal_ != nullptr) return run(0, [&] { return RotateJournal(); });
  return Status::OK();
}

Status BTreeStore::RotateJournal() {
  const Status rotated = [&]() -> Status {
    PTSB_RETURN_IF_ERROR(journal_->Sync());
    const std::string jname = file_name_ + ".journal";
    journal_.reset();
    PTSB_RETURN_IF_ERROR(fs_->Delete(jname));
    PTSB_ASSIGN_OR_RETURN(fs::File * file, fs_->Create(jname));
    journal_ = std::make_unique<kv::LogWriter>(
        file, options_.journal_sync_every_bytes, /*buffer_bytes=*/0);
    return Status::OK();
  }();
  if (!rotated.ok()) {
    // Everything up to here IS durable (the checkpoint header synced
    // before), but with the rotation half-done there is no journal to
    // give further commits a durable record — acknowledging them would
    // silently drop them at the next crash. Refuse writes until a reopen
    // rebuilds the journal (see WriteInternal).
    journal_.reset();
    journal_lost_ = true;
  }
  return rotated;
}

Status BTreeStore::SplitIfNeeded(Node* node) {
  while (node != nullptr) {
    const uint64_t max_bytes =
        node->is_leaf ? options_.leaf_max_bytes : options_.internal_max_bytes;
    const size_t entry_count =
        node->is_leaf ? node->items.size() : node->children.size();
    if (node->bytes <= max_bytes || entry_count < 2) {
      node = nullptr;
      break;
    }

    auto right = std::make_unique<Node>();
    Node* right_raw = right.get();
    right->is_leaf = node->is_leaf;
    right->dirty = true;
    node->dirty = true;

    std::string separator;
    if (node->is_leaf) {
      // WiredTiger-style split: the left page keeps ~85% (split_pct), so
      // disk pages stay near full and the per-update writeback volume
      // approaches the page size.
      const uint64_t keep = node->bytes * 85 / 100;
      uint64_t acc = Node::kNodeOverhead;
      size_t split = 1;
      for (size_t i = 0; i + 1 < node->items.size(); i++) {
        acc += node->items[i].first.size() + node->items[i].second.size() +
               Node::kLeafItemOverhead;
        if (acc >= keep) {
          split = i + 1;
          break;
        }
      }
      right->items.assign(std::make_move_iterator(node->items.begin() + split),
                          std::make_move_iterator(node->items.end()));
      node->items.erase(node->items.begin() + split, node->items.end());
      separator = right->items.front().first;
    } else {
      const size_t split = node->children.size() / 2;
      right->children.assign(
          std::make_move_iterator(node->children.begin() + split),
          std::make_move_iterator(node->children.end()));
      node->children.erase(node->children.begin() + split,
                           node->children.end());
      for (auto& ref : right->children) {
        if (ref.child != nullptr) ref.child->parent = right_raw;
      }
      separator = right->children.front().first_key;
    }
    node->bytes = node->RecomputeBytes();
    right->bytes = right->RecomputeBytes();
    right->route_key = separator;

    Node* parent = node->parent;
    if (parent == nullptr) {
      // Grow the tree: a fresh internal root adopting both halves.
      PTSB_CHECK(node == root_.get());
      auto new_root = std::make_unique<Node>();
      new_root->is_leaf = false;
      new_root->dirty = true;
      Node::ChildRef left_ref;
      left_ref.first_key = node->route_key;  // "" for the old root
      left_ref.addr = node->addr;
      Node::ChildRef right_ref;
      right_ref.first_key = separator;
      std::unique_ptr<Node> old_root = std::move(root_);
      root_ = std::move(new_root);
      old_root->parent = root_.get();
      right_raw->parent = root_.get();
      left_ref.child = std::move(old_root);
      right_ref.child = std::move(right);
      root_->children.push_back(std::move(left_ref));
      root_->children.push_back(std::move(right_ref));
      root_->bytes = root_->RecomputeBytes();
      Node* left_raw = root_->children[0].child.get();
      if (left_raw->is_leaf) {
        // Both halves are now cache-managed leaves.
        TouchLeaf(left_raw);
        TouchLeaf(right_raw);
      }
      node = nullptr;  // the new root holds 2 children; it cannot overflow
    } else {
      const size_t idx = parent->FindChildIdxExact(node->route_key);
      Node::ChildRef right_ref;
      right_ref.first_key = separator;
      right_raw->parent = parent;
      right_ref.child = std::move(right);
      parent->children.insert(parent->children.begin() + idx + 1,
                              std::move(right_ref));
      parent->bytes = parent->RecomputeBytes();
      parent->dirty = true;
      if (right_raw->is_leaf) {
        TouchLeaf(node);  // re-account shrunken left leaf
        TouchLeaf(right_raw);
      }
      node = parent;  // the parent may overflow in turn
    }
  }
  return Status::OK();
}

Status BTreeStore::ApplyEntry(const kv::WriteBatch::Entry& entry) {
  if (entry.kind == kv::WriteBatch::EntryKind::kDeleteRange) {
    // entry.value holds the exclusive range end (see kv::WriteBatch).
    return ApplyDeleteRange(entry.key, entry.value);
  }
  const std::string_view key = entry.key;
  PTSB_ASSIGN_OR_RETURN(Node* leaf, DescendToLeaf(key));
  auto it = std::lower_bound(
      leaf->items.begin(), leaf->items.end(), key,
      [](const auto& item, std::string_view k) { return item.first < k; });
  const bool present = it != leaf->items.end() && it->first == key;
  if (entry.kind == kv::WriteBatch::EntryKind::kPut) {
    const std::string_view value = entry.value;
    if (present) {
      leaf->bytes += value.size();
      leaf->bytes -= it->second.size();
      it->second.assign(value.data(), value.size());
    } else {
      leaf->items.emplace(it, std::string(key), std::string(value));
      leaf->bytes += key.size() + value.size() + Node::kLeafItemOverhead;
    }
  } else {
    if (!present) return Status::OK();
    leaf->bytes -= key.size() + it->second.size() + Node::kLeafItemOverhead;
    leaf->items.erase(it);
  }
  leaf->dirty = true;
  TouchLeaf(leaf);
  return SplitIfNeeded(leaf);
}

Status BTreeStore::ApplyDeleteRange(std::string_view begin,
                                    std::string_view end) {
  if (begin >= end) return Status::OK();
  // Repeated root-to-leaf descents: each pass erases the covered span of
  // one leaf. The descent tracks the closest right-sibling route key, so
  // multi-leaf ranges hop to the next leaf's subtree without cursor
  // machinery (the route key is the smallest key the next subtree can
  // hold, and it is strictly greater than every key visited so far, so
  // the loop terminates).
  std::string cursor(begin);
  for (;;) {
    Node* node = root_.get();
    std::string next_subtree;
    bool has_next = false;
    while (!node->is_leaf) {
      const size_t idx = node->FindChildIdx(cursor);
      if (idx + 1 < node->children.size()) {
        next_subtree = node->children[idx + 1].first_key;
        has_next = true;
      }
      PTSB_ASSIGN_OR_RETURN(node, FetchChild(node, idx));
    }
    const auto first = std::lower_bound(
        node->items.begin(), node->items.end(), std::string_view(cursor),
        [](const auto& item, std::string_view k) { return item.first < k; });
    const auto last = std::lower_bound(
        first, node->items.end(), end,
        [](const auto& item, std::string_view k) { return item.first < k; });
    if (first != last) {
      for (auto it = first; it != last; ++it) {
        node->bytes -=
            it->first.size() + it->second.size() + Node::kLeafItemOverhead;
      }
      node->items.erase(first, last);  // empty leaves are allowed
      node->dirty = true;
      TouchLeaf(node);
    }
    if (!has_next || next_subtree >= end) return Status::OK();
    cursor = next_subtree;
  }
}

Status BTreeStore::WriteInternal(const kv::WriteBatch& batch) {
  if (journal_lost_) {
    // A failed journal rotation left commits without a durable record;
    // fail-stop instead of acknowledging writes a crash would drop.
    return Status::IoError(
        "btree: journal unavailable after failed rotation; reopen to "
        "recover");
  }
  if (journal_ != nullptr && !replaying_) {
    // Group commit: one journal record, one crc, for the whole batch.
    const uint64_t journal_before = journal_->bytes_written();
    PTSB_RETURN_IF_ERROR(
        journal_->Add(kv::EncodeBatch(batch, nullptr)).status());
    stats_.wal_bytes_written += journal_->bytes_written() - journal_before;
    stats_.wal_records++;
  }
  // Apply all entries before any checkpoint/eviction pacing: page
  // writebacks for the whole batch are deferred to one decision point.
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    PTSB_RETURN_IF_ERROR(ApplyEntry(e));
  }

  bytes_since_checkpoint_ += batch.ByteSize();
  if (!replaying_ &&
      bytes_since_checkpoint_ >= options_.checkpoint_every_bytes) {
    // Paced (not user-requested) checkpoints run on the background
    // lanes: with background_io on, the commit returns without absorbing
    // the checkpoint's device time.
    PTSB_RETURN_IF_ERROR(Checkpoint(/*paced=*/true));
  }
  return EvictIfNeeded();
}

Status BTreeStore::GetInternal(std::string_view key, std::string* value) {
  ChargeCpu(options_.cpu_get_ns);
  stats_.user_gets++;
  PTSB_ASSIGN_OR_RETURN(Node* leaf, DescendToLeaf(key));
  const auto it = std::lower_bound(
      leaf->items.begin(), leaf->items.end(), key,
      [](const auto& item, std::string_view k) { return item.first < k; });
  Status result = Status::NotFound("no such key");
  if (it != leaf->items.end() && it->first == key) {
    *value = it->second;
    stats_.user_bytes_read += value->size();
    result = Status::OK();
  }
  PTSB_RETURN_IF_ERROR(EvictIfNeeded());
  return result;
}

// A pinned checkpoint: the tree image rooted at `root_` stays readable on
// disk because the block manager quarantines (instead of reusing) every
// block freed by later checkpoints while this generation is pinned.
// Contract (as in the LSM engine): the snapshot must outlive cursors
// created from it and must be released before the store is destroyed.
class BTreeStore::SnapshotImpl : public StoreSnapshot {
 public:
  explicit SnapshotImpl(BTreeStore* store)
      : StoreSnapshot(store), store_(store) {}
  ~SnapshotImpl() override { store_->ReleaseSnapshot(*this); }
  uint64_t sequence() const override { return gen_; }

  BTreeStore* store_;
  uint64_t gen_ = 0;   // pinned checkpoint generation
  BlockAddr root_;     // that checkpoint's root node
};

// Leaf-walking cursor: descends to the target leaf, then streams items in
// order, hopping to the next leaf through the stack of internal-node
// positions.
//
// Live view (`snap_` null): walks the live tree through the shared leaf
// cache. The cache cap is enforced only when moving OFF a leaf (the
// current leaf must stay resident while views into it are live); internal
// nodes are pinned by design, so stack frames never dangle. Any write
// invalidates the cursor (splits and evictions move items between pages).
//
// Snapshot view: walks the pinned checkpoint's on-disk tree, owning a
// private copy of every node it reads (the frames' and the leaf's
// `owned`), so it never links a node into the live cache and is immune
// to live-tree splits and evictions — no write-epoch check. Each movement
// runs under the commit-exclusion lock (the File substrate has a
// single-user contract), but the cursor stays valid across writes made
// between movements. The snapshot must outlive the cursor.
class BTreeStore::Cursor : public kv::KVStore::Iterator {
 public:
  // A null `snap` selects the live view.
  Cursor(BTreeStore* store, const SnapshotImpl* snap)
      : store_(store), snap_(snap), epoch_(store->write_epoch_) {}

  void SeekToFirst() override { Seek(""); }

  void Seek(std::string_view target) override {
    Move([&] { SeekImpl(target); });
  }

  bool Valid() const override {
    CheckEpoch();
    return valid_;
  }

  void Next() override {
    Move([&] {
      if (!valid_) return;
      valid_ = false;
      item_++;
      if (item_ < leaf_->items.size()) {
        SetCurrent();
      } else {
        AdvanceToNextLeaf();
      }
    });
  }

  std::string_view key() const override {
    CheckEpoch();
    return leaf_->items[item_].first;
  }
  std::string_view value() const override {
    CheckEpoch();
    return leaf_->items[item_].second;
  }
  Status status() const override { return status_; }

 private:
  struct Frame {
    Node* node;  // internal node (never cache-evicted in the live view)
    size_t idx;  // child currently being explored
    std::unique_ptr<Node> owned;  // snapshot view: holds `node`
  };

  // Debug-build fail-fast on a live cursor used after a write: splits move
  // items between pages and evictions free the leaf this cursor points
  // into, so continuing would silently read stale (or freed) state.
  void CheckEpoch() const {
    PTSB_DCHECK(snap_ != nullptr || epoch_ == store_->write_epoch_)
        << "B+Tree cursor used after a write to the store; iterators "
           "observe the store as of creation and are invalidated by "
           "writes (create, consume, discard)";
  }

  // Runs one cursor movement: epoch-checked in the live view, under the
  // commit-exclusion lock in the snapshot view.
  template <typename F>
  void Move(const F& move) {
    if (snap_ == nullptr) {
      CheckEpoch();
      move();
    } else {
      store_->write_group_.RunExclusive(move);
    }
  }

  // Live view only: enforces the cache cap while the cursor holds no
  // leaf, then resyncs the epoch so its own eviction doesn't
  // self-invalidate.
  void EvictIfLive() {
    if (snap_ != nullptr) return;
    status_ = store_->EvictIfNeeded();
    epoch_ = store_->write_epoch_;
  }

  // The root: the live tree's, or a private copy of the snapshot's held
  // in `*owned`.
  StatusOr<Node*> LoadRoot(std::unique_ptr<Node>* owned) {
    if (snap_ == nullptr) return store_->root_.get();
    PTSB_ASSIGN_OR_RETURN(*owned, store_->ReadNode(snap_->root_));
    return owned->get();
  }

  // Child `idx` of `parent`: faulted through the shared cache in the live
  // view, a private copy held in `*owned` in the snapshot view.
  StatusOr<Node*> LoadChild(Node* parent, size_t idx,
                            std::unique_ptr<Node>* owned) {
    if (snap_ == nullptr) return store_->FetchChild(parent, idx);
    PTSB_ASSIGN_OR_RETURN(*owned,
                          store_->ReadNode(parent->children[idx].addr));
    return owned->get();
  }

  void SeekImpl(std::string_view target) {
    status_ = Status::OK();
    valid_ = false;
    stack_.clear();
    SetLeaf(nullptr, nullptr);
    // Enforce the cache cap before loading anything: short seek-bounded
    // scans never reach AdvanceToNextLeaf, and without this the cursor
    // path would grow the leaf cache without bound.
    EvictIfLive();
    if (!status_.ok()) return;
    std::unique_ptr<Node> owned;
    StatusOr<Node*> node = LoadRoot(&owned);
    while (node.ok() && !(*node)->is_leaf) {
      const size_t idx = (*node)->FindChildIdx(target);
      stack_.push_back({*node, idx, std::move(owned)});
      node = LoadChild(stack_.back().node, idx, &owned);
    }
    if (!node.ok()) {
      status_ = node.status();
      return;
    }
    SetLeaf(*node, std::move(owned));
    const auto it = std::lower_bound(
        leaf_->items.begin(), leaf_->items.end(), target,
        [](const auto& item, std::string_view k) { return item.first < k; });
    item_ = static_cast<size_t>(it - leaf_->items.begin());
    if (item_ < leaf_->items.size()) {
      SetCurrent();
    } else {
      AdvanceToNextLeaf();
    }
  }

  void SetLeaf(Node* leaf, std::unique_ptr<Node> owned) {
    leaf_ = leaf;
    owned_leaf_ = std::move(owned);
    item_ = 0;
  }

  void SetCurrent() {
    valid_ = true;
    store_->stats_.user_bytes_read +=
        leaf_->items[item_].first.size() + leaf_->items[item_].second.size();
  }

  void AdvanceToNextLeaf() {
    SetLeaf(nullptr, nullptr);
    // Off the previous leaf: the only safe point to enforce the cache cap.
    EvictIfLive();
    while (status_.ok() && !stack_.empty()) {
      Frame& top = stack_.back();
      top.idx++;
      if (top.idx >= top.node->children.size()) {
        stack_.pop_back();
        continue;
      }
      // Descend the leftmost path under the next sibling.
      Node* node = top.node;
      size_t idx = top.idx;
      std::unique_ptr<Node> owned;
      for (;;) {
        auto child = LoadChild(node, idx, &owned);
        if (!child.ok()) {
          status_ = child.status();
          return;
        }
        node = *child;
        if (node->is_leaf) break;
        stack_.push_back({node, 0, std::move(owned)});
        idx = 0;
      }
      if (node->items.empty()) continue;  // deletes can leave empty leaves
      SetLeaf(node, std::move(owned));
      SetCurrent();
      return;
    }
  }

  BTreeStore* store_;
  const SnapshotImpl* snap_;  // null: live view
  // store_->write_epoch_ at creation, resynced after this cursor's own
  // eviction calls (which run while it holds no leaf).
  uint64_t epoch_;
  std::vector<Frame> stack_;
  Node* leaf_ = nullptr;
  std::unique_ptr<Node> owned_leaf_;  // snapshot view: holds `leaf_`
  size_t item_ = 0;
  bool valid_ = false;
  Status status_;
};

StatusOr<std::shared_ptr<const kv::Snapshot>> BTreeStore::GetSnapshot() {
  PTSB_CHECK(!closed_);
  return write_group_.RunExclusive(
      [&]() -> StatusOr<std::shared_ptr<const kv::Snapshot>> {
        // A snapshot IS a checkpoint here: make the current state one,
        // then pin its generation. Checkpoint writebacks move leaves
        // around, so live cursors are invalidated like any write.
        write_epoch_++;
        JoinBackgroundWork();
        PTSB_RETURN_IF_ERROR(Checkpoint());
        auto snap = std::make_shared<SnapshotImpl>(this);
        snap->gen_ = checkpoint_gen_;
        snap->root_ = root_addr_;
        snapshot_pins_[snap->gen_]++;
        stats_.snapshots_created++;
        stats_.snapshots_open++;
        return std::shared_ptr<const kv::Snapshot>(std::move(snap));
      });
}

void BTreeStore::ReleaseSnapshot(const SnapshotImpl& snap) {
  write_group_.RunExclusive([&] {
    auto it = snapshot_pins_.find(snap.gen_);
    PTSB_CHECK(it != snapshot_pins_.end());
    if (--it->second == 0) snapshot_pins_.erase(it);
    // Cohort G is needed only by snapshots pinning a generation < G:
    // everything at or below the oldest remaining pin can be reused.
    const uint64_t min_pinned = snapshot_pins_.empty()
                                    ? std::numeric_limits<uint64_t>::max()
                                    : snapshot_pins_.begin()->first;
    blocks_->ReleaseQuarantinedUpTo(min_pinned);
    stats_.snapshots_open--;
  });
}

Status BTreeStore::SnapshotGetInternal(const kv::Snapshot& snapshot,
                                       std::string_view key,
                                       std::string* value) {
  const auto& snap = static_cast<const SnapshotImpl&>(snapshot);
  ChargeCpu(options_.cpu_get_ns);
  stats_.user_gets++;
  PTSB_CHECK(!snap.root_.IsNull());
  // Private root-to-leaf walk of the pinned on-disk tree: nothing is
  // linked into the live cache, so concurrent writes (excluded only for
  // the duration of this call, not the snapshot's lifetime) never see or
  // perturb these nodes.
  PTSB_ASSIGN_OR_RETURN(std::unique_ptr<Node> node, ReadNode(snap.root_));
  while (!node->is_leaf) {
    const size_t idx = node->FindChildIdx(key);
    const BlockAddr child = node->children[idx].addr;
    PTSB_ASSIGN_OR_RETURN(node, ReadNode(child));
  }
  const auto it = std::lower_bound(
      node->items.begin(), node->items.end(), key,
      [](const auto& item, std::string_view k) { return item.first < k; });
  if (it == node->items.end() || it->first != key) {
    return Status::NotFound("no such key");
  }
  *value = it->second;
  stats_.user_bytes_read += value->size();
  return Status::OK();
}

std::unique_ptr<kv::KVStore::Iterator> BTreeStore::NewIteratorInternal(
    const kv::Snapshot* snap) {
  return std::make_unique<Cursor>(this,
                                  static_cast<const SnapshotImpl*>(snap));
}

Status BTreeStore::Flush() {
  PTSB_CHECK(!closed_);
  write_epoch_++;  // checkpoint writebacks/evictions move leaves around
  // The user asked for durability: wait out any in-flight background
  // checkpoint, then run this one on the foreground.
  JoinBackgroundWork();
  return Checkpoint();
}

Status BTreeStore::SettleBackgroundWork() {
  PTSB_CHECK(!closed_);
  JoinBackgroundWork();
  return Status::OK();
}

Status BTreeStore::Close() {
  if (closed_) return Status::OK();
  JoinBackgroundWork();
  PTSB_RETURN_IF_ERROR(Checkpoint());
  closed_ = true;
  return Status::OK();
}

uint64_t BTreeStore::DiskBytesUsed() const {
  uint64_t total = file_->allocated_bytes();
  if (journal_ != nullptr) total += journal_->file()->size();
  return total;
}

int BTreeStore::Depth(const Node* n) {
  int d = 1;
  while (!n->is_leaf) {
    // Follow any loaded child; structure checks load everything first.
    const Node* next = nullptr;
    for (const auto& ref : n->children) {
      if (ref.child != nullptr) {
        next = ref.child.get();
        break;
      }
    }
    PTSB_CHECK(next != nullptr) << "Depth() requires a fully loaded tree";
    n = next;
    d++;
  }
  return d;
}

Status BTreeStore::CheckSubtree(Node* node, int depth, int expect_depth,
                                std::string_view lower_bound) {
  if (node->is_leaf) {
    if (depth != expect_depth) {
      return Status::Corruption("non-uniform leaf depth");
    }
    for (size_t i = 0; i < node->items.size(); i++) {
      if (i > 0 && node->items[i - 1].first >= node->items[i].first) {
        return Status::Corruption("leaf keys out of order");
      }
      if (node->parent != nullptr && node->items[i].first < lower_bound &&
          !lower_bound.empty()) {
        return Status::Corruption("leaf key below its route key");
      }
    }
    return Status::OK();
  }
  if (node->children.empty()) {
    return Status::Corruption("internal node with no children");
  }
  for (size_t i = 0; i < node->children.size(); i++) {
    auto& ref = node->children[i];
    if (i > 0 && node->children[i - 1].first_key >= ref.first_key) {
      return Status::Corruption("child keys out of order");
    }
    PTSB_ASSIGN_OR_RETURN(Node* child, FetchChild(node, i));
    if (child->route_key != ref.first_key) {
      return Status::Corruption("route key mismatch");
    }
    if (child->parent != node) {
      return Status::Corruption("parent pointer mismatch");
    }
    const std::string_view bound = i == 0 ? lower_bound
                                          : std::string_view(ref.first_key);
    PTSB_RETURN_IF_ERROR(CheckSubtree(child, depth + 1, expect_depth, bound));
  }
  return Status::OK();
}

std::map<std::string, std::string> EncodeEngineParams(const BTreeOptions& o) {
  return kv::EncodeParams(o);
}

Status BTreeStore::CheckStructure() {
  // Load everything (test-sized trees), then verify.
  std::vector<Node*> to_load{root_.get()};
  while (!to_load.empty()) {
    Node* n = to_load.back();
    to_load.pop_back();
    if (n->is_leaf) continue;
    for (size_t i = 0; i < n->children.size(); i++) {
      PTSB_ASSIGN_OR_RETURN(Node* child, FetchChild(n, i));
      to_load.push_back(child);
    }
  }
  PTSB_RETURN_IF_ERROR(blocks_->CheckConsistency());
  return CheckSubtree(root_.get(), 1, Depth(root_.get()), "");
}

}  // namespace ptsb::btree
