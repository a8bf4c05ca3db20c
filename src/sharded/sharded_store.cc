#include "sharded/sharded_store.h"

#include <algorithm>
#include <utility>

#include "fs/file.h"
#include "fs/filesystem.h"
#include "util/crc32.h"
#include "util/human.h"
#include "util/logging.h"

namespace ptsb::sharded {

namespace {

// NoSpace wins over generic errors: the experiment driver treats it as
// data (the paper's Fig. 6 scenario), so a concurrent commit where one
// shard filled the device and another hit a follow-on error must report
// the root cause.
Status CombineStatuses(const std::vector<Status>& statuses) {
  const Status* first_bad = nullptr;
  for (const Status& s : statuses) {
    if (s.IsNoSpace()) return s;
    if (!s.ok() && first_bad == nullptr) first_bad = &s;
  }
  return first_bad == nullptr ? Status::OK() : *first_bad;
}

}  // namespace

struct ShardedStore::Shard {
  std::unique_ptr<kv::KVStore> store;
  // Guards `store`: every inner-engine call (Write/Get/iterator creation/
  // Flush/stats) happens under this mutex, making each shard as
  // single-threaded as the engines assume while different shards run in
  // parallel.
  std::mutex mu;
};

ShardedStore::ShardedStore(ShardedOptions options, std::string root)
    : options_(std::move(options)), root_(std::move(root)) {}

ShardedStore::~ShardedStore() {
  if (!closed_) {
    // Best-effort shutdown; errors are not recoverable in a destructor.
    Close().ok();
  }
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const kv::EngineOptions& options) {
  ShardedOptions so;
  so.shards = kv::ParamInt(options, "shards", so.shards);
  so.queue_depth = kv::ParamInt(options, "queue_depth", so.queue_depth);
  if (so.queue_depth < 1) {
    return Status::InvalidArgument("sharded: queue_depth must be >= 1");
  }
  so.read_queue_depth =
      kv::ParamInt(options, "read_queue_depth", so.read_queue_depth);
  if (so.read_queue_depth < 1) {
    return Status::InvalidArgument("sharded: read_queue_depth must be >= 1");
  }
  if (const auto it = options.params.find("inner_engine");
      it != options.params.end()) {
    so.inner_engine = it->second;
  }
  if (so.shards < 1) {
    return Status::InvalidArgument("sharded: shards must be >= 1");
  }
  if (so.inner_engine == "sharded") {
    return Status::InvalidArgument(
        "sharded: inner_engine cannot be \"sharded\" (no nesting)");
  }
  if (!kv::EngineRegistry::Global().Contains(so.inner_engine)) {
    return Status::InvalidArgument("sharded: unknown inner_engine \"" +
                                   so.inner_engine + "\"");
  }

  const std::string root = options.root.empty() ? "sharded" : options.root;

  // The shard count is part of the on-disk layout: the hash routes
  // key -> CRC32C(key) % shards, so reopening existing data with a
  // different count (or a different inner format) would silently strand
  // keys on shards the hash no longer reaches. Persist both in a META
  // file on first open and refuse a mismatch afterwards.
  const std::string meta_name = root + "/META";
  if (options.fs->Exists(meta_name)) {
    PTSB_ASSIGN_OR_RETURN(fs::File * meta, options.fs->Open(meta_name));
    std::string contents(meta->size(), '\0');
    PTSB_ASSIGN_OR_RETURN(
        const uint64_t got,
        meta->ReadAt(0, contents.size(), contents.data()));
    contents.resize(got);
    const std::string expected = "shards=" + std::to_string(so.shards) +
                                 "\ninner_engine=" + so.inner_engine + "\n";
    if (contents != expected) {
      return Status::InvalidArgument(
          "sharded: store at \"" + root + "\" was created with different "
          "layout parameters (on disk: \"" + contents +
          "\", requested: \"" + expected +
          "\"); shard count and inner engine are part of the on-disk "
          "layout and must match");
    }
  } else {
    PTSB_ASSIGN_OR_RETURN(fs::File * meta, options.fs->Create(meta_name));
    PTSB_RETURN_IF_ERROR(
        meta->Append("shards=" + std::to_string(so.shards) +
                     "\ninner_engine=" + so.inner_engine + "\n"));
    PTSB_RETURN_IF_ERROR(meta->Sync());
  }

  auto store = std::unique_ptr<ShardedStore>(new ShardedStore(so, root));
  store->clock_ = options.clock;

  // Everything except the router's own knobs configures the inner engine.
  kv::EngineOptions inner = options;
  inner.engine = so.inner_engine;
  inner.params.erase("shards");
  inner.params.erase("inner_engine");
  inner.params.erase("queue_depth");
  // read_queue_depth is dual-use: the router consumes it for its own
  // cross-shard MultiGet fan-out AND leaves it in the inner params, so
  // each shard's snapshot iterator can prefetch (ReadOptions::readahead)
  // across its own read submission lanes.

  for (int i = 0; i < so.shards; i++) {
    inner.root = root + "/shard-" + std::to_string(i);
    // Shard i submits async commits on queue i, so the SSD can overlap
    // distinct shards' I/O on distinct channels (queue % channels);
    // shard i's background lane (compaction/checkpoint/GC with
    // background_io on) gets queue shards + i, keeping maintenance off
    // the foreground channels whenever the device has channels to spare.
    inner.io_queue = static_cast<uint32_t>(i);
    inner.background_queue = static_cast<uint32_t>(so.shards + i);
    auto opened = kv::EngineRegistry::Global().Open(inner);
    if (!opened.ok()) return opened.status();
    auto shard = std::make_unique<Shard>();
    shard->store = *std::move(opened);
    store->shards_.push_back(std::move(shard));
  }
  return store;
}

int ShardedStore::ShardOf(std::string_view key) const {
  return static_cast<int>(Crc32c(key) %
                          static_cast<uint32_t>(shards_.size()));
}

Status ShardedStore::Write(const kv::WriteBatch& batch) {
  PTSB_CHECK(!closed_);
  if (batch.empty()) return Status::OK();

  // Split by shard, preserving entry order within each shard. Duplicate
  // keys hash identically, so last-entry-wins is per-shard order.
  std::vector<kv::WriteBatch> subs(shards_.size());
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    if (e.kind == kv::WriteBatch::EntryKind::kDeleteRange) {
      // A range spans the hash partition (covered keys live on every
      // shard), so it is broadcast: each shard deletes its own covered
      // keys, and in-sub-batch order still matches the user's order.
      for (kv::WriteBatch& sub : subs) sub.DeleteRange(e.key, e.value);
      continue;
    }
    kv::WriteBatch& sub = subs[static_cast<size_t>(ShardOf(e.key))];
    if (e.kind == kv::WriteBatch::EntryKind::kPut) {
      sub.Put(e.key, e.value);
    } else {
      sub.Delete(e.key);
    }
  }
  std::vector<size_t> touched;
  for (size_t i = 0; i < subs.size(); i++) {
    if (!subs[i].empty()) touched.push_back(i);
  }
  // Rotate the commit order per call: if every caller walked the shards
  // in ascending order, concurrent writers would convoy behind each other
  // on shard 0, then shard 1, ... — moving in lockstep and serializing
  // the whole batch despite the per-shard locks. Distinct starting
  // offsets let k callers occupy k different shards at once.
  if (touched.size() > 1) {
    const size_t offset =
        write_rotation_.fetch_add(1, std::memory_order_relaxed) %
        touched.size();
    std::rotate(touched.begin(), touched.begin() + offset, touched.end());
  }

  // Async multi-queue dispatch: with a queue depth > 1 and a virtual
  // clock, sub-batches commit through WriteAsync from this thread — each
  // shard's commit runs in its own virtual-time submission lane, so up
  // to queue_depth commits overlap in simulated device time (on distinct
  // flash channels when the device has them). Deterministic: one thread.
  if (options_.queue_depth > 1 && clock_ != nullptr) {
    return WriteAsyncDispatch(subs, touched);
  }

  // Otherwise each sub-batch commits inline on this thread; concurrent
  // callers still overlap across shards through the per-shard mutexes.
  std::vector<Status> statuses;
  statuses.reserve(touched.size());
  for (const size_t i : touched) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    statuses.push_back(shards_[i]->store->Write(subs[i]));
  }
  return CombineStatuses(statuses);
}

Status ShardedStore::WriteAsyncDispatch(
    const std::vector<kv::WriteBatch>& subs,
    const std::vector<size_t>& touched) {
  std::vector<kv::WriteHandle> handles;
  handles.reserve(touched.size());
  std::vector<Status> statuses(touched.size());
  size_t waited = 0;
  for (const size_t shard_idx : touched) {
    Shard* shard = shards_[shard_idx].get();
    {
      // The lane runs the whole inner commit under the shard mutex (the
      // engines are single-threaded code); only the Wait below happens
      // outside it.
      std::lock_guard<std::mutex> lock(shard->mu);
      handles.push_back(shard->store->WriteAsync(subs[shard_idx]));
    }
    // Keep at most queue_depth commits in flight: waiting the oldest
    // joins its completion into the clock, so later submissions start
    // no earlier than its finish — exactly a bounded submission queue.
    if (handles.size() - waited >=
        static_cast<size_t>(options_.queue_depth)) {
      statuses[waited] = handles[waited].Wait();
      waited++;
    }
  }
  for (; waited < handles.size(); waited++) {
    statuses[waited] = handles[waited].Wait();
  }
  return CombineStatuses(statuses);
}

Status ShardedStore::Get(std::string_view key, std::string* value) {
  PTSB_CHECK(!closed_);
  Shard* shard = shards_[static_cast<size_t>(ShardOf(key))].get();
  std::lock_guard<std::mutex> lock(shard->mu);
  return shard->store->Get(key, value);
}

// The composite snapshot: one inner snapshot per shard, in shard order.
// Each component holds its own engine's pins (SSTs, checkpoint blocks,
// segments), released by its shared_ptr deleter — the engines' release
// paths take their own commit-exclusion locks, so dropping the composite
// needs no shard mutexes here.
class ShardedStore::SnapshotImpl : public kv::Snapshot {
 public:
  uint64_t sequence() const override { return seq_; }

  const ShardedStore* store_ = nullptr;
  uint64_t seq_ = 0;
  std::vector<std::shared_ptr<const kv::Snapshot>> shard_snaps_;
};

StatusOr<std::shared_ptr<const kv::Snapshot>> ShardedStore::GetSnapshot() {
  PTSB_CHECK(!closed_);
  auto snap = std::make_shared<SnapshotImpl>();
  snap->store_ = this;
  snap->shard_snaps_.reserve(shards_.size());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    PTSB_ASSIGN_OR_RETURN(std::shared_ptr<const kv::Snapshot> s,
                          shard->store->GetSnapshot());
    snap->shard_snaps_.push_back(std::move(s));
  }
  snap->seq_ = snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  return std::shared_ptr<const kv::Snapshot>(std::move(snap));
}

Status ShardedStore::Get(const kv::ReadOptions& opts, std::string_view key,
                         std::string* value) {
  if (opts.snapshot == nullptr) return Get(key, value);
  PTSB_CHECK(!closed_);
  const auto* snap = static_cast<const SnapshotImpl*>(opts.snapshot);
  PTSB_CHECK(snap->store_ == this);
  const auto idx = static_cast<size_t>(ShardOf(key));
  kv::ReadOptions inner_opts = opts;
  inner_opts.snapshot = snap->shard_snaps_[idx].get();
  Shard* shard = shards_[idx].get();
  std::lock_guard<std::mutex> lock(shard->mu);
  return shard->store->Get(inner_opts, key, value);
}

std::vector<Status> ShardedStore::MultiGet(
    std::span<const std::string_view> keys,
    std::vector<std::string>* values) {
  PTSB_CHECK(!closed_);
  const int depth = options_.read_queue_depth;
  if (clock_ == nullptr || depth <= 1) {
    return KVStore::MultiGet(keys, values);  // sequential Gets per shard
  }
  values->assign(keys.size(), std::string());
  std::vector<Status> statuses(keys.size());
  // Async sub-lookup dispatch, mirroring WriteAsyncDispatch: each key's
  // lookup runs in the owning shard's read lane (queue = shard index),
  // at most `depth` in flight. Waiting the oldest joins its completion
  // into the clock, bounding the submission queue. Lookups hitting the
  // same shard serialize on its channel's read pipeline; distinct shards
  // overlap.
  std::vector<kv::ReadHandle> handles;
  handles.reserve(keys.size());
  size_t waited = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    Shard* shard = shards_[static_cast<size_t>(ShardOf(keys[i]))].get();
    {
      // The lane runs the whole inner lookup under the shard mutex (the
      // engines are single-threaded code); only the Wait happens outside.
      std::lock_guard<std::mutex> lock(shard->mu);
      handles.push_back(shard->store->ReadAsync(keys[i], &(*values)[i]));
    }
    if (handles.size() - waited >= static_cast<size_t>(depth)) {
      statuses[waited] = handles[waited].Wait();
      waited++;
    }
  }
  for (; waited < handles.size(); waited++) {
    statuses[waited] = handles[waited].Wait();
  }
  return statuses;
}

kv::ReadHandle ShardedStore::ReadAsync(std::string_view key,
                                       std::string* value) {
  PTSB_CHECK(!closed_);
  Shard* shard = shards_[static_cast<size_t>(ShardOf(key))].get();
  std::lock_guard<std::mutex> lock(shard->mu);
  return shard->store->ReadAsync(key, value);
}

// K-way merge over the per-shard ordered iterators. The hash partition is
// disjoint, so the merged stream never sees a key twice and ties cannot
// happen. Consumption is single-threaded by contract (like every iterator
// here); only creation synchronizes with the shards.
class ShardedStore::MergingIterator : public kv::KVStore::Iterator {
 public:
  explicit MergingIterator(
      std::vector<std::unique_ptr<kv::KVStore::Iterator>> inners)
      : inners_(std::move(inners)) {}

  void SeekToFirst() override { Seek(""); }

  void Seek(std::string_view target) override {
    for (auto& it : inners_) it->Seek(target);
    PickCurrent();
  }

  bool Valid() const override { return current_ >= 0; }

  void Next() override {
    if (current_ < 0) return;
    inners_[static_cast<size_t>(current_)]->Next();
    PickCurrent();
  }

  std::string_view key() const override {
    return inners_[static_cast<size_t>(current_)]->key();
  }
  std::string_view value() const override {
    return inners_[static_cast<size_t>(current_)]->value();
  }

  Status status() const override {
    for (const auto& it : inners_) {
      if (!it->status().ok()) return it->status();
    }
    return Status::OK();
  }

 private:
  void PickCurrent() {
    current_ = -1;
    for (size_t i = 0; i < inners_.size(); i++) {
      if (!inners_[i]->status().ok()) {
        // An I/O error in any shard invalidates the merged cursor.
        current_ = -1;
        return;
      }
      if (!inners_[i]->Valid()) continue;
      if (current_ < 0 ||
          inners_[i]->key() < inners_[static_cast<size_t>(current_)]->key()) {
        current_ = static_cast<int>(i);
      }
    }
  }

  std::vector<std::unique_ptr<kv::KVStore::Iterator>> inners_;
  int current_ = -1;
};

std::unique_ptr<kv::KVStore::Iterator> ShardedStore::NewIterator(
    const kv::ReadOptions& opts) {
  PTSB_CHECK(!closed_);
  const auto* snap = static_cast<const SnapshotImpl*>(opts.snapshot);
  PTSB_CHECK(snap == nullptr || snap->store_ == this);
  // The merge layer itself shares no mutable state with writers; each
  // per-shard snapshot cursor serializes its own movements against that
  // shard's commits internally, so a merged snapshot cursor survives
  // concurrent writes exactly as far as its components do.
  std::vector<std::unique_ptr<kv::KVStore::Iterator>> inners;
  inners.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); i++) {
    kv::ReadOptions inner_opts;
    if (snap != nullptr) {
      inner_opts.snapshot = snap->shard_snaps_[i].get();
      inner_opts.readahead = opts.readahead;
    }
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    inners.push_back(shards_[i]->store->NewIterator(inner_opts));
  }
  return std::make_unique<MergingIterator>(std::move(inners));
}

Status ShardedStore::Flush() {
  PTSB_CHECK(!closed_);
  std::vector<Status> statuses;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    statuses.push_back(shard->store->Flush());
  }
  return CombineStatuses(statuses);
}

Status ShardedStore::SettleBackgroundWork() {
  PTSB_CHECK(!closed_);
  std::vector<Status> statuses;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    statuses.push_back(shard->store->SettleBackgroundWork());
  }
  return CombineStatuses(statuses);
}

Status ShardedStore::Close() {
  if (closed_) return Status::OK();
  std::vector<Status> statuses;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    statuses.push_back(shard->store->Close());
  }
  closed_ = true;
  return CombineStatuses(statuses);
}

kv::KvStoreStats ShardedStore::GetStats() const {
  kv::KvStoreStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->store->GetStats();
  }
  return total;
}

kv::KvStoreStats ShardedStore::ShardStats(int shard) const {
  PTSB_CHECK_GE(shard, 0);
  PTSB_CHECK_LT(static_cast<size_t>(shard), shards_.size());
  const auto& s = shards_[static_cast<size_t>(shard)];
  std::lock_guard<std::mutex> lock(s->mu);
  return s->store->GetStats();
}

std::string ShardedStore::Name() const {
  return StrPrintf("sharded(%zux %s)", shards_.size(),
                   options_.inner_engine.c_str());
}

uint64_t ShardedStore::DiskBytesUsed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->store->DiskBytesUsed();
  }
  return total;
}

void RegisterShardedEngine() {
  kv::EngineRegistry::Global().Register(
      "sharded",
      [](const kv::EngineOptions& eo)
          -> StatusOr<std::unique_ptr<kv::KVStore>> {
        auto opened = ShardedStore::Open(eo);
        if (!opened.ok()) return opened.status();
        return std::unique_ptr<kv::KVStore>(std::move(*opened));
      });
}

std::map<std::string, std::string> EncodeEngineParams(
    const ShardedOptions& o) {
  std::map<std::string, std::string> p;
  p["shards"] = std::to_string(o.shards);
  p["inner_engine"] = o.inner_engine;
  p["queue_depth"] = std::to_string(o.queue_depth);
  p["read_queue_depth"] = std::to_string(o.read_queue_depth);
  return p;
}

}  // namespace ptsb::sharded
