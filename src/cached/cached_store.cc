#include "cached/cached_store.h"

#include <algorithm>
#include <utility>

#include "alog/segment.h"
#include "fs/file.h"
#include "kv/registry.h"
#include "util/human.h"
#include "util/logging.h"

namespace ptsb::cached {

CachedStore::CachedStore(const CachedOptions& options, fs::SimpleFs* fs,
                         std::string root,
                         std::unique_ptr<kv::KVStore> inner,
                         std::unique_ptr<ReadCache> cache)
    : options_(options), fs_(fs), root_(std::move(root)),
      inner_(std::move(inner)), cache_(std::move(cache)),
      write_group_(options.max_write_group_bytes) {}

CachedStore::~CachedStore() {
  if (!closed_) {
    // Best-effort shutdown; errors are not recoverable in a destructor.
    Close().ok();
  }
}

CachedOptions CachedOptionsFromEngineOptions(const kv::EngineOptions& eo) {
  CachedOptions o;
  if (const auto it = eo.params.find("inner_engine");
      it != eo.params.end()) {
    o.inner_engine = it->second;
  }
  o.write_buffer_bytes =
      kv::ParamUint64(eo, "write_buffer_bytes", o.write_buffer_bytes);
  o.read_cache_bytes =
      kv::ParamUint64(eo, "read_cache_bytes", o.read_cache_bytes);
  if (const auto it = eo.params.find("read_cache_policy");
      it != eo.params.end()) {
    o.read_cache_policy = it->second;
  }
  o.flush_watermark =
      kv::ParamDouble(eo, "flush_watermark", o.flush_watermark);
  o.max_write_group_bytes = kv::ParamUint64(eo, "max_write_group_bytes",
                                            o.max_write_group_bytes);
  o.log_sync_every_bytes =
      kv::ParamUint64(eo, "log_sync_every_bytes", o.log_sync_every_bytes);
  o.background_io = kv::ParamBool(eo, "background_io", o.background_io);
  o.clock = eo.clock;
  o.io_queue = eo.io_queue;
  o.background_queue = eo.background_queue;
  return o;
}

StatusOr<std::unique_ptr<CachedStore>> CachedStore::Open(
    const kv::EngineOptions& eo) {
  CachedOptions o = CachedOptionsFromEngineOptions(eo);
  if (o.write_buffer_bytes == 0) {
    return Status::InvalidArgument("cached: write_buffer_bytes must be > 0");
  }
  if (!(o.flush_watermark > 0.0) || o.flush_watermark > 1.0) {
    return Status::InvalidArgument(
        "cached: flush_watermark must be in (0, 1]");
  }
  if (o.inner_engine == "cached") {
    return Status::InvalidArgument(
        "cached: inner_engine cannot be \"cached\" (no nesting)");
  }
  if (!kv::EngineRegistry::Global().Contains(o.inner_engine)) {
    return Status::InvalidArgument("cached: unknown inner_engine \"" +
                                   o.inner_engine + "\"");
  }
  // Validate the policy name even when the cache is disabled, so a typo
  // fails loudly instead of silently benchmarking nothing.
  PTSB_ASSIGN_OR_RETURN(
      std::unique_ptr<ReadCache> cache,
      ReadCache::Create(o.read_cache_policy,
                        std::max<uint64_t>(o.read_cache_bytes, 1)));
  if (o.read_cache_bytes == 0) cache.reset();

  const std::string root = eo.root.empty() ? "cached" : eo.root;

  // The inner engine choice is part of the on-disk layout: the wrapper's
  // data lives inside a store of that format under <root>/inner, so
  // reopening with a different inner engine would read another engine's
  // files. Persist it in a META file on first open and refuse a mismatch.
  const std::string meta_name = root + "/META";
  const std::string expected = "inner_engine=" + o.inner_engine + "\n";
  if (eo.fs->Exists(meta_name)) {
    PTSB_ASSIGN_OR_RETURN(fs::File * meta, eo.fs->Open(meta_name));
    std::string contents(meta->size(), '\0');
    PTSB_ASSIGN_OR_RETURN(const uint64_t got,
                          meta->ReadAt(0, contents.size(), contents.data()));
    contents.resize(got);
    if (contents != expected) {
      return Status::InvalidArgument(
          "cached: store at \"" + root + "\" was created with different "
          "layout parameters (on disk: \"" + contents + "\", requested: \"" +
          expected + "\"); the inner engine is part of the on-disk layout "
          "and must match");
    }
  } else {
    PTSB_ASSIGN_OR_RETURN(fs::File * meta, eo.fs->Create(meta_name));
    PTSB_RETURN_IF_ERROR(meta->Append(expected));
    PTSB_RETURN_IF_ERROR(meta->Sync());
  }

  // Everything except the wrapper's own knobs configures the inner
  // engine; background_io intentionally reaches both layers.
  kv::EngineOptions inner = eo;
  inner.engine = o.inner_engine;
  inner.root = root + "/inner";
  inner.params.erase("inner_engine");
  inner.params.erase("write_buffer_bytes");
  inner.params.erase("read_cache_bytes");
  inner.params.erase("read_cache_policy");
  inner.params.erase("flush_watermark");
  inner.params.erase("log_sync_every_bytes");
  auto opened = kv::EngineRegistry::Global().Open(inner);
  if (!opened.ok()) return opened.status();

  auto store = std::unique_ptr<CachedStore>(new CachedStore(
      o, eo.fs, root, *std::move(opened), std::move(cache)));
  PTSB_RETURN_IF_ERROR(store->ReplayAndCompactLog());
  return store;
}

std::string CachedStore::LogName(uint64_t id) const {
  return StrPrintf("%s/%06llu.wlog", root_.c_str(),
                   static_cast<unsigned long long>(id));
}

std::vector<std::pair<uint64_t, std::string>>
CachedStore::ListLogSegments() const {
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : fs_->List(root_ + "/")) {
    if (!name.ends_with(".wlog")) continue;
    std::string_view base(name);
    base.remove_prefix(root_.size() + 1);
    base.remove_suffix(5);
    if (base.empty() || base.size() > 19) continue;  // not a sane id
    uint64_t id = 0;
    bool numeric = true;
    for (const char c : base) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      id = id * 10 + static_cast<uint64_t>(c - '0');
    }
    if (!numeric) continue;  // inner-engine files etc.
    segments.emplace_back(id, name);
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

Status CachedStore::ReplayAndCompactLog() {
  const auto segments = ListLogSegments();
  if (segments.empty()) return Status::OK();
  replaying_ = true;
  for (const auto& [id, name] : segments) {
    PTSB_ASSIGN_OR_RETURN(fs::File * file, fs_->Open(name));
    PTSB_RETURN_IF_ERROR(alog::ReplaySegment(
        file, [this](const alog::ReplayedEntry& e) {
          ApplyEntry(e.kind, e.key, e.value);
        }));
  }
  replaying_ = false;
  next_log_id_ = segments.back().first + 1;
  // Rewrite the surviving buffer as one synced snapshot segment, then
  // drop the replayed ones: recovery cost stays proportional to the
  // buffer, not to history.
  if (!buffer_.empty() || !ranges_.empty()) {
    PTSB_RETURN_IF_ERROR(WriteSnapshotSegment());
  }
  for (const auto& [id, name] : segments) {
    PTSB_RETURN_IF_ERROR(fs_->Delete(name));
  }
  return Status::OK();
}

void CachedStore::ApplyEntry(kv::WriteBatch::EntryKind kind,
                             std::string_view key, std::string_view value) {
  if (kind == kv::WriteBatch::EntryKind::kDeleteRange) {
    ApplyRangeDelete(key, value);
    return;
  }
  const bool is_delete = kind == kv::WriteBatch::EntryKind::kDelete;
  // The buffer now owns the freshest version of the key; a stale cached
  // value must never outlive it (it would resurface after the flush).
  if (cache_ != nullptr) cache_->Erase(key);
  const auto it = buffer_.find(key);
  if (it == buffer_.end()) {
    BufferEntry entry;
    entry.tombstone = is_delete;
    if (!is_delete) entry.value.assign(value.data(), value.size());
    buffer_bytes_ += key.size() + entry.value.size();
    buffer_.emplace(std::string(key), std::move(entry));
    return;
  }
  const uint64_t old_charge = EntryCharge(it->first, it->second);
  buffer_bytes_ -= old_charge;
  it->second.absorbed_bytes += old_charge;
  if (!replaying_) stats_.buffer_coalesced_bytes += old_charge;
  it->second.tombstone = is_delete;
  if (is_delete) {
    it->second.value.clear();
  } else {
    it->second.value.assign(value.data(), value.size());
  }
  buffer_bytes_ += EntryCharge(it->first, it->second);
}

void CachedStore::ApplyRangeDelete(std::string_view begin,
                                   std::string_view end) {
  // Covered cache entries must go NOW: once the range flushes to the
  // inner engine it leaves the wrapper's visibility checks, and a stale
  // cached value would resurface. Nothing covered can re-enter the cache
  // while the range is buffered (covered lookups short-circuit before
  // the inner engine, and the merging iterator hides covered inner keys).
  if (cache_ != nullptr) cache_->EraseRange(begin, end);
  for (auto it = buffer_.lower_bound(begin);
       it != buffer_.end() && it->first < end;) {
    const uint64_t charge = EntryCharge(it->first, it->second);
    buffer_bytes_ -= charge;
    if (!replaying_) stats_.buffer_coalesced_bytes += charge;
    it = buffer_.erase(it);
  }
  ranges_.push_back(BufferedRange{std::string(begin), std::string(end)});
  const uint64_t range_charge = begin.size() + end.size();
  ranges_bytes_ += range_charge;
  buffer_bytes_ += range_charge;
}

void CachedStore::ApplyToBuffer(const kv::WriteBatch& batch) {
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    ApplyEntry(e.kind, e.key, e.value);
  }
}

bool CachedStore::Covers(const std::vector<BufferedRange>& ranges,
                         std::string_view key) {
  for (const BufferedRange& r : ranges) {
    if (key >= r.begin && key < r.end) return true;
  }
  return false;
}

Status CachedStore::AppendLogRecord(const std::string& record) {
  if (log_ == nullptr) {
    log_id_ = next_log_id_++;
    PTSB_ASSIGN_OR_RETURN(fs::File * file, fs_->Create(LogName(log_id_)));
    log_ = file;
    unsynced_log_bytes_ = 0;
  }
  PTSB_RETURN_IF_ERROR(log_->Append(record));
  stats_.wal_bytes_written += record.size();
  if (options_.log_sync_every_bytes > 0) {
    unsynced_log_bytes_ += record.size();
    if (unsynced_log_bytes_ >= options_.log_sync_every_bytes) {
      unsynced_log_bytes_ = 0;
      PTSB_RETURN_IF_ERROR(log_->Sync());
    }
  }
  return Status::OK();
}

Status CachedStore::WriteSnapshotSegment() {
  log_id_ = next_log_id_++;
  PTSB_ASSIGN_OR_RETURN(fs::File * file, fs_->Create(LogName(log_id_)));
  log_ = file;
  unsynced_log_bytes_ = 0;
  if (buffer_.empty() && ranges_.empty()) return Status::OK();
  kv::WriteBatch snapshot;
  // Ranges first: every buffered entry postdates every buffered range
  // (see BufferedRange), so replaying "ranges, then entries" rebuilds
  // exactly this state.
  for (const BufferedRange& r : ranges_) snapshot.DeleteRange(r.begin, r.end);
  for (const auto& [key, entry] : buffer_) {
    if (entry.tombstone) {
      snapshot.Delete(key);
    } else {
      snapshot.Put(key, entry.value);
    }
  }
  const std::string record = alog::EncodeRecord(snapshot, nullptr);
  PTSB_RETURN_IF_ERROR(log_->Append(record));
  stats_.checkpoint_bytes_written += record.size();
  return log_->Sync();
}

Status CachedStore::Write(const kv::WriteBatch& batch) {
  PTSB_CHECK(!closed_);
  if (batch.empty()) return Status::OK();
  return write_group_.Commit(
      batch, [this](const kv::WriteBatch& merged, size_t n_user_batches) {
        return WriteInternal(merged, n_user_batches);
      });
}

Status CachedStore::WriteInternal(const kv::WriteBatch& batch,
                                  size_t n_user_batches) {
  write_epoch_++;
  stats_.user_batches += n_user_batches;
  stats_.write_groups++;
  stats_.write_group_batches += n_user_batches;
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    switch (e.kind) {
      case kv::WriteBatch::EntryKind::kPut:
        stats_.user_puts++;
        stats_.user_bytes_written += e.key.size() + e.value.size();
        break;
      case kv::WriteBatch::EntryKind::kDelete:
        stats_.user_deletes++;
        stats_.user_bytes_written += e.key.size();
        break;
      case kv::WriteBatch::EntryKind::kDeleteRange:
        stats_.user_deletes++;
        stats_.user_bytes_written += e.key.size() + e.value.size();
        break;
    }
  }
  const int64_t t0 = NowNs();
  const std::string record = alog::EncodeRecord(batch, nullptr);
  const Status logged = AppendLogRecord(record);
  stats_.time_wal_ns += NowNs() - t0;
  PTSB_RETURN_IF_ERROR(logged);
  stats_.wal_records++;
  ApplyToBuffer(batch);
  PTSB_RETURN_IF_ERROR(MaybeFlush());
  return MaybeCheckpointLog();
}

kv::WriteHandle CachedStore::WriteAsync(const kv::WriteBatch& batch) {
  PTSB_CHECK(!closed_);
  return kv::AsyncCommit(options_.clock, options_.io_queue,
                         [this, &batch] { return Write(batch); });
}

Status CachedStore::MaybeFlush() {
  if (buffer_bytes_ < options_.write_buffer_bytes) return Status::OK();
  const auto target = static_cast<uint64_t>(
      options_.flush_watermark *
      static_cast<double>(options_.write_buffer_bytes));
  if (options_.background_io && options_.clock != nullptr) {
    const kv::BackgroundResult r = kv::RunBackgroundWork(
        options_.clock, options_.background_queue, &background_horizon_ns_,
        [this, target] { return FlushBuffer(target); });
    stats_.time_background_ns += r.busy_ns;
    return r.status;
  }
  // Inline flush: the commit that crossed the capacity line absorbs the
  // whole drain — the wrapper-level write stall.
  stats_.stall_count++;
  const int64_t t0 = NowNs();
  const Status s = FlushBuffer(target);
  stats_.time_flush_ns += NowNs() - t0;
  return s;
}

Status CachedStore::FlushBuffer(uint64_t target_bytes) {
  if (buffer_bytes_ <= target_bytes) return Status::OK();
  if (buffer_.empty() && ranges_.empty()) return Status::OK();

  // Pick victims largest-coalesced-first: the entries that already
  // absorbed the most rewrite traffic have the highest payoff per inner
  // write, and what stays behind is the set still most likely to keep
  // coalescing.
  struct Victim {
    uint64_t priority;
    uint64_t charge;
    std::string_view key;  // into buffer_ (stable until erased below)
  };
  std::vector<Victim> order;
  order.reserve(buffer_.size());
  for (const auto& [key, entry] : buffer_) {
    const uint64_t charge = EntryCharge(key, entry);
    order.push_back(Victim{entry.absorbed_bytes + charge, charge, key});
  }
  std::sort(order.begin(), order.end(), [](const Victim& a, const Victim& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.key < b.key;
  });
  // Buffered ranges always flush, all of them, so start the projection
  // with their charge already gone.
  uint64_t projected = buffer_bytes_ - ranges_bytes_;
  std::vector<std::string_view> victims;
  for (const Victim& v : order) {
    if (projected <= target_bytes) break;
    victims.push_back(v.key);
    projected -= v.charge;
  }

  // One inner group commit in key order (flash-friendly: the inner
  // engine sees a single large sorted batch instead of the user's
  // arrival order). Ranges lead the batch: every buffered entry
  // postdates every buffered range, so "all ranges, then any subset of
  // entries" preserves the user's order no matter which victims win —
  // and an entry flushed later can never be swallowed by a range already
  // pushed down.
  std::sort(victims.begin(), victims.end());
  kv::WriteBatch batch;
  for (const BufferedRange& r : ranges_) batch.DeleteRange(r.begin, r.end);
  for (const std::string_view key : victims) {
    const BufferEntry& entry = buffer_.find(key)->second;
    if (entry.tombstone) {
      batch.Delete(key);
    } else {
      batch.Put(key, entry.value);
    }
  }
  // On failure the buffer (and the durability log) still holds
  // everything; nothing is lost, the error just surfaces.
  PTSB_RETURN_IF_ERROR(inner_->Write(batch));
  stats_.flush_batches++;
  buffer_bytes_ -= ranges_bytes_;
  ranges_bytes_ = 0;
  ranges_.clear();
  for (const std::string_view key : victims) {
    const auto it = buffer_.find(key);
    buffer_bytes_ -= EntryCharge(it->first, it->second);
    buffer_.erase(it);
  }
  return Status::OK();
}

Status CachedStore::MaybeCheckpointLog() {
  if (log_ == nullptr) return Status::OK();
  const uint64_t limit = std::max<uint64_t>(8 * options_.write_buffer_bytes,
                                            uint64_t{128} << 10);
  if (log_->size() <= limit) return Status::OK();
  const int64_t t0 = NowNs();
  // Records about to be dropped from the log cover entries already
  // flushed to the inner engine; make those durable below before the log
  // stops replaying them.
  Status s = inner_->Flush();
  if (s.ok()) s = WriteSnapshotSegment();
  if (s.ok()) s = DeleteLogSegments(log_id_);
  stats_.time_checkpoint_ns += NowNs() - t0;
  return s;
}

Status CachedStore::DeleteLogSegments(uint64_t keep_from_id) {
  for (const auto& [id, name] : ListLogSegments()) {
    if (id >= keep_from_id) continue;
    PTSB_RETURN_IF_ERROR(fs_->Delete(name));
  }
  return Status::OK();
}

void CachedStore::JoinBackgroundWork() {
  if (options_.clock != nullptr) {
    options_.clock->AdvanceTo(background_horizon_ns_);
  }
}

Status CachedStore::Get(std::string_view key, std::string* value) {
  PTSB_CHECK(!closed_);
  return write_group_.RunExclusive([&] { return GetInternal(key, value); });
}

Status CachedStore::GetInternal(std::string_view key, std::string* value) {
  stats_.user_gets++;
  if (const auto it = buffer_.find(key); it != buffer_.end()) {
    stats_.cache_hits++;
    if (it->second.tombstone) {
      return Status::NotFound("key deleted in write buffer");
    }
    *value = it->second.value;
    stats_.user_bytes_read += value->size();
    return Status::OK();
  }
  // A key inside a buffered range delete is gone, whatever the cache or
  // the inner engine still hold (the range has not flushed down yet).
  if (Covers(ranges_, key)) {
    stats_.cache_hits++;
    return Status::NotFound("key covered by buffered range delete");
  }
  if (cache_ != nullptr && cache_->Get(key, value)) {
    stats_.cache_hits++;
    stats_.user_bytes_read += value->size();
    return Status::OK();
  }
  stats_.cache_misses++;
  const Status s = inner_->Get(key, value);
  if (s.ok()) {
    if (cache_ != nullptr) cache_->Insert(key, *value);
    stats_.user_bytes_read += value->size();
  }
  return s;
}

std::vector<Status> CachedStore::MultiGet(
    std::span<const std::string_view> keys,
    std::vector<std::string>* values) {
  PTSB_CHECK(!closed_);
  if (options_.clock == nullptr) {
    return KVStore::MultiGet(keys, values);  // sequential Gets
  }
  return write_group_.RunExclusive(
      [&] { return MultiGetInternal(keys, values); });
}

std::vector<Status> CachedStore::MultiGetInternal(
    std::span<const std::string_view> keys,
    std::vector<std::string>* values) {
  // Serve buffer/cache hits inline, then forward the misses as ONE inner
  // MultiGet so they inherit the inner engine's read fan-out.
  values->assign(keys.size(), std::string());
  std::vector<Status> statuses(keys.size(), Status::OK());
  std::vector<size_t> miss_pos;
  std::vector<std::string_view> miss_keys;
  for (size_t i = 0; i < keys.size(); i++) {
    stats_.user_gets++;
    if (const auto it = buffer_.find(keys[i]); it != buffer_.end()) {
      stats_.cache_hits++;
      if (it->second.tombstone) {
        statuses[i] = Status::NotFound("key deleted in write buffer");
      } else {
        (*values)[i] = it->second.value;
        stats_.user_bytes_read += it->second.value.size();
      }
      continue;
    }
    if (Covers(ranges_, keys[i])) {
      stats_.cache_hits++;
      statuses[i] = Status::NotFound("key covered by buffered range delete");
      continue;
    }
    if (cache_ != nullptr && cache_->Get(keys[i], &(*values)[i])) {
      stats_.cache_hits++;
      stats_.user_bytes_read += (*values)[i].size();
      continue;
    }
    stats_.cache_misses++;
    miss_pos.push_back(i);
    miss_keys.push_back(keys[i]);
  }
  if (!miss_keys.empty()) {
    std::vector<std::string> miss_values;
    std::vector<Status> miss_statuses =
        inner_->MultiGet(miss_keys, &miss_values);
    for (size_t j = 0; j < miss_pos.size(); j++) {
      statuses[miss_pos[j]] = miss_statuses[j];
      if (!miss_statuses[j].ok()) continue;
      (*values)[miss_pos[j]] = std::move(miss_values[j]);
      stats_.user_bytes_read += (*values)[miss_pos[j]].size();
      if (cache_ != nullptr) {
        cache_->Insert(keys[miss_pos[j]], (*values)[miss_pos[j]]);
      }
    }
  }
  return statuses;
}

kv::ReadHandle CachedStore::ReadAsync(std::string_view key,
                                      std::string* value) {
  PTSB_CHECK(!closed_);
  return kv::AsyncRead(options_.clock, options_.io_queue,
                       [this, key, value] { return Get(key, value); });
}

// Two-way merge of the write buffer over the inner engine's cursor. The
// buffer wins ties (it holds the newer version) and its tombstones hide
// inner keys. Yielded pairs feed the read cache — deliberately including
// scan traffic, which is exactly what the 2Q policy must shrug off.
class CachedStore::MergeIterator : public kv::KVStore::Iterator {
 public:
  MergeIterator(CachedStore* store,
                std::unique_ptr<kv::KVStore::Iterator> inner)
      : store_(store), inner_(std::move(inner)),
        epoch_(store->write_epoch_) {}

  void SeekToFirst() override { Seek(""); }

  void Seek(std::string_view target) override {
    CheckEpoch();
    buf_it_ = store_->buffer_.lower_bound(target);
    inner_->Seek(target);
    FindNext();
  }

  bool Valid() const override {
    return source_ != Source::kNone && status_.ok();
  }

  void Next() override {
    CheckEpoch();
    if (source_ == Source::kNone) return;
    if (source_ == Source::kBuffer) {
      ++buf_it_;
    } else {
      inner_->Next();
    }
    FindNext();
  }

  std::string_view key() const override {
    return source_ == Source::kBuffer ? std::string_view(buf_it_->first)
                                      : inner_->key();
  }
  std::string_view value() const override {
    return source_ == Source::kBuffer
               ? std::string_view(buf_it_->second.value)
               : inner_->value();
  }

  Status status() const override {
    if (!status_.ok()) return status_;
    return inner_->status();
  }

 private:
  enum class Source { kNone, kBuffer, kInner };

  void CheckEpoch() const {
    PTSB_DCHECK(epoch_ == store_->write_epoch_)
        << "cached iterator used after a write to the store";
  }

  void FindNext() {
    source_ = Source::kNone;
    for (;;) {
      if (!inner_->status().ok()) {
        status_ = inner_->status();
        return;
      }
      const bool have_buf = buf_it_ != store_->buffer_.end();
      const bool have_inner = inner_->Valid();
      if (!have_buf && !have_inner) return;  // clean end
      // Inner keys swallowed by a buffered range delete are invisible; a
      // buffered entry for the same key would win anyway (it postdates
      // the range), so skipping unconditionally is safe.
      if (have_inner && Covers(store_->ranges_, inner_->key())) {
        inner_->Next();
        continue;
      }
      if (have_buf && (!have_inner || buf_it_->first <= inner_->key())) {
        // The buffer shadows an equal inner key: step past both versions
        // together.
        if (have_inner && inner_->key() == buf_it_->first) inner_->Next();
        if (buf_it_->second.tombstone) {
          ++buf_it_;
          continue;
        }
        source_ = Source::kBuffer;
        Observe(buf_it_->first, buf_it_->second.value);
        return;
      }
      source_ = Source::kInner;
      Observe(inner_->key(), inner_->value());
      return;
    }
  }

  void Observe(std::string_view key, std::string_view value) {
    store_->stats_.user_bytes_read += key.size() + value.size();
    if (store_->cache_ != nullptr) store_->cache_->Insert(key, value);
  }

  CachedStore* const store_;
  std::unique_ptr<kv::KVStore::Iterator> inner_;
  const uint64_t epoch_;
  std::map<std::string, BufferEntry, std::less<>>::const_iterator buf_it_;
  Source source_ = Source::kNone;
  Status status_;
};

std::unique_ptr<kv::KVStore::Iterator> CachedStore::NewIterator() {
  PTSB_CHECK(!closed_);
  return write_group_.RunExclusive(
      [&]() -> std::unique_ptr<kv::KVStore::Iterator> {
        stats_.user_scans++;
        return std::make_unique<MergeIterator>(this, inner_->NewIterator());
      });
}

// The wrapper's snapshot is a composite: a full copy of the write buffer
// and its buffered ranges (they are memory-resident and small by
// construction — write_buffer_bytes caps them) plus the inner engine's
// own snapshot, taken at the same instant under the commit-exclusion
// lock. Snapshot reads check the copies first, then read the inner
// engine AT the inner snapshot; the live read cache is never consulted
// (it tracks the live state, not this one).
class CachedStore::SnapshotImpl : public kv::Snapshot {
 public:
  ~SnapshotImpl() override { store_->ReleaseSnapshot(*this); }
  uint64_t sequence() const override { return seq_; }

  CachedStore* store_ = nullptr;
  uint64_t seq_ = 0;
  std::map<std::string, BufferEntry, std::less<>> buffer_;
  uint64_t buffer_bytes_ = 0;  // charge held in snapshot_pinned_bytes
  std::vector<BufferedRange> ranges_;
  std::shared_ptr<const kv::Snapshot> inner_;
};

StatusOr<std::shared_ptr<const kv::Snapshot>> CachedStore::GetSnapshot() {
  PTSB_CHECK(!closed_);
  return write_group_.RunExclusive(
      [&]() -> StatusOr<std::shared_ptr<const kv::Snapshot>> {
        PTSB_ASSIGN_OR_RETURN(std::shared_ptr<const kv::Snapshot> inner_snap,
                              inner_->GetSnapshot());
        auto snap = std::make_shared<SnapshotImpl>();
        snap->store_ = this;
        snap->seq_ = write_epoch_;
        snap->buffer_ = buffer_;
        snap->buffer_bytes_ = buffer_bytes_;
        snap->ranges_ = ranges_;
        snap->inner_ = std::move(inner_snap);
        snapshot_pinned_buffer_bytes_ += snap->buffer_bytes_;
        stats_.snapshots_created++;
        stats_.snapshots_open++;
        return std::shared_ptr<const kv::Snapshot>(std::move(snap));
      });
}

void CachedStore::ReleaseSnapshot(const SnapshotImpl& snap) {
  write_group_.RunExclusive([&] {
    snapshot_pinned_buffer_bytes_ -= snap.buffer_bytes_;
    stats_.snapshots_open--;
  });
}

Status CachedStore::SnapshotGetInternal(const SnapshotImpl& snap,
                                        std::string_view key,
                                        std::string* value) {
  stats_.user_gets++;
  if (const auto it = snap.buffer_.find(key); it != snap.buffer_.end()) {
    stats_.cache_hits++;
    if (it->second.tombstone) {
      return Status::NotFound("key deleted in snapshot's buffer");
    }
    *value = it->second.value;
    stats_.user_bytes_read += value->size();
    return Status::OK();
  }
  if (Covers(snap.ranges_, key)) {
    stats_.cache_hits++;
    return Status::NotFound("key covered by snapshot's range delete");
  }
  stats_.cache_misses++;
  kv::ReadOptions inner_opts;
  inner_opts.snapshot = snap.inner_.get();
  const Status s = inner_->Get(inner_opts, key, value);
  // Historical values never enter the read cache.
  if (s.ok()) stats_.user_bytes_read += value->size();
  return s;
}

Status CachedStore::Get(const kv::ReadOptions& opts, std::string_view key,
                        std::string* value) {
  if (opts.snapshot == nullptr) return Get(key, value);
  PTSB_CHECK(!closed_);
  const auto* snap = static_cast<const SnapshotImpl*>(opts.snapshot);
  PTSB_CHECK(snap->store_ == this);
  return write_group_.RunExclusive(
      [&] { return SnapshotGetInternal(*snap, key, value); });
}

// Merge of the snapshot's frozen buffer copy over the inner engine's
// snapshot cursor. Same shape as MergeIterator, minus everything live:
// no write-epoch check (the sources cannot move under it), no read-cache
// feeding (the values are historical), and movements serialize against
// concurrent commits via the wrapper's commit-exclusion lock — the
// wrapper's flushes land in the inner engine's LIVE state, which the
// inner snapshot cursor is immune to by its own contract.
class CachedStore::SnapIterator : public kv::KVStore::Iterator {
 public:
  SnapIterator(CachedStore* store, const SnapshotImpl* snap,
               std::unique_ptr<kv::KVStore::Iterator> inner)
      : store_(store), snap_(snap), inner_(std::move(inner)) {}

  void SeekToFirst() override { Seek(""); }

  void Seek(std::string_view target) override {
    store_->write_group_.RunExclusive([&] {
      buf_it_ = snap_->buffer_.lower_bound(target);
      inner_->Seek(target);
      FindNext();
    });
  }

  bool Valid() const override {
    return source_ != Source::kNone && status_.ok();
  }

  void Next() override {
    store_->write_group_.RunExclusive([&] {
      if (source_ == Source::kNone) return;
      if (source_ == Source::kBuffer) {
        ++buf_it_;
      } else {
        inner_->Next();
      }
      FindNext();
    });
  }

  std::string_view key() const override {
    return source_ == Source::kBuffer ? std::string_view(buf_it_->first)
                                      : inner_->key();
  }
  std::string_view value() const override {
    return source_ == Source::kBuffer
               ? std::string_view(buf_it_->second.value)
               : inner_->value();
  }

  Status status() const override {
    if (!status_.ok()) return status_;
    return inner_->status();
  }

 private:
  enum class Source { kNone, kBuffer, kInner };

  void FindNext() {
    source_ = Source::kNone;
    for (;;) {
      if (!inner_->status().ok()) {
        status_ = inner_->status();
        return;
      }
      const bool have_buf = buf_it_ != snap_->buffer_.end();
      const bool have_inner = inner_->Valid();
      if (!have_buf && !have_inner) return;  // clean end
      if (have_inner && Covers(snap_->ranges_, inner_->key())) {
        inner_->Next();
        continue;
      }
      if (have_buf && (!have_inner || buf_it_->first <= inner_->key())) {
        if (have_inner && inner_->key() == buf_it_->first) inner_->Next();
        if (buf_it_->second.tombstone) {
          ++buf_it_;
          continue;
        }
        source_ = Source::kBuffer;
        store_->stats_.user_bytes_read +=
            buf_it_->first.size() + buf_it_->second.value.size();
        return;
      }
      source_ = Source::kInner;
      store_->stats_.user_bytes_read +=
          inner_->key().size() + inner_->value().size();
      return;
    }
  }

  CachedStore* const store_;
  const SnapshotImpl* const snap_;
  std::unique_ptr<kv::KVStore::Iterator> inner_;
  std::map<std::string, BufferEntry, std::less<>>::const_iterator buf_it_;
  Source source_ = Source::kNone;
  Status status_;
};

std::unique_ptr<kv::KVStore::Iterator> CachedStore::NewIterator(
    const kv::ReadOptions& opts) {
  if (opts.snapshot == nullptr) return NewIterator();
  PTSB_CHECK(!closed_);
  const auto* snap = static_cast<const SnapshotImpl*>(opts.snapshot);
  PTSB_CHECK(snap->store_ == this);
  return write_group_.RunExclusive(
      [&]() -> std::unique_ptr<kv::KVStore::Iterator> {
        stats_.user_scans++;
        kv::ReadOptions inner_opts;
        inner_opts.snapshot = snap->inner_.get();
        inner_opts.readahead = opts.readahead;
        return std::make_unique<SnapIterator>(this, snap,
                                              inner_->NewIterator(inner_opts));
      });
}

Status CachedStore::Flush() {
  PTSB_CHECK(!closed_);
  JoinBackgroundWork();
  const int64_t t0 = NowNs();
  const Status drained = FlushBuffer(0);
  stats_.time_flush_ns += NowNs() - t0;
  PTSB_RETURN_IF_ERROR(drained);
  PTSB_RETURN_IF_ERROR(inner_->Flush());
  // Everything the log guarded is durable in the inner engine now; the
  // log is logically empty and its segments can go. The next Write
  // starts a fresh one.
  log_ = nullptr;
  unsynced_log_bytes_ = 0;
  return DeleteLogSegments(next_log_id_);
}

Status CachedStore::SettleBackgroundWork() {
  PTSB_CHECK(!closed_);
  // Joins pending background flush time; the buffer itself stays resident
  // (it is steady-state, not debt — draining it here would make settling
  // non-idempotent).
  JoinBackgroundWork();
  return inner_->SettleBackgroundWork();
}

Status CachedStore::Close() {
  if (closed_) return Status::OK();
  JoinBackgroundWork();
  Status persist = FlushBuffer(0);
  if (persist.ok()) persist = inner_->Flush();
  if (persist.ok()) {
    // Clean shutdown: buffer durable below, log segments redundant.
    log_ = nullptr;
    unsynced_log_bytes_ = 0;
    persist = DeleteLogSegments(next_log_id_);
  }
  const Status closed = inner_->Close();
  closed_ = true;
  if (persist.IsNoSpace()) return persist;
  if (closed.IsNoSpace()) return closed;
  if (!persist.ok()) return persist;
  return closed;
}

kv::KvStoreStats CachedStore::GetStats() const {
  kv::KvStoreStats s = write_group_.RunExclusive([&] {
    kv::KvStoreStats out = stats_;
    // This layer's pinned bytes are the buffer copies snapshots hold in
    // memory; the inner engine adds its pinned DISK bytes below.
    out.snapshot_pinned_bytes = snapshot_pinned_buffer_bytes_;
    return out;
  });
  kv::KvStoreStats in = inner_->GetStats();
  // The inner engine's "user" traffic is this wrapper's flush traffic:
  // its log appends count as flush, not as the wrapper's own WAL, so
  // user_bytes_written still means what the application wrote and the
  // write-amplification ratios stay honest. Everything else folds by the
  // field table's rule (kv::StatRule).
  in.flush_bytes_written += std::exchange(in.wal_bytes_written, 0);
  in.time_flush_ns += std::exchange(in.time_wal_ns, 0);
  s.FoldInner(in);
  return s;
}

std::string CachedStore::Name() const {
  return StrPrintf("cached(%s over %s)",
                   cache_ != nullptr ? cache_->PolicyName().c_str() : "nocache",
                   options_.inner_engine.c_str());
}

uint64_t CachedStore::DiskBytesUsed() const {
  uint64_t total = inner_->DiskBytesUsed();
  for (const auto& [id, name] : ListLogSegments()) {
    const auto size = fs_->FileSize(name);
    if (size.ok()) total += *size;
  }
  return total;
}

void RegisterCachedEngine() {
  kv::EngineRegistry::Global().Register(
      "cached",
      [](const kv::EngineOptions& eo)
          -> StatusOr<std::unique_ptr<kv::KVStore>> {
        auto opened = CachedStore::Open(eo);
        if (!opened.ok()) return opened.status();
        return std::unique_ptr<kv::KVStore>(std::move(*opened));
      });
}

std::map<std::string, std::string> EncodeEngineParams(
    const CachedOptions& o) {
  std::map<std::string, std::string> p;
  p["inner_engine"] = o.inner_engine;
  p["write_buffer_bytes"] = std::to_string(o.write_buffer_bytes);
  p["read_cache_bytes"] = std::to_string(o.read_cache_bytes);
  p["read_cache_policy"] = o.read_cache_policy;
  p["flush_watermark"] = StrPrintf("%g", o.flush_watermark);
  p["max_write_group_bytes"] = std::to_string(o.max_write_group_bytes);
  p["log_sync_every_bytes"] = std::to_string(o.log_sync_every_bytes);
  p["background_io"] = o.background_io ? "1" : "0";
  return p;
}

}  // namespace ptsb::cached
