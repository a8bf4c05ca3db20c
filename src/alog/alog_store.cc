#include "alog/alog_store.h"

#include <algorithm>
#include <set>

#include "util/human.h"
#include "util/logging.h"

namespace ptsb::alog {

AlogStore::AlogStore(fs::SimpleFs* fs, const AlogOptions& options,
                     std::string dir)
    : GroupCommitStore(options), fs_(fs), options_(options),
      dir_(std::move(dir)) {}

AlogStore::~AlogStore() {
  DcheckSnapshotsReleased();
  if (opened_ && !closed_) {
    // Best-effort shutdown; errors are not recoverable in a destructor.
    Close().ok();
  }
}

StatusOr<std::unique_ptr<AlogStore>> AlogStore::Open(fs::SimpleFs* fs,
                                                     const AlogOptions& options,
                                                     std::string dir) {
  if (options.segment_bytes == 0) {
    return Status::InvalidArgument("alog segment_bytes must be positive");
  }
  if (!(options.gc_trigger > 0.0) || options.gc_trigger > 1.0) {
    return Status::InvalidArgument("alog gc_trigger must be in (0, 1]");
  }
  auto store =
      std::unique_ptr<AlogStore>(new AlogStore(fs, options, std::move(dir)));

  // Replay every segment in id order (numeric, not lexicographic: the
  // fixed-width file names wrap their pad once ids pass 999999, and a
  // misordered replay would let stale records re-shadow newer ones).
  // Pre-existing segments are sealed: after a crash the newest one may end
  // in a torn record, and appending past a torn tail would bury it
  // mid-file where replay cannot skip it.
  store->replaying_ = true;
  std::vector<kv::DecodedEntry> entries;
  for (const auto& [id, name] :
       kv::ListNumberedFiles(*fs, store->dir_, ".seg")) {
    PTSB_ASSIGN_OR_RETURN(fs::File * file, fs->Open(name));
    SegmentInfo info;
    info.file = file;
    info.sealed = true;
    store->segments_.emplace(id, info);
    PTSB_RETURN_IF_ERROR(kv::ReplayLog(
        file, [&](uint64_t offset, std::string_view payload) -> Status {
          PTSB_RETURN_IF_ERROR(kv::DecodeBatch(payload, &entries));
          store->segments_.at(id).payload_bytes += payload.size();
          store->sealed_payload_bytes_ += payload.size();
          for (const kv::DecodedEntry& e : entries) {
            Location loc;
            loc.segment = id;
            loc.value_offset = offset + (e.value.data() - payload.data());
            loc.value_bytes = static_cast<uint32_t>(e.value.size());
            loc.entry_bytes = e.entry_bytes;
            store->ApplyToIndex(e.kind, e.key, loc);
          }
          return Status::OK();
        }));
    store->next_segment_id_ = std::max(store->next_segment_id_, id + 1);
  }
  store->replaying_ = false;

  // Segments with nothing live (everything shadowed by newer records, or
  // only a torn tail) are reclaimed immediately: free GC at open.
  for (auto it = store->segments_.begin(); it != store->segments_.end();) {
    if (it->second.live_entries == 0) {
      store->sealed_payload_bytes_ -= it->second.payload_bytes;
      store->sealed_live_bytes_ -= it->second.live_bytes;
      PTSB_RETURN_IF_ERROR(
          fs->Delete(kv::NumberedFileName(store->dir_, it->first, ".seg")));
      it = store->segments_.erase(it);
    } else {
      ++it;
    }
  }
  store->opened_ = true;
  return store;
}

Status AlogStore::RollSegment() {
  if (active_id_ != 0) {
    SegmentInfo& old = segments_.at(active_id_);
    // Sealing makes the segment durable and returns its over-allocated
    // append slack to the filesystem; it is never written again.
    PTSB_RETURN_IF_ERROR(log_->Sync());
    PTSB_RETURN_IF_ERROR(old.file->ShrinkToFit());
    old.sealed = true;
    sealed_payload_bytes_ += old.payload_bytes;
    sealed_live_bytes_ += old.live_bytes;
    // A roll is the natural point to re-examine filesystem headroom: the
    // pressure threshold is several segments wide, so per-write checks
    // would only rediscover the same answer.
    pressure_check_due_ = true;
  }
  const uint64_t id = next_segment_id_++;
  PTSB_ASSIGN_OR_RETURN(fs::File * file,
                        fs_->Create(kv::NumberedFileName(dir_, id, ".seg")));
  SegmentInfo info;
  info.file = file;
  segments_.emplace(id, info);
  active_id_ = id;
  log_ = std::make_unique<kv::LogWriter>(file, options_.sync_every_bytes,
                                         /*buffer_bytes=*/0);
  return Status::OK();
}

void AlogStore::ReleaseLocation(const Location& loc) {
  SegmentInfo& seg = segments_.at(loc.segment);
  PTSB_DCHECK(seg.live_entries > 0);
  seg.live_bytes -= loc.entry_bytes;
  seg.live_entries--;
  if (seg.sealed) sealed_live_bytes_ -= loc.entry_bytes;
}

void AlogStore::ApplyToIndex(kv::WriteBatch::EntryKind kind,
                             std::string_view key, const Location& loc) {
  SegmentInfo& seg = segments_.at(loc.segment);
  auto it = index_.find(key);
  if (kind == kv::WriteBatch::EntryKind::kPut) {
    if (it != index_.end()) {
      ReleaseLocation(it->second);
      it->second = loc;
    } else {
      index_.emplace(std::string(key), loc);
    }
    seg.live_bytes += loc.entry_bytes;
    seg.live_entries++;
    if (seg.sealed) sealed_live_bytes_ += loc.entry_bytes;  // replay only
    return;
  }
  // A tombstone stays in the index while older shadowed entries for its
  // key may survive in other segments (replay must keep suppressing them).
  // When the key has no index entry at all, nothing for it survives
  // anywhere, so the tombstone is dead on arrival.
  if (it != index_.end()) {
    ReleaseLocation(it->second);
    Location tomb = loc;
    tomb.tombstone = true;
    it->second = tomb;
    seg.live_bytes += loc.entry_bytes;
    seg.live_entries++;
    if (seg.sealed) sealed_live_bytes_ += loc.entry_bytes;  // replay only
  }
}

Status AlogStore::ApplyBatchRecord(const kv::WriteBatch& batch, bool gc) {
  // Group commit: one record, one crc, for the whole batch.
  std::vector<kv::EntryLayout> layout;
  const std::string payload = kv::EncodeBatch(batch, &layout);
  if (active_id_ == 0 ||
      segments_.at(active_id_).payload_bytes >= options_.segment_bytes) {
    PTSB_RETURN_IF_ERROR(RollSegment());
  }
  const uint64_t log_before = log_->bytes_written();
  PTSB_ASSIGN_OR_RETURN(const uint64_t offset, log_->Add(payload));
  segments_.at(active_id_).payload_bytes += payload.size();
  const uint64_t record_bytes = log_->bytes_written() - log_before;
  if (gc) {
    stats_.gc_bytes_written += record_bytes;
  } else {
    stats_.wal_bytes_written += record_bytes;
    // GC rewrites are internal traffic: only user commits count as log
    // records for the group-commit accounting.
    stats_.wal_records++;
  }
  // Entries index in order, so a later entry for the same key wins (and
  // immediately deadens the earlier one), exactly as if submitted
  // individually — crash replay walks the record in the same order.
  for (size_t i = 0; i < layout.size(); i++) {
    const kv::WriteBatch::Entry& e = batch.entries()[i];
    Location loc;
    loc.segment = active_id_;
    loc.value_offset = offset + layout[i].value_offset;
    loc.value_bytes = static_cast<uint32_t>(e.value.size());
    loc.entry_bytes = layout[i].entry_bytes;
    ApplyToIndex(e.kind, e.key, loc);
  }
  return Status::OK();
}

kv::WriteBatch AlogStore::ExpandRangeDeletes(const kv::WriteBatch& batch,
                                             bool* changed) const {
  *changed = false;
  bool has_range = false;
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    if (e.kind == kv::WriteBatch::EntryKind::kDeleteRange) {
      has_range = true;
      break;
    }
  }
  if (!has_range) return {};
  *changed = true;
  kv::WriteBatch out;
  // Batch-local overlay: entries earlier in this batch shadow the index
  // for later range entries (a put inside the batch is covered by a
  // following range over it; a delete removes the key from coverage).
  std::map<std::string, bool, std::less<>> overlay;  // key -> live?
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    switch (e.kind) {
      case kv::WriteBatch::EntryKind::kPut:
        out.Put(e.key, e.value);
        overlay[std::string(e.key)] = true;
        break;
      case kv::WriteBatch::EntryKind::kDelete:
        out.Delete(e.key);
        overlay[std::string(e.key)] = false;
        break;
      case kv::WriteBatch::EntryKind::kDeleteRange: {
        const std::string_view begin = e.key;
        const std::string_view end = e.value;  // exclusive
        if (begin >= end) break;
        std::set<std::string, std::less<>> covered;
        for (auto it = index_.lower_bound(begin);
             it != index_.end() && it->first < end; ++it) {
          if (!it->second.tombstone) covered.insert(it->first);
        }
        for (auto it = overlay.lower_bound(begin);
             it != overlay.end() && it->first < end; ++it) {
          if (it->second) {
            covered.insert(it->first);
          } else {
            covered.erase(it->first);
          }
        }
        for (const std::string& k : covered) {
          out.Delete(k);
          overlay[k] = false;
        }
        break;
      }
    }
  }
  return out;
}

Status AlogStore::WriteInternal(const kv::WriteBatch& batch) {
  // Range deletes are expanded into per-key tombstones at commit time:
  // the index is the only source of covered keys, and expanding before
  // the append makes the on-disk record (and crash replay) plain.
  bool expanded_changed = false;
  const kv::WriteBatch expanded = ExpandRangeDeletes(batch, &expanded_changed);
  const kv::WriteBatch& to_apply = expanded_changed ? expanded : batch;

  auto now = [this]() {
    return options_.clock != nullptr ? options_.clock->NowNanos() : 0;
  };
  const int64_t t0 = now();
  // A batch whose ranges covered nothing can expand to empty: the stats
  // above still count the logical deletes, but nothing needs appending.
  if (!to_apply.empty()) {
    PTSB_RETURN_IF_ERROR(ApplyBatchRecord(to_apply, /*gc=*/false));
  }
  stats_.time_wal_ns += now() - t0;

  const int64_t t1 = now();
  PTSB_RETURN_IF_ERROR(MaybeGc());
  stats_.time_compaction_ns += now() - t1;
  return Status::OK();
}

Status AlogStore::SettleBackgroundWork() {
  PTSB_CHECK(!closed_);
  const Status s = MaybeGc();
  JoinBackgroundWork();  // settling means waiting the work out
  return s;
}

Status AlogStore::GetInternal(std::string_view key, std::string* value) {
  return IndexGet(index_, key, value);
}

Status AlogStore::IndexGet(const Index& index, std::string_view key,
                           std::string* value) {
  ChargeCpu(options_.cpu_get_ns);
  stats_.user_gets++;
  const auto it = index.find(key);
  if (it == index.end()) return Status::NotFound("no such key");
  if (it->second.tombstone) return Status::NotFound("deleted");
  const Location& loc = it->second;
  value->resize(loc.value_bytes);
  PTSB_ASSIGN_OR_RETURN(
      const uint64_t got,
      SegmentFile(loc.segment)
          ->ReadAt(loc.value_offset, loc.value_bytes, value->data()));
  if (got != loc.value_bytes) return Status::Corruption("short value read");
  stats_.user_bytes_read += value->size();
  return Status::OK();
}

Status AlogStore::MaybeGc() {
  if (replaying_) return Status::OK();
  // Full-segment collections, run inline with the triggering write (the
  // log engine's analog of compaction pacing). Two triggers:
  //  - dead-ratio: sealed dead bytes exceed gc_trigger of sealed payload
  //    (an O(1) check against the running sealed counters);
  //  - space pressure: the filesystem is nearly full, so collect any
  //    reclaimable segment even below the ratio (the WA cost of GC at
  //    high utilization is the log engine's version of SSD overprovision
  //    pressure). A collection needs headroom to rewrite the victim's
  //    live data before its file is deleted, hence the early threshold;
  //    because that threshold spans several segments, the filesystem is
  //    only consulted after a segment roll, not on every write.
  for (;;) {
    if (sealed_payload_bytes_ == 0) return Status::OK();
    const uint64_t dead = sealed_payload_bytes_ - sealed_live_bytes_;
    const bool over_trigger =
        static_cast<double>(dead) >
        options_.gc_trigger * static_cast<double>(sealed_payload_bytes_);
    if (!over_trigger) {
      if (!pressure_check_due_) return Status::OK();
      const fs::FsStats fs_stats = fs_->GetStats();
      const bool space_pressure =
          fs_stats.free_bytes <
          std::max<uint64_t>(4 * options_.segment_bytes,
                             fs_stats.capacity_bytes / 32);
      if (!space_pressure) {
        pressure_check_due_ = false;
        return Status::OK();
      }
    }
    // The coldest segment: highest dead ratio, oldest on ties. A segment
    // with nothing dead reclaims nothing — if none qualifies, further
    // writes legitimately run the store out of space.
    uint64_t victim = 0;
    double worst = 0.0;
    for (const auto& [id, seg] : segments_) {
      if (!seg.sealed || seg.payload_bytes == 0 ||
          seg.live_bytes == seg.payload_bytes) {
        continue;
      }
      const double ratio =
          static_cast<double>(seg.payload_bytes - seg.live_bytes) /
          static_cast<double>(seg.payload_bytes);
      if (ratio > worst) {
        worst = ratio;
        victim = id;
      }
    }
    if (victim == 0) {
      pressure_check_due_ = false;
      return Status::OK();
    }
    PTSB_RETURN_IF_ERROR(CollectSegment(victim));
  }
}

Status AlogStore::CollectSegment(uint64_t id) {
  const auto seg_it = segments_.find(id);
  PTSB_CHECK(seg_it != segments_.end() && seg_it->second.sealed);
  // Dropping a tombstone is safe only when no older record for its key can
  // survive it. The index points at the newest record per key, so every
  // other record for the key is older; if this is the oldest segment they
  // all live here and die with the file. Otherwise the tombstone must move
  // forward to keep shadowing them through future replays. An older
  // zombie counts: its file is still on disk, and a crash before its
  // deletion replays it.
  const bool oldest =
      segments_.begin()->first == id &&
      (zombie_segments_.empty() || zombie_segments_.begin()->first > id);

  // Finding the victim's entries costs a full index walk, and near full
  // that is neither rare nor cheap: at the benchmark's alog-gc workload
  // the index holds ~31k keys, a 64 KiB segment ~16 entries, and a
  // collection runs every ~21 puts, so each walks ~31k entries to find
  // ~16. A per-segment (value_offset, key) list, each entry checked
  // against the index, finds them in the victim's size instead (measured
  // there: 67 -> 20 us/op host time, same digests, +6 MiB RSS); it waits
  // on the benchmark's trace-overhead gate, which that speedup crosses.
  struct Ref {
    std::string key;
    Location loc;
  };
  std::vector<Ref> refs;
  refs.reserve(seg_it->second.live_entries);
  for (const auto& [key, loc] : index_) {
    if (loc.segment == id) refs.push_back({key, loc});
  }
  // Read live values in file order (sequential on a real device).
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.loc.value_offset < b.loc.value_offset;
  });

  // The read phase: the victim's live values are read on the pool's
  // lanes, in contiguous file-order chunks, one per lane, so a
  // collection's reads overlap across SSD channels.
  std::vector<size_t> live;
  for (size_t i = 0; i < refs.size(); i++) {
    if (!refs[i].loc.tombstone) live.push_back(i);
  }
  std::vector<std::string> values(refs.size());
  PTSB_RETURN_IF_ERROR(
      FanOut(live.size(), [&](size_t begin, size_t end) -> Status {
        for (size_t j = begin; j < end; j++) {
          const Ref& ref = refs[live[j]];
          std::string* out = &values[live[j]];
          out->resize(ref.loc.value_bytes);
          PTSB_ASSIGN_OR_RETURN(
              const uint64_t got,
              seg_it->second.file->ReadAt(ref.loc.value_offset,
                                          ref.loc.value_bytes, out->data()));
          if (got != ref.loc.value_bytes) {
            return Status::Corruption("short GC value read");
          }
        }
        return Status::OK();
      }));
  // The rewrite batch, in file order.
  kv::WriteBatch batch;
  for (size_t i = 0; i < refs.size(); i++) {
    const Ref& r = refs[i];
    if (r.loc.tombstone) {
      if (oldest) {
        ReleaseLocation(r.loc);
        index_.erase(r.key);
      } else {
        batch.Delete(r.key);
      }
      continue;
    }
    stats_.gc_bytes_read += r.loc.value_bytes;
    batch.Put(r.key, values[i]);
  }

  if (!batch.empty()) {
    // The victim's file is deleted below, so the rewritten live data must
    // be durable first: a crash with the GC record still in the unsynced
    // tail would drop it whole on replay (torn crc) while the durable
    // originals are already gone with the victim's file. The rewrite
    // depends on every lane's reads; it runs on lane 0 after a
    // background-side barrier (the foreground does not wait).
    pool_.Barrier();
    PTSB_RETURN_IF_ERROR(RunBackground(0, [&]() -> Status {
      PTSB_RETURN_IF_ERROR(ApplyBatchRecord(batch, /*gc=*/true));
      return log_->Sync();
    }));
  }

  const SegmentInfo& collected = segments_.at(id);
  PTSB_CHECK_EQ(collected.live_entries, 0u)
      << "collected segment still referenced";
  sealed_payload_bytes_ -= collected.payload_bytes;
  sealed_live_bytes_ -= collected.live_bytes;
  if (seg_pins_.count(id) != 0) {
    // A live snapshot still reads values out of this file: keep it as a
    // zombie (and account its bytes) until the last pin drops.
    ZombieSegment z;
    z.file = collected.file;
    z.file_bytes = collected.file->size();
    stats_.snapshot_pinned_bytes += z.file_bytes;
    zombie_segments_.emplace(id, z);
  } else {
    // The deletion orders after the rewrite on lane 0 (file metadata
    // work stays on the background timeline).
    PTSB_RETURN_IF_ERROR(RunBackground(0, [&] {
      return fs_->Delete(kv::NumberedFileName(dir_, id, ".seg"));
    }));
  }
  segments_.erase(id);
  return Status::OK();
}

fs::File* AlogStore::SegmentFile(uint64_t id) const {
  const auto it = segments_.find(id);
  if (it != segments_.end()) return it->second.file;
  const auto z = zombie_segments_.find(id);
  PTSB_CHECK(z != zombie_segments_.end()) << "segment " << id << " gone";
  return z->second.file;
}

// A frozen copy of the index plus pins on every segment existing at
// creation. Segments are append-only, so the copied locations stay
// readable as long as the files exist; the pins defer GC's file deletion
// (zombies) until the last pinning snapshot drops. Contract (as in the
// other engines): the snapshot must outlive cursors created from it and
// must be released before the store is destroyed.
class AlogStore::SnapshotImpl : public StoreSnapshot {
 public:
  explicit SnapshotImpl(AlogStore* store)
      : StoreSnapshot(store), store_(store) {}
  ~SnapshotImpl() override { store_->ReleaseSnapshot(*this); }
  uint64_t sequence() const override { return seq_; }

  AlogStore* store_;
  uint64_t seq_ = 0;  // write_epoch_ at creation (opaque ordering token)
  Index index_;
  std::vector<uint64_t> pinned_;  // segment ids pinned at creation
};

StatusOr<std::shared_ptr<const kv::Snapshot>> AlogStore::GetSnapshot() {
  PTSB_CHECK(!closed_);
  return write_group_.RunExclusive(
      [&]() -> StatusOr<std::shared_ptr<const kv::Snapshot>> {
        auto snap = std::make_shared<SnapshotImpl>(this);
        snap->seq_ = write_epoch_;
        // Full copy: the index IS the engine's version state, and the
        // engine keeps no historical versions to share.
        snap->index_ = index_;
        snap->pinned_.reserve(segments_.size());
        for (const auto& [id, seg] : segments_) {
          snap->pinned_.push_back(id);
          seg_pins_[id]++;
        }
        stats_.snapshots_created++;
        stats_.snapshots_open++;
        return std::shared_ptr<const kv::Snapshot>(std::move(snap));
      });
}

void AlogStore::UnpinSegment(uint64_t id) {
  auto it = seg_pins_.find(id);
  PTSB_CHECK(it != seg_pins_.end());
  if (--it->second > 0) return;
  seg_pins_.erase(it);
  const auto z = zombie_segments_.find(id);
  if (z == zombie_segments_.end()) return;  // still a live segment
  // No snapshot pins the file any more, whether or not it can be deleted.
  stats_.snapshot_pinned_bytes -= z->second.file_bytes;
  // A failed deletion (a dying device) keeps the zombie: its file stays on
  // disk, where the next open replays it harmlessly and reclaims it, and
  // CollectSegment's oldest-segment rule must keep counting it.
  if (fs_->Delete(kv::NumberedFileName(dir_, id, ".seg")).ok()) {
    zombie_segments_.erase(z);
  }
}

void AlogStore::ReleaseSnapshot(const SnapshotImpl& snap) {
  write_group_.RunExclusive([&] {
    for (const uint64_t id : snap.pinned_) UnpinSegment(id);
    stats_.snapshots_open--;
  });
}

Status AlogStore::SnapshotGetInternal(const kv::Snapshot& snap,
                                      std::string_view key,
                                      std::string* value) {
  return IndexGet(static_cast<const SnapshotImpl&>(snap).index_, key, value);
}

// Ordered cursor over an index, the store's own (live view) or a
// snapshot's frozen copy; values are read lazily from the segment files
// (SegmentFile, which also finds the GC-deferred files a snapshot pins)
// as the cursor positions.
//
// Live view: the cursor holds an iterator into the store's index, so any
// write invalidates it (appends retarget the index, GC deletes segment
// files) — the same contract as the other engines, checked in debug
// builds. Moves take no lock: the contract already requires a quiesced
// writer.
//
// Snapshot view: the index is owned by the snapshot (immutable), so
// concurrent writes never move it — no write-epoch check. Each movement
// runs under the commit-exclusion lock (segment reads share the File
// substrate with commits), but the cursor stays valid across writes made
// between movements.
class AlogStore::Cursor : public kv::KVStore::Iterator {
 public:
  // A null `snap` selects the live view.
  Cursor(AlogStore* store, const SnapshotImpl* snap)
      : store_(store),
        index_(snap != nullptr ? &snap->index_ : &store->index_),
        live_(snap == nullptr),
        epoch_(store->write_epoch_),
        pos_(index_->end()) {}

  void SeekToFirst() override { Move([&] { Position(index_->begin()); }); }
  void Seek(std::string_view target) override {
    Move([&] { Position(index_->lower_bound(target)); });
  }
  void Next() override {
    Move([&] {
      if (valid_) Position(std::next(pos_));
    });
  }
  bool Valid() const override {
    CheckEpoch();
    return valid_;
  }
  std::string_view key() const override {
    CheckEpoch();
    return pos_->first;
  }
  std::string_view value() const override {
    CheckEpoch();
    return value_;
  }
  Status status() const override { return status_; }

 private:
  using ConstIter = Index::const_iterator;

  // Debug-build fail-fast on a live cursor used after a write: appends
  // retarget the index node it holds and GC deletes the segment files it
  // reads from, so continuing would silently read stale (or freed) state.
  void CheckEpoch() const {
    PTSB_DCHECK(!live_ || epoch_ == store_->write_epoch_)
        << "alog iterator used after a write to the store; iterators "
           "observe the store as of creation and are invalidated by "
           "writes (create, consume, discard)";
  }

  // Runs one cursor movement: epoch-checked in the live view, under the
  // commit-exclusion lock in the snapshot view.
  template <typename F>
  void Move(const F& move) {
    if (live_) {
      CheckEpoch();
      move();
    } else {
      store_->write_group_.RunExclusive(move);
    }
  }

  void Position(ConstIter it) {
    valid_ = false;
    if (!status_.ok()) return;
    while (it != index_->end() && it->second.tombstone) ++it;
    if (it == index_->end()) return;  // clean end-of-data
    if (!ReadValue(it)) return;
    pos_ = it;
    store_->stats_.user_bytes_read += it->first.size() + value_.size();
    valid_ = true;
  }

  // Reads the value at `it` into value_.
  bool ReadValue(ConstIter it) {
    const Location& loc = it->second;
    value_.resize(loc.value_bytes);
    auto got = store_->SegmentFile(loc.segment)
                   ->ReadAt(loc.value_offset, loc.value_bytes, value_.data());
    if (!got.ok()) {
      status_ = got.status();
      return false;
    }
    if (*got != loc.value_bytes) {
      status_ = Status::Corruption("short value read");
      return false;
    }
    return true;
  }

  AlogStore* store_;
  const Index* const index_;
  const bool live_;
  const uint64_t epoch_;  // store_->write_epoch_ at creation (live view)
  ConstIter pos_;
  std::string value_;
  bool valid_ = false;
  Status status_;
};

std::unique_ptr<kv::KVStore::Iterator> AlogStore::NewIteratorInternal(
    const kv::Snapshot* snap) {
  return std::make_unique<Cursor>(this,
                                  static_cast<const SnapshotImpl*>(snap));
}

Status AlogStore::Flush() {
  PTSB_CHECK(!closed_);
  JoinBackgroundWork();  // durability waits out in-flight GC rewrites
  if (log_ != nullptr) PTSB_RETURN_IF_ERROR(log_->Sync());
  return Status::OK();
}

Status AlogStore::Close() {
  if (closed_) return Status::OK();
  JoinBackgroundWork();
  if (active_id_ != 0) {
    SegmentInfo& seg = segments_.at(active_id_);
    PTSB_RETURN_IF_ERROR(log_->Sync());
    PTSB_RETURN_IF_ERROR(seg.file->ShrinkToFit());
    if (seg.payload_bytes == 0) {
      // Nothing was ever appended; don't leave an empty segment behind.
      PTSB_RETURN_IF_ERROR(
          fs_->Delete(kv::NumberedFileName(dir_, active_id_, ".seg")));
      segments_.erase(active_id_);
    }
    active_id_ = 0;
    log_.reset();
  }
  closed_ = true;
  return Status::OK();
}

uint64_t AlogStore::DiskBytesUsed() const {
  uint64_t total = 0;
  for (const std::string& name : fs_->List(dir_ + "/")) {
    auto size = fs_->FileSize(name);
    if (size.ok()) total += *size;
  }
  return total;
}

uint64_t AlogStore::LiveKeys() const {
  uint64_t n = 0;
  for (const auto& [key, loc] : index_) {
    if (!loc.tombstone) n++;
  }
  return n;
}

uint64_t AlogStore::DeadBytes() const {
  // Recomputed from scratch (tests cross-check the running counters the
  // GC trigger uses against this).
  uint64_t dead = 0;
  for (const auto& [id, seg] : segments_) {
    if (seg.sealed) dead += seg.payload_bytes - seg.live_bytes;
  }
  PTSB_DCHECK(dead == sealed_payload_bytes_ - sealed_live_bytes_);
  return dead;
}

std::string AlogStore::DebugString() const {
  std::string out = StrPrintf("AlogStore index=%zu keys  segments=%zu\n",
                              index_.size(), segments_.size());
  for (const auto& [id, seg] : segments_) {
    out += StrPrintf("  seg %06llu%s: payload=%s live=%s (%llu entries)\n",
                     static_cast<unsigned long long>(id),
                     seg.sealed ? "" : " (active)",
                     HumanBytes(seg.payload_bytes).c_str(),
                     HumanBytes(seg.live_bytes).c_str(),
                     static_cast<unsigned long long>(seg.live_entries));
  }
  return out;
}

std::map<std::string, std::string> EncodeEngineParams(const AlogOptions& o) {
  return kv::EncodeParams(o);
}

std::map<std::string, std::string> ScaledEngineParams(uint64_t scale) {
  AlogOptions o;
  o.segment_bytes = std::max<uint64_t>(o.segment_bytes / scale, 64 << 10);
  return EncodeEngineParams(o);
}

}  // namespace ptsb::alog
