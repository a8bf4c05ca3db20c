#include "lsm/lsm_store.h"

#include <algorithm>

#include "util/human.h"
#include "util/logging.h"

namespace ptsb::lsm {

LsmStore::LsmStore(fs::SimpleFs* fs, const LsmOptions& options,
                   std::string dir)
    : GroupCommitStore(options), fs_(fs), options_(options),
      dir_(std::move(dir)) {}

LsmStore::~LsmStore() {
  DcheckSnapshotsReleased();
  if (opened_ && !closed_) {
    // Best-effort shutdown; errors are not recoverable in a destructor.
    Close().ok();
  }
}

StatusOr<std::unique_ptr<LsmStore>> LsmStore::Open(fs::SimpleFs* fs,
                                                   const LsmOptions& options,
                                                   std::string dir) {
  auto store =
      std::unique_ptr<LsmStore>(new LsmStore(fs, options, std::move(dir)));
  store->versions_ =
      std::make_unique<VersionSet>(fs, store->dir_, kMaxLevels);
  PTSB_RETURN_IF_ERROR(store->versions_->Recover());
  store->memtable_ = std::make_shared<Memtable>();
  store->seq_ = store->versions_->last_sequence();
  // Manifest-recovered range tombstones are the flushed baseline; WAL
  // replay re-appends anything newer.
  store->tombstones_ = store->versions_->range_tombstones();
  store->tombstones_persisted_ = store->tombstones_.size();

  // Sweep orphan SSTs: a crash mid-flush/compaction can leave a created
  // but never-installed file whose number the recovered manifest will
  // hand out again (next_file_number is only durable as of the last
  // edit) — the next flush would then collide on Create. Files the
  // manifest doesn't reference are dead by construction; delete them.
  for (const auto& [number, name] :
       kv::ListNumberedFiles(*fs, store->dir_, ".sst")) {
    store->versions_->EnsureFileNumberPast(number);
    bool live = false;
    for (int level = 0; level < store->versions_->num_levels() && !live;
         level++) {
      for (const FileMeta& f : store->versions_->LevelFiles(level)) {
        if (f.number == number) {
          live = true;
          break;
        }
      }
    }
    if (!live) PTSB_RETURN_IF_ERROR(fs->Delete(name));
  }

  // Replay WALs at or above the manifest's log number, in numeric order.
  // A replayed WAL is never appended to (a torn tail must stay the last
  // record): writes go to a fresh WAL, and the next flush deletes it along
  // with the replayed ones.
  std::vector<WalEntry> entries;
  for (const auto& [number, name] :
       kv::ListNumberedFiles(*fs, store->dir_, ".log")) {
    // Its allocation may not be durable: never hand the number out again.
    store->versions_->EnsureFileNumberPast(number);
    if (number < store->versions_->log_number()) {
      // Obsolete: already flushed.
      PTSB_RETURN_IF_ERROR(fs->Delete(name));
      continue;
    }
    PTSB_ASSIGN_OR_RETURN(fs::File * file, fs->Open(name));
    PTSB_RETURN_IF_ERROR(kv::ReplayLog(
        file, [&](uint64_t, std::string_view payload) -> Status {
          PTSB_RETURN_IF_ERROR(DecodeWalBatch(payload, &entries));
          for (const WalEntry& e : entries) {
            if (e.type == EntryType::kRangeDelete) {
              // Range tombstones never enter the memtable: they live in
              // the store's side list (key=begin, value=exclusive end).
              store->tombstones_.push_back(RangeTombstone{
                  std::string(e.key), std::string(e.value), e.seq});
            } else {
              store->memtable_->Add(e.key, e.seq, e.type, e.value);
            }
            store->seq_ = std::max(store->seq_, e.seq);
          }
          return Status::OK();
        }));
    store->wal_numbers_.push_back(number);
  }
  if (options.wal_enabled) {
    const bool replayed = !store->wal_numbers_.empty();
    PTSB_ASSIGN_OR_RETURN(const uint64_t number, store->StartWal());
    if (!replayed) {
      VersionEdit edit;
      edit.log_number = number;
      PTSB_RETURN_IF_ERROR(store->versions_->LogAndApply(edit));
    }
  }
  store->opened_ = true;
  return store;
}

StatusOr<uint64_t> LsmStore::StartWal() {
  const uint64_t number = versions_->NewFileNumber();
  PTSB_ASSIGN_OR_RETURN(
      fs::File * file,
      fs_->Create(kv::NumberedFileName(dir_, number, ".log")));
  wal_ = std::make_unique<kv::LogWriter>(file, options_.wal_sync_every_bytes,
                                         options_.wal_buffer_bytes);
  wal_numbers_.push_back(number);
  return number;
}

Status LsmStore::WriteInternal(const kv::WriteBatch& batch) {
  const SequenceNumber first_seq = seq_ + 1;
  seq_ += batch.Count();
  auto now = [this]() {
    return options_.clock != nullptr ? options_.clock->NowNanos() : 0;
  };
  if (wal_ != nullptr) {
    // Group commit: one record, one crc, for the whole batch.
    const int64_t t0 = now();
    const uint64_t wal_before = wal_->bytes_written();
    PTSB_RETURN_IF_ERROR(wal_->Add(EncodeWalBatch(batch, first_seq)).status());
    stats_.time_wal_ns += now() - t0;
    stats_.wal_bytes_written += wal_->bytes_written() - wal_before;
    stats_.wal_records++;
  }
  SequenceNumber seq = first_seq;
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    const SequenceNumber s = seq++;
    switch (e.kind) {
      case kv::WriteBatch::EntryKind::kPut:
        memtable_->Add(e.key, s, EntryType::kPut, e.value);
        break;
      case kv::WriteBatch::EntryKind::kDelete:
        memtable_->Add(e.key, s, EntryType::kDelete, e.value);
        break;
      case kv::WriteBatch::EntryKind::kDeleteRange:
        // Range tombstones live beside the key space: WAL-logged above,
        // persisted in full by the next manifest edit, filtered on the
        // read paths (never merged into SSTs).
        tombstones_.push_back(RangeTombstone{e.key, e.value, s});
        break;
    }
  }

  if (memtable_->ApproximateBytes() >= options_.memtable_bytes) {
    const int64_t t0 = now();
    PTSB_RETURN_IF_ERROR(FlushMemtable());
    stats_.time_flush_ns += now() - t0;
  }
  // Background compaction's share of the device, paced by user traffic.
  const int64_t t1 = now();
  PTSB_RETURN_IF_ERROR(CompactionWork(
      batch.ByteSize() * options_.compaction_work_per_user_write));
  PTSB_RETURN_IF_ERROR(MaybeStall());
  stats_.time_compaction_ns += now() - t1;
  return Status::OK();
}

Status LsmStore::FlushMemtable() {
  if (memtable_->empty()) {
    if (tombstones_persisted_ == tombstones_.size()) return Status::OK();
    // Nothing to flush, but range tombstones the manifest has not seen
    // yet: persist them in an edit of their own (a DeleteRange-only
    // workload must survive WAL rotation and Close like any other write).
    VersionEdit edit;
    edit.range_tombstones = tombstones_;
    edit.last_sequence = seq_;
    PTSB_RETURN_IF_ERROR(versions_->LogAndApply(edit));
    tombstones_persisted_ = tombstones_.size();
    return Status::OK();
  }
  const uint64_t number = versions_->NewFileNumber();
  PTSB_ASSIGN_OR_RETURN(
      fs::File * file,
      fs_->Create(kv::NumberedFileName(dir_, number, ".sst")));
  SstBuilder builder(file, options_.block_bytes, kBloomBitsPerKey);
  Memtable::Iterator it(memtable_.get());
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    PTSB_RETURN_IF_ERROR(builder.Add(it.key(), it.seq(), it.type(),
                                     it.value()));
  }
  PTSB_RETURN_IF_ERROR(builder.Finish());
  stats_.flush_bytes_written += builder.file_bytes();

  FileMeta meta;
  meta.number = number;
  meta.file_bytes = builder.file_bytes();
  meta.num_entries = builder.num_entries();
  meta.smallest = builder.smallest();
  meta.largest = builder.largest();

  VersionEdit edit;
  edit.added.emplace_back(0, std::move(meta));
  edit.last_sequence = seq_;
  // Every flush re-writes the full tombstone list (replace-on-apply), so
  // the rotated-away WAL's range deletes stay durable.
  edit.range_tombstones = tombstones_;

  // Rotate the WAL: the flushed SST covers everything in the older logs
  // (the current one, plus any replayed at open).
  if (wal_ != nullptr) {
    PTSB_ASSIGN_OR_RETURN(edit.log_number, StartWal());
  }
  PTSB_RETURN_IF_ERROR(versions_->LogAndApply(edit));
  tombstones_persisted_ = tombstones_.size();
  while (wal_ != nullptr && wal_numbers_.size() > 1) {
    PTSB_RETURN_IF_ERROR(fs_->Delete(
        kv::NumberedFileName(dir_, wal_numbers_.front(), ".log")));
    wal_numbers_.erase(wal_numbers_.begin());
  }
  // Rotate, not reset: a snapshot's shared_ptr keeps the old memtable
  // (and the versions it froze) readable after the swap.
  memtable_ = std::make_shared<Memtable>();
  return Status::OK();
}

Status LsmStore::CompactionWork(uint64_t budget) {
  // A zero budget requests no background progress at all (e.g.
  // compaction_work_per_user_write=0 defers every compaction to the
  // explicit drains); without this, picking and preparing a job would
  // still do device reads.
  if (budget == 0) return Status::OK();
  if (compaction_ == nullptr) {
    CompactionPick pick =
        PickCompaction(*versions_, options_, &compaction_cursors_);
    if (!pick.valid) return Status::OK();
    if (pick.trivial_move) {
      // Relink the file into the next level: no table I/O, but the
      // manifest append still runs (and is charged) on lane 0.
      return RunBackground(0, [&] {
        VersionEdit edit;
        edit.removed.emplace_back(pick.level, pick.inputs0[0].number);
        edit.added.emplace_back(pick.level + 1, pick.inputs0[0]);
        return versions_->LogAndApply(edit);
      });
    }
    PTSB_RETURN_IF_ERROR(StartCompaction(std::move(pick)));
  }
  return StepCompaction(budget);
}

Status LsmStore::StartCompaction(CompactionPick pick) {
  auto c = std::make_unique<Compaction>();
  c->pick = std::move(pick);
  // Open each input table once, on lane 0: the subjobs share the
  // readers, so footer/index/bloom reads are paid once, not per
  // subrange.
  std::vector<SstReader*> raw;
  PTSB_RETURN_IF_ERROR(RunBackground(0, [&]() -> Status {
    auto open_input = [&](const FileMeta& f) -> Status {
      PTSB_ASSIGN_OR_RETURN(
          fs::File * file,
          fs_->Open(kv::NumberedFileName(dir_, f.number, ".sst")));
      PTSB_ASSIGN_OR_RETURN(auto reader, SstReader::Open(file));
      raw.push_back(reader.get());
      c->input_readers.push_back(std::move(reader));
      return Status::OK();
    };
    for (const FileMeta& f : c->pick.inputs0) {
      PTSB_RETURN_IF_ERROR(open_input(f));
    }
    for (const FileMeta& f : c->pick.inputs1) {
      PTSB_RETURN_IF_ERROR(open_input(f));
    }
    return Status::OK();
  }));
  // Every subrange depends on the shared opens.
  pool_.Barrier();

  // One subrange per lane: the lane count, not compaction_parallelism,
  // so a store without background lanes never splits.
  const std::vector<std::string> bounds =
      SplitCompactionRange(raw, pool_.lanes());
  const size_t k = bounds.size() + 1;
  for (size_t i = 0; i < k; i++) {
    auto job = std::make_unique<CompactionJob>(fs_, dir_, versions_.get(),
                                               options_, c->pick);
    job->SetKeyBounds(i == 0 ? std::string() : bounds[i - 1],
                      i == bounds.size() ? std::string() : bounds[i]);
    c->jobs.push_back(std::move(job));
  }
  // Seed each subrange on its own lane: the initial Seek loads data
  // blocks, and those reads already overlap across channels.
  for (size_t i = 0; i < k; i++) {
    PTSB_RETURN_IF_ERROR(RunBackground(static_cast<int>(i), [&] {
      return c->jobs[i]->Prepare(raw);
    }));
  }
  compaction_ = std::move(c);
  return Status::OK();
}

Status LsmStore::StepCompaction(uint64_t budget) {
  auto& jobs = compaction_->jobs;
  int live = 0;
  for (const auto& j : jobs) {
    if (!j->finished()) live++;
  }
  if (live > 0) {
    // Split the pacing budget across the live subranges: one call here
    // advances every lane, so a slice still represents `budget` bytes
    // of input overall — the same pacing one job would get.
    const uint64_t share =
        std::max<uint64_t>(1, budget / static_cast<uint64_t>(live));
    for (size_t i = 0; i < jobs.size(); i++) {
      if (jobs[i]->finished()) continue;
      PTSB_RETURN_IF_ERROR(RunBackground(static_cast<int>(i), [&] {
        return jobs[i]->Step(share).status();
      }));
    }
  }
  for (const auto& j : jobs) {
    if (!j->finished()) return Status::OK();
  }
  return InstallCompaction();
}

Status LsmStore::InstallCompaction() {
  PTSB_CHECK(compaction_ != nullptr);
  Compaction& c = *compaction_;
  for (const auto& job : c.jobs) {
    stats_.compaction_bytes_read += job->io_stats().bytes_read;
    stats_.compaction_bytes_written += job->io_stats().bytes_written;
  }
  // The install depends on every subrange: line the lanes up first,
  // then commit on lane 0.
  pool_.Barrier();
  std::vector<uint64_t> deleted;
  const Status s = RunBackground(0, [&]() -> Status {
    // ONE atomic VersionEdit covering all subranges: removals for the
    // shared inputs, additions for every subrange's outputs. A crash
    // before this record leaves only orphan SSTs (the recovery sweep
    // reclaims them); after it, the new version is complete.
    VersionEdit edit;
    for (const FileMeta& f : c.pick.inputs0) {
      edit.removed.emplace_back(c.pick.level, f.number);
    }
    for (const FileMeta& f : c.pick.inputs1) {
      edit.removed.emplace_back(c.pick.level + 1, f.number);
    }
    for (const auto& job : c.jobs) {
      for (const auto& [meta, number] : job->outputs()) {
        edit.added.emplace_back(c.pick.level + 1, meta);
      }
    }
    PTSB_RETURN_IF_ERROR(versions_->LogAndApply(edit));
    // Close the shared readers, then dispose the inputs once. Only
    // physical deletions reach the eviction list, so the table cache
    // keeps serving snapshot-pinned zombies.
    c.jobs.clear();
    c.input_readers.clear();
    auto dispose = [&](const FileMeta& f) -> Status {
      PTSB_ASSIGN_OR_RETURN(const bool gone, DisposeInput(f));
      if (gone) deleted.push_back(f.number);
      return Status::OK();
    };
    for (const FileMeta& f : c.pick.inputs0) {
      PTSB_RETURN_IF_ERROR(dispose(f));
    }
    for (const FileMeta& f : c.pick.inputs1) {
      PTSB_RETURN_IF_ERROR(dispose(f));
    }
    return Status::OK();
  });
  compaction_.reset();
  EvictReaders(deleted);
  return s;
}

Status LsmStore::MaybeStall() {
  // RocksDB's stop-writes condition: too many L0 files. The user write
  // blocks while compaction catches up (device time accrues through the
  // compaction's I/O).
  while (static_cast<int>(versions_->LevelFiles(0).size()) >=
         options_.l0_stall_trigger) {
    stats_.stall_count++;
    PTSB_RETURN_IF_ERROR(CompactionWork(kCompactionBudgetBytes));
    // A stall IS the user waiting for compaction: with background_io the
    // wait shows up as an explicit join of the background horizon (and
    // therefore as commit tail latency), not as per-write compaction
    // time.
    JoinBackgroundWork();
    if (!CompactionPending() &&
        static_cast<int>(versions_->LevelFiles(0).size()) >=
            options_.l0_stall_trigger) {
      // Compaction pressure resolved elsewhere or nothing to do; avoid a
      // livelock.
      break;
    }
  }
  return Status::OK();
}

Status LsmStore::DrainCompactions() {
  write_epoch_++;  // compaction deletes SSTs open iterators may hold
  // Finish the in-flight job and keep compacting until no level is over
  // its trigger. Draining means waiting the work out: join the
  // background horizon before reporting settled.
  for (;;) {
    PTSB_RETURN_IF_ERROR(CompactionWork(kCompactionBudgetBytes * 8));
    if (CompactionPending()) continue;
    CompactionPick pick =
        PickCompaction(*versions_, options_, &compaction_cursors_);
    if (!pick.valid) {
      JoinBackgroundWork();
      return Status::OK();
    }
  }
}

Status LsmStore::CompactAll() {
  PTSB_RETURN_IF_ERROR(FlushMemtable());
  PTSB_RETURN_IF_ERROR(DrainCompactions());
  const int bottom = versions_->MaxPopulatedLevel();
  if (bottom < 0) return Status::OK();

  // Force every level (including the current bottom, so its own tombstones
  // get a chance to drop) down one step, top to bottom.
  const int last_forced = std::min(bottom, versions_->num_levels() - 2);
  for (int level = 0; level <= last_forced; level++) {
    while (!versions_->LevelFiles(level).empty()) {
      CompactionPick pick;
      pick.valid = true;
      pick.level = level;
      pick.inputs0 = versions_->LevelFiles(level);
      std::string smallest, largest;
      for (const FileMeta& f : pick.inputs0) {
        if (smallest.empty() || f.smallest < smallest) smallest = f.smallest;
        if (largest.empty() || f.largest > largest) largest = f.largest;
      }
      pick.inputs1 = versions_->Overlapping(level + 1, smallest, largest);
      pick.drop_tombstones = CanDropTombstones(*versions_, level + 1);
      PTSB_RETURN_IF_ERROR(StartCompaction(std::move(pick)));
      while (compaction_ != nullptr) {
        PTSB_RETURN_IF_ERROR(StepCompaction(kCompactionBudgetBytes * 8));
      }
    }
  }
  // A manual compaction returns once its work is done.
  JoinBackgroundWork();
  return Status::OK();
}

StatusOr<SstReader*> LsmStore::GetReader(uint64_t number) {
  auto it = readers_.find(number);
  if (it != readers_.end()) return it->second.get();
  PTSB_ASSIGN_OR_RETURN(fs::File * file,
                        fs_->Open(kv::NumberedFileName(dir_, number, ".sst")));
  PTSB_ASSIGN_OR_RETURN(auto reader, SstReader::Open(file));
  SstReader* raw = reader.get();
  readers_[number] = std::move(reader);
  return raw;
}

void LsmStore::EvictReaders(const std::vector<uint64_t>& numbers) {
  for (const uint64_t n : numbers) readers_.erase(n);
}

namespace {

// True when some range tombstone visible at `bound` hides a version of
// `key` written at `entry_seq`.
bool CoveredByRange(const std::vector<RangeTombstone>& tombstones,
                    std::string_view key, SequenceNumber entry_seq,
                    SequenceNumber bound) {
  for (const RangeTombstone& t : tombstones) {
    if (t.seq <= bound && RangeCovers(t, key, entry_seq)) return true;
  }
  return false;
}

// Newest version of `key` with seq <= bound in one table. SstReader::Get
// only surfaces the newest version outright, so bounded lookups walk the
// versions (internal order: newest first) through an iterator.
StatusOr<SstReader::GetResult> BoundedSstGet(SstReader* reader,
                                             std::string_view key,
                                             SequenceNumber bound) {
  SstReader::GetResult result;
  SstReader::Iterator it(reader);
  PTSB_RETURN_IF_ERROR(it.Seek(key));
  while (it.Valid() && it.key() == key) {
    if (it.seq() <= bound) {
      result.found = true;
      result.type = it.type();
      result.seq = it.seq();
      result.value.assign(it.value().data(), it.value().size());
      break;
    }
    PTSB_RETURN_IF_ERROR(it.Next());
  }
  return result;
}

}  // namespace

// A frozen view: the sequence bound plus owning references to everything
// a read at that bound can touch — the memtable of the moment (shared_ptr
// keeps it alive across rotations) and a copy of the per-level file lists
// (each file pinned in the store against physical deletion) and range
// tombstones. Destruction releases the pins under commit exclusion; the
// snapshot must be released before the store is destroyed.
class LsmStore::SnapshotImpl : public StoreSnapshot {
 public:
  explicit SnapshotImpl(LsmStore* store)
      : StoreSnapshot(store), store_(store) {}
  ~SnapshotImpl() override { store_->ReleaseSnapshot(*this); }
  uint64_t sequence() const override { return seq_; }

  LsmStore* store_;
  SequenceNumber seq_ = 0;
  std::shared_ptr<Memtable> memtable_;
  std::vector<std::vector<FileMeta>> levels_;
  std::vector<RangeTombstone> tombstones_;
};

StatusOr<std::shared_ptr<const kv::Snapshot>> LsmStore::GetSnapshot() {
  PTSB_CHECK(!closed_);
  return write_group_.RunExclusive(
      [&]() -> StatusOr<std::shared_ptr<const kv::Snapshot>> {
        auto snap = std::make_shared<SnapshotImpl>(this);
        snap->seq_ = seq_;
        snap->memtable_ = memtable_;
        snap->tombstones_ = tombstones_;
        snap->levels_.resize(versions_->num_levels());
        for (int l = 0; l < versions_->num_levels(); l++) {
          snap->levels_[l] = versions_->LevelFiles(l);
          for (const FileMeta& f : snap->levels_[l]) pins_[f.number]++;
        }
        stats_.snapshots_created++;
        stats_.snapshots_open++;
        return std::shared_ptr<const kv::Snapshot>(std::move(snap));
      });
}

void LsmStore::ReleaseSnapshot(const SnapshotImpl& snap) {
  write_group_.RunExclusive([&] {
    for (const auto& level : snap.levels_) {
      for (const FileMeta& f : level) UnpinFile(f.number);
    }
    stats_.snapshots_open--;
  });
}

void LsmStore::UnpinFile(uint64_t number) {
  auto it = pins_.find(number);
  PTSB_CHECK(it != pins_.end());
  if (--it->second > 0) return;
  pins_.erase(it);
  auto z = zombies_.find(number);
  if (z == zombies_.end()) return;  // still in the live version
  stats_.snapshot_pinned_bytes -= z->second;
  zombies_.erase(z);
  readers_.erase(number);
  // Runs inside the snapshot's destructor, so a failure cannot
  // propagate. On a healthy simulated filesystem the delete cannot
  // fail; on a dying device (fault injection) it can — the file is then
  // left behind as an orphan for the open-time sweep instead of
  // crashing in a destructor.
  fs_->Delete(kv::NumberedFileName(dir_, number, ".sst")).ok();
}

StatusOr<bool> LsmStore::DisposeInput(const FileMeta& f) {
  if (pins_.count(f.number) != 0) {
    // A snapshot still reads this input: park it as an on-disk zombie.
    zombies_[f.number] = f.file_bytes;
    stats_.snapshot_pinned_bytes += f.file_bytes;
    return false;
  }
  PTSB_RETURN_IF_ERROR(
      fs_->Delete(kv::NumberedFileName(dir_, f.number, ".sst")));
  return true;
}

Status LsmStore::SnapshotGetInternal(const kv::Snapshot& snapshot,
                                     std::string_view key,
                                     std::string* value) {
  const auto& snap = static_cast<const SnapshotImpl&>(snapshot);
  ChargeCpu(options_.cpu_get_ns);
  stats_.user_gets++;

  const auto mem = snap.memtable_->Get(key, snap.seq_);
  if (mem.found) {
    if (mem.deleted ||
        CoveredByRange(snap.tombstones_, key, mem.seq, snap.seq_)) {
      return Status::NotFound("deleted");
    }
    *value = mem.value;
    stats_.user_bytes_read += value->size();
    return Status::OK();
  }
  for (size_t level = 0; level < snap.levels_.size(); level++) {
    for (const FileMeta& f : snap.levels_[level]) {
      if (key < f.smallest || key > f.largest) continue;
      PTSB_ASSIGN_OR_RETURN(SstReader * reader, GetReader(f.number));
      PTSB_ASSIGN_OR_RETURN(auto result, BoundedSstGet(reader, key, snap.seq_));
      if (result.found) {
        if (result.type == EntryType::kDelete ||
            CoveredByRange(snap.tombstones_, key, result.seq, snap.seq_)) {
          return Status::NotFound("deleted");
        }
        *value = std::move(result.value);
        stats_.user_bytes_read += value->size();
        return Status::OK();
      }
      if (level > 0) break;
    }
  }
  return Status::NotFound("no such key");
}

Status LsmStore::GetInternal(std::string_view key, std::string* value) {
  ChargeCpu(options_.cpu_get_ns);
  stats_.user_gets++;

  constexpr SequenceNumber kNoBound = ~SequenceNumber{0};
  const auto mem = memtable_->Get(key);
  if (mem.found) {
    if (mem.deleted || CoveredByRange(tombstones_, key, mem.seq, kNoBound)) {
      return Status::NotFound("deleted");
    }
    *value = mem.value;
    stats_.user_bytes_read += value->size();
    return Status::OK();
  }
  // L0 newest-first, then deeper levels.
  for (int level = 0; level < versions_->num_levels(); level++) {
    for (const FileMeta& f : versions_->LevelFiles(level)) {
      if (key < f.smallest || key > f.largest) continue;
      PTSB_ASSIGN_OR_RETURN(SstReader * reader, GetReader(f.number));
      PTSB_ASSIGN_OR_RETURN(auto result, reader->Get(key));
      if (result.bloom_negative) stats_.bloom_negatives++;
      if (result.bloom_false_positive) stats_.bloom_false_positives++;
      if (result.found) {
        if (result.type == EntryType::kDelete ||
            CoveredByRange(tombstones_, key, result.seq, kNoBound)) {
          return Status::NotFound("deleted");
        }
        *value = std::move(result.value);
        stats_.user_bytes_read += value->size();
        return Status::OK();
      }
      // L1+ files are disjoint: no other file in this level can match.
      if (level > 0) break;
    }
  }
  return Status::NotFound("no such key");
}

// Streaming merge over a memtable and a set of SSTs: picks the smallest
// entry in internal order, surfaces the newest visible version of each
// user key, skips point and range tombstones. In live mode the sources
// are the store's current memtable and version — any write invalidates
// the iterator (memtable rotation, compaction file deletion). In
// snapshot mode the sources are the snapshot's pinned memtable and
// frozen file lists, entries above the snapshot's sequence bound are
// invisible, and every cursor move takes the commit-exclusion lock — so
// the cursor survives (and serializes against) concurrent writers. The
// snapshot must outlive the cursor.
class LsmStore::MergingIterator : public kv::KVStore::Iterator {
 public:
  MergingIterator(LsmStore* store, const SnapshotImpl* snap)
      : store_(store),
        snap_(snap),
        epoch_(store->write_epoch_),
        bound_(snap != nullptr ? snap->seq_ : ~SequenceNumber{0}),
        tombstones_(snap != nullptr ? snap->tombstones_
                                    : store->tombstones_) {
    Source mem_source;
    const Memtable* mt = snap != nullptr ? snap->memtable_.get()
                                         : store_->memtable_.get();
    mem_source.mem = std::make_unique<Memtable::Iterator>(mt);
    sources_.push_back(std::move(mem_source));
    auto add_file = [&](const FileMeta& f) {
      auto reader = store_->GetReader(f.number);
      if (!reader.ok()) {
        status_ = reader.status();
        return false;
      }
      Source s;
      s.sst = std::make_unique<SstReader::Iterator>(*reader);
      s.largest = f.largest;
      sources_.push_back(std::move(s));
      return true;
    };
    if (snap != nullptr) {
      for (const auto& level : snap->levels_) {
        for (const FileMeta& f : level) {
          if (!add_file(f)) return;
        }
      }
    } else {
      for (int level = 0; level < store_->versions_->num_levels(); level++) {
        for (const FileMeta& f : store_->versions_->LevelFiles(level)) {
          if (!add_file(f)) return;
        }
      }
    }
  }

  void SeekToFirst() override { Seek(""); }

  void Seek(std::string_view target) override {
    if (snap_ != nullptr) {
      store_->write_group_.RunExclusive([&] { SeekImpl(target); });
    } else {
      SeekImpl(target);
    }
  }

  bool Valid() const override {
    CheckEpoch();
    return valid_;
  }

  void Next() override {
    if (snap_ != nullptr) {
      store_->write_group_.RunExclusive([&] { NextImpl(); });
    } else {
      NextImpl();
    }
  }

  std::string_view key() const override {
    CheckEpoch();
    return key_;
  }
  std::string_view value() const override {
    CheckEpoch();
    return value_;
  }
  Status status() const override { return status_; }

 private:
  void SeekImpl(std::string_view target) {
    CheckEpoch();
    if (!status_.ok()) return;
    valid_ = false;
    have_last_ = false;
    for (Source& s : sources_) {
      const Status st = s.Seek(target);
      if (!st.ok()) {
        status_ = st;
        return;
      }
    }
    FindNextLiveEntry();
  }

  void NextImpl() {
    CheckEpoch();
    if (!valid_) return;
    valid_ = false;
    status_ = sources_[current_].Advance();
    if (!status_.ok()) return;
    FindNextLiveEntry();
  }

  // Debug-build fail-fast on use-after-write: a write can rotate the
  // memtable or delete the SSTs this iterator's sources point into, so
  // continuing would silently read stale (or freed) state. Snapshot
  // cursors are exempt: their sources are pinned, and their visibility
  // bound filters what concurrent writers append to the shared memtable.
  void CheckEpoch() const {
    PTSB_DCHECK(snap_ != nullptr || epoch_ == store_->write_epoch_)
        << "LSM iterator used after a write to the store; iterators "
           "observe the store as of creation and are invalidated by "
           "writes (create, consume, discard)";
  }

  struct Source {
    // Exactly one of mem/sst is set.
    std::unique_ptr<Memtable::Iterator> mem;
    std::unique_ptr<SstReader::Iterator> sst;
    std::string largest;  // sst only: upper key bound for pruning
    bool pruned = false;  // file cannot contain keys >= the seek target
    bool Valid() const {
      return !pruned && (mem ? mem->Valid() : sst->Valid());
    }
    std::string_view key() const { return mem ? mem->key() : sst->key(); }
    SequenceNumber seq() const { return mem ? mem->seq() : sst->seq(); }
    EntryType type() const { return mem ? mem->type() : sst->type(); }
    std::string_view value() const {
      return mem ? mem->value() : sst->value();
    }
    Status Seek(std::string_view target) {
      if (mem) {
        mem->Seek(target);
        return Status::OK();
      }
      // Skip the index search and block read for files entirely below
      // the target (the dominant case when seeking into a big store).
      pruned = largest < target;
      if (pruned) return Status::OK();
      return sst->Seek(target);
    }
    Status Advance() {
      if (mem) {
        mem->Next();
        return Status::OK();
      }
      return sst->Next();
    }
  };

  // Advances past shadowed versions and tombstones until positioned on
  // the newest live version of the next user key (or exhausts sources).
  void FindNextLiveEntry() {
    while (status_.ok()) {
      int best = -1;
      for (size_t i = 0; i < sources_.size(); i++) {
        if (!sources_[i].Valid()) continue;
        if (best < 0 ||
            CompareInternal(sources_[i].key(), sources_[i].seq(),
                            sources_[best].key(), sources_[best].seq()) < 0) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) return;  // all sources exhausted: clean end
      Source& src = sources_[best];
      if (src.seq() > bound_) {
        // Written after the snapshot: invisible, and it does NOT shadow —
        // an older visible version of the same key may follow.
        status_ = src.Advance();
        continue;
      }
      const bool shadowed = have_last_ && src.key() == last_user_key_;
      if (!shadowed) {
        last_user_key_.assign(src.key().data(), src.key().size());
        have_last_ = true;
        if (src.type() == EntryType::kPut &&
            !CoveredByRange(tombstones_, src.key(), src.seq(), bound_)) {
          key_ = last_user_key_;
          value_.assign(src.value().data(), src.value().size());
          current_ = static_cast<size_t>(best);
          valid_ = true;
          store_->stats_.user_bytes_read += key_.size() + value_.size();
          return;
        }
      }
      status_ = src.Advance();
    }
  }

  LsmStore* store_;
  const SnapshotImpl* snap_;  // null: live mode
  const uint64_t epoch_;  // store_->write_epoch_ at creation
  const SequenceNumber bound_;  // newest visible sequence
  const std::vector<RangeTombstone> tombstones_;
  std::vector<Source> sources_;
  size_t current_ = 0;  // source providing the current entry
  std::string last_user_key_;
  bool have_last_ = false;
  bool valid_ = false;
  std::string key_;
  std::string value_;
  Status status_;
};

std::unique_ptr<kv::KVStore::Iterator> LsmStore::NewIteratorInternal(
    const kv::Snapshot* snap) {
  return std::make_unique<MergingIterator>(
      this, static_cast<const SnapshotImpl*>(snap));
}

Status LsmStore::Flush() {
  PTSB_CHECK(!closed_);
  write_epoch_++;  // memtable rotation invalidates open iterators
  // The user asked for durability: wait out in-flight background
  // compaction before flushing, like the other engines' Flush does.
  JoinBackgroundWork();
  PTSB_RETURN_IF_ERROR(FlushMemtable());
  return Status::OK();
}

Status LsmStore::Close() {
  if (closed_) return Status::OK();
  JoinBackgroundWork();  // shutdown waits out in-flight compaction
  PTSB_RETURN_IF_ERROR(FlushMemtable());
  if (wal_ != nullptr) PTSB_RETURN_IF_ERROR(wal_->Sync());
  closed_ = true;
  return Status::OK();
}

uint64_t LsmStore::DiskBytesUsed() const {
  uint64_t total = 0;
  for (const std::string& name : fs_->List(dir_ + "/")) {
    auto size = fs_->FileSize(name);
    if (size.ok()) total += *size;
  }
  return total;
}

std::map<std::string, std::string> EncodeEngineParams(const LsmOptions& o) {
  return kv::EncodeParams(o);
}

std::string LsmStore::DebugString() const {
  std::string out = StrPrintf("LsmStore seq=%llu memtable=%s\n",
                              static_cast<unsigned long long>(seq_),
                              HumanBytes(memtable_->ApproximateBytes()).c_str());
  for (int l = 0; l < versions_->num_levels(); l++) {
    const auto& files = versions_->LevelFiles(l);
    if (files.empty()) continue;
    out += StrPrintf("  L%d: %3zu files  %s\n", l, files.size(),
                     HumanBytes(versions_->LevelBytes(l)).c_str());
  }
  return out;
}

}  // namespace ptsb::lsm
