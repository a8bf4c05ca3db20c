#include "kv/group_commit_store.h"

#include <algorithm>

#include "sim/clock.h"

namespace ptsb::kv {

GroupCommitStore::GroupCommitStore(const CommonOptions& o)
    : pool_(o.background_io ? o.clock : nullptr,
            o.background_io && o.clock != nullptr
                ? std::max(1, o.compaction_parallelism)
                : 1),
      clock_(o.clock),
      cpu_put_ns_(o.cpu_put_ns) {}

Status GroupCommitStore::Write(const WriteBatch& batch) {
  PTSB_CHECK(!closed_);
  // An empty batch is a no-op: no record, no stats movement.
  if (batch.empty()) return Status::OK();
  // Cross-thread group commit: a single caller passes straight through
  // (group of one, no copy); concurrent callers elect a leader that
  // merges their batches into one log record.
  return write_group_.Commit(
      batch, [this](const WriteBatch& merged, size_t n_user_batches) {
        write_epoch_++;
        ChargeCpu(cpu_put_ns_ * static_cast<int64_t>(merged.Count()));
        stats_.user_batches += n_user_batches;
        stats_.write_groups++;
        stats_.write_group_batches += n_user_batches;
        for (const WriteBatch::Entry& e : merged.entries()) {
          // A range delete counts as one logical delete; a point delete's
          // value is empty, so every entry charges key + value bytes.
          if (e.kind == WriteBatch::EntryKind::kPut) {
            stats_.user_puts++;
          } else {
            stats_.user_deletes++;
          }
          stats_.user_bytes_written += e.key.size() + e.value.size();
        }
        return WriteInternal(merged);
      });
}

Status GroupCommitStore::Get(std::string_view key, std::string* value) {
  PTSB_CHECK(!closed_);
  // Exclude in-flight group commits: a leader may be moving the state
  // this read walks on another thread.
  return write_group_.RunExclusive([&] { return GetInternal(key, value); });
}

Status GroupCommitStore::Get(const ReadOptions& opts, std::string_view key,
                             std::string* value) {
  if (opts.snapshot == nullptr) return Get(key, value);
  PTSB_CHECK(!closed_);
  const Snapshot& snap = OwnSnapshot<StoreSnapshot>(opts.snapshot);
  return write_group_.RunExclusive(
      [&] { return SnapshotGetInternal(snap, key, value); });
}

std::unique_ptr<KVStore::Iterator> GroupCommitStore::NewIterator(
    const ReadOptions& opts) {
  PTSB_CHECK(!closed_);
  const Snapshot* snap = opts.snapshot == nullptr
                             ? nullptr
                             : &OwnSnapshot<StoreSnapshot>(opts.snapshot);
  // Construction reads the engine's state, so it excludes in-flight
  // commits; a live cursor's later moves still require a quiesced writer
  // (epoch-checked in debug builds).
  return write_group_.RunExclusive([&] {
    stats_.user_scans++;
    return NewIteratorInternal(snap);
  });
}

void GroupCommitStore::ChargeCpu(int64_t ns) const {
  if (clock_ != nullptr) clock_->Advance(ns);
}

Status GroupCommitStore::RunBackground(int lane,
                                       const std::function<Status()>& work) {
  BackgroundResult r = pool_.Run(lane, work);
  stats_.time_background_ns += r.busy_ns;
  return r.status;
}

Status GroupCommitStore::FanOut(
    size_t n, const std::function<Status(size_t, size_t)>& work) {
  const size_t lanes = static_cast<size_t>(pool_.lanes());
  const size_t per = (n + lanes - 1) / lanes;
  for (size_t begin = 0; begin < n; begin += per) {
    const size_t end = std::min(n, begin + per);
    PTSB_RETURN_IF_ERROR(RunBackground(static_cast<int>(begin / per),
                                       [&] { return work(begin, end); }));
  }
  return Status::OK();
}

void GroupCommitStore::DcheckSnapshotsReleased() const {
  PTSB_DCHECK(GetStats().snapshots_open == 0 &&
              GetStats().snapshot_pinned_bytes == 0)
      << "store destroyed while a snapshot of it is still open";
}

}  // namespace ptsb::kv
