#include "kv/group_commit_store.h"

#include <algorithm>

#include "sim/clock.h"

namespace ptsb::kv {

namespace {

// Runs `read` in a foreground-read lane on `queue` and wraps the result
// in a ReadHandle; with no clock (or inside an enclosing lane) the read
// runs on the current timeline.
ReadHandle AsyncRead(sim::SimClock* clock, uint32_t queue,
                     const std::function<Status()>& read) {
  sim::LaneResult r =
      sim::RunInLane(clock, queue, sim::IoClass::kForegroundRead, read);
  return ReadHandle(std::move(r.status), r.complete_ns, clock);
}

}  // namespace

GroupCommitStore::GroupCommitStore(const Wiring& w)
    : write_group_(w.max_write_group_bytes),
      pool_(w.background_io ? w.clock : nullptr, w.background_queue,
            w.background_io && w.clock != nullptr
                ? std::max(1, w.compaction_parallelism)
                : 1),
      clock_(w.clock),
      io_queue_(w.io_queue),
      read_queue_depth_(w.read_queue_depth),
      cpu_put_ns_(w.cpu_put_ns) {}

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

WriteHandle GroupCommitStore::WriteAsync(const WriteBatch& batch) {
  sim::LaneResult r =
      sim::RunInLane(clock_, io_queue_, sim::IoClass::kForegroundWrite,
                     [&] { return Write(batch); });
  return WriteHandle(std::move(r.status), r.complete_ns, clock_);
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

std::vector<Status> GroupCommitStore::MultiGet(
    std::span<const std::string_view> keys,
    std::vector<std::string>* values) {
  PTSB_CHECK(!closed_);
  const int depth = read_queue_depth_;
  if (clock_ == nullptr || depth <= 1) return KVStore::MultiGet(keys, values);
  values->assign(keys.size(), std::string());
  std::vector<Status> statuses(keys.size());
  // Bounded fan-out: keep at most `depth` lookups in flight. Waiting the
  // oldest joins its completion into the clock, so later submissions
  // start no earlier than its finish. The in-flight window spans `depth`
  // consecutive indices, so the mod-depth queue ids are distinct within
  // it and lookups stripe across channels.
  std::vector<ReadHandle> handles;
  handles.reserve(keys.size());
  size_t waited = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    const uint32_t queue =
        io_queue_ + static_cast<uint32_t>(i % static_cast<size_t>(depth));
    handles.push_back(AsyncRead(
        clock_, queue, [&, i] { return Get(keys[i], &(*values)[i]); }));
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

ReadHandle GroupCommitStore::ReadAsync(std::string_view key,
                                       std::string* value) {
  return AsyncRead(clock_, io_queue_, [&] { return Get(key, value); });
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
    return NewIteratorInternal(snap, opts.readahead);
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

void GroupCommitStore::DcheckSnapshotsReleased() const {
  PTSB_DCHECK(GetStats().snapshots_open == 0 &&
              GetStats().snapshot_pinned_bytes == 0)
      << "store destroyed while a snapshot of it is still open";
}

}  // namespace ptsb::kv
