// GroupCommitStore: the shared base of the storage engines, which all
// commit through a kv::WriteGroup (lsm, btree, alog). It owns what those
// engines have in common — the write group and its commit-exclusion
// lock, the KvStoreStats, the write epoch, the closed flag, the clock
// wiring and the engine's one kv::BackgroundPool — and implements the
// shared surface once: Write (with the user-write accounting WA-A
// divides by), both Gets, NewIterator and GetStats. An engine supplies
// only its mechanism, through the protected hooks.
//
// Concurrency contract. Write may be called from any number of threads:
// callers line up in the write group and a leader commits their batches as ONE
// WriteInternal call (one log record). Every point read — Get and snapshot Get
// — runs under the group's commit-exclusion lock, so no reader observes a
// half-applied group. Iterators and lifecycle calls
// (Flush/Close/SettleBackgroundWork) still expect a quiesced store; the
// engines' write-epoch checks enforce it for iterators in debug builds.
#ifndef PTSB_KV_GROUP_COMMIT_STORE_H_
#define PTSB_KV_GROUP_COMMIT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "kv/background_pool.h"
#include "kv/kvstore.h"
#include "kv/params.h"
#include "kv/write_group.h"
#include "util/logging.h"
#include "util/status.h"

namespace ptsb::kv {

class GroupCommitStore : public KVStore {
 public:
  // Off background_io, RunBackground runs the work inline on the caller's
  // timeline; on (with a clock), the pool gets max(1,
  // compaction_parallelism) lanes.
  explicit GroupCommitStore(const CommonOptions& o);

  Status Write(const WriteBatch& batch) override;
  Status Get(std::string_view key, std::string* value) override;
  // Checks the snapshot came from this store, then runs
  // SnapshotGetInternal under commit exclusion.
  Status Get(const ReadOptions& opts, std::string_view key,
             std::string* value) override;
  // Checks a snapshot came from this store, then counts the scan and
  // opens the engine's cursor (NewIteratorInternal) under commit
  // exclusion.
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& opts) override;
  using KVStore::NewIterator;
  KvStoreStats GetStats() const override {
    return write_group_.RunExclusive([&] { return stats_; });
  }

 protected:
  // Base of every engine's snapshot type: remembers the store that froze
  // it, so snapshot reads can reject another store's snapshot.
  class StoreSnapshot : public Snapshot {
   public:
    explicit StoreSnapshot(const GroupCommitStore* owner) : owner_(owner) {}
    const GroupCommitStore* owner() const { return owner_; }

   private:
    const GroupCommitStore* const owner_;
  };

  // `snap` (from ReadOptions) as the engine's snapshot type `Impl`,
  // after checking this store made it.
  template <typename Impl>
  const Impl& OwnSnapshot(const Snapshot* snap) const {
    const auto* s = static_cast<const StoreSnapshot*>(snap);
    PTSB_CHECK(s->owner() == this) << "snapshot from a different store";
    return static_cast<const Impl&>(*s);
  }

  // The leader's commit of a merged group, after the shared prologue has
  // bumped the write epoch, charged the CPU and counted the user writes.
  virtual Status WriteInternal(const WriteBatch& batch) = 0;
  // Get's body, run under commit exclusion.
  virtual Status GetInternal(std::string_view key, std::string* value) = 0;
  // Snapshot Get's body, run under commit exclusion; `snap` is the
  // engine's own snapshot type.
  virtual Status SnapshotGetInternal(const Snapshot& snap,
                                     std::string_view key,
                                     std::string* value) = 0;
  // NewIterator's body, run under commit exclusion: the engine's one
  // cursor over the live store (`snap` null) or over `snap`, which is the
  // engine's own snapshot type.
  virtual std::unique_ptr<Iterator> NewIteratorInternal(
      const Snapshot* snap) = 0;

  void ChargeCpu(int64_t ns) const;
  // Runs `work` on background lane `lane` (inline when background_io is
  // off) and adds the lane's busy time to time_background_ns.
  Status RunBackground(int lane, const std::function<Status()>& work);
  // Splits items [0, n) into contiguous chunks of ceil(n / lanes), one
  // per lane, and runs work(begin, end) for chunk i on lane i, so every
  // lane issues its share in order.
  Status FanOut(size_t n,
                const std::function<Status(size_t, size_t)>& work);
  // Advances the foreground clock past all background work: the explicit
  // wait at stalls, Flush, Close and SettleBackgroundWork.
  void JoinBackgroundWork() { pool_.Join(); }
  // Debug builds: every snapshot must be released before its store is
  // destroyed (the snapshot's deleter calls back into the store). Engines
  // call this first thing in their destructors, while GetStats still
  // sees the whole engine.
  void DcheckSnapshotsReleased() const;

  KvStoreStats stats_;
  // Bumped by every commit and by engine mutations that move what
  // iterators point into; debug builds compare it against the value an
  // iterator captured to fail fast on use-after-write.
  uint64_t write_epoch_ = 0;
  // Set by each engine's Open once recovery succeeded. A store whose Open
  // failed is dropped as it stands: its destructor must not run Close,
  // which would checkpoint or flush a partly replayed state and retire
  // the logs that still hold the rest.
  bool opened_ = false;
  bool closed_ = false;
  // mutable: taking the exclusion lock is not logically a mutation.
  mutable WriteGroup write_group_;
  BackgroundPool pool_;

 private:
  sim::SimClock* const clock_;
  const int64_t cpu_put_ns_;
};

}  // namespace ptsb::kv

#endif  // PTSB_KV_GROUP_COMMIT_STORE_H_
