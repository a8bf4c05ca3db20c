// WriteGroup: a RocksDB-style cross-thread group commit queue.
//
// N threads calling Commit() concurrently line up in arrival order; the
// thread at the queue front becomes the LEADER, claims the batches of the
// followers queued behind it (up to kMaxGroupBytes), merges them into one
// WriteBatch, and runs the engine's commit function ONCE for the whole
// group — one WAL/journal/segment record where a per-thread mutex would
// have written N. Followers block until the leader publishes their status
// and wake with the group's commit outcome (per-batch status == group
// status: the merged record either became durable for everyone or for no
// one, exactly RocksDB's JoinBatchGroup contract).
//
// The leader releases the queue lock while committing, so writers arriving
// DURING a commit enqueue behind the in-flight group and merge into the
// next one — this is what makes the record count sub-linear in the writer
// count under load. With a single caller the queue is always empty at
// entry: the caller claims a group of one and its own batch is passed to
// the commit function directly (no merge copy, no condition-variable wait),
// so the single-threaded fast path is byte- and virtual-time-identical to
// calling the commit function inline.
//
// The group also exports the commit exclusion lock to the read path:
// engines whose point reads mutate internal state (B+Tree LRU bumps, LSM
// memtable probes racing a flush) wrap those reads in RunExclusive so the
// whole store tolerates concurrent Write/Get callers. Iterators are NOT
// covered — they remain create/consume/discard under a quiesced writer,
// enforced by the engines' write-epoch checks.
#ifndef PTSB_KV_WRITE_GROUP_H_
#define PTSB_KV_WRITE_GROUP_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>

#include "kv/write_batch.h"
#include "util/status.h"

namespace ptsb::kv {

class WriteGroup {
 public:
  // Commits `merged` as ONE log record. `n_user_batches` is the number of
  // user Write() calls folded into it, so the engine can keep per-batch
  // accounting (user_batches, write_group_batches) exact under merging.
  using CommitFn = std::function<Status(const WriteBatch& merged,
                                        size_t n_user_batches)>;

  // Cap on the merged payload bytes of one group: the leader claims
  // followers' batches up to this (its own batch always commits). Larger
  // groups amortize record framing further but lengthen the latency of
  // the unluckiest follower.
  static constexpr uint64_t kMaxGroupBytes = 1ull << 20;

  WriteGroup() = default;
  WriteGroup(const WriteGroup&) = delete;
  WriteGroup& operator=(const WriteGroup&) = delete;

  // Thread-safe. Blocks until this batch is durable (committed by this
  // thread as leader or by an earlier leader on its behalf) and returns
  // its commit status. `batch` must stay alive and unmodified for the
  // duration of the call; empty batches are the caller's problem (engines
  // early-return before entering the group).
  Status Commit(const WriteBatch& batch, const CommitFn& fn);

  // Runs `fn` while no group commit is in flight. The engines' read paths
  // (Get / snapshot Get / iterator construction) run under this so
  // concurrent readers never observe a half-applied group.
  template <typename Fn>
  auto RunExclusive(Fn&& fn) {
    std::lock_guard<std::mutex> lock(commit_mu_);
    return std::forward<Fn>(fn)();
  }

 private:
  // One waiting writer, allocated on its caller's stack. The leader
  // touches followers' fields only under mu_, and a follower cannot
  // return (destroying the frame) until it reacquires mu_ after the
  // leader's notify — so no dangling access is possible.
  struct Writer {
    explicit Writer(const WriteBatch* b) : batch(b) {}
    const WriteBatch* batch;
    Status status;
    bool done = false;
    std::condition_variable cv;
  };

  std::mutex mu_;         // guards queue_
  std::mutex commit_mu_;  // held across the commit fn; readers share it
  std::deque<Writer*> queue_;
};

}  // namespace ptsb::kv

#endif  // PTSB_KV_WRITE_GROUP_H_
