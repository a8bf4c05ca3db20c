#include "kv/write_group.h"

#include <thread>

namespace ptsb::kv {

Status WriteGroup::Commit(const WriteBatch& batch, const CommitFn& fn) {
  Writer w(&batch);
  std::unique_lock<std::mutex> lock(mu_);
  queue_.push_back(&w);
  // Wait until an earlier leader committed on our behalf, or until we
  // reach the queue front and lead the next group ourselves. Writers that
  // arrive while a commit is in flight park here: the in-flight group's
  // members stay at the front until it completes, so none of them can
  // mistake itself for a leader.
  w.cv.wait(lock, [&] { return w.done || queue_.front() == &w; });
  if (w.done) return w.status;

  // Group-formation window: one scheduling-point yield before the scan.
  // Concurrent writers that are runnable but have not reached push_back
  // yet — the common case on few-core hosts, where the previous leader's
  // wake-up runs before the other writer threads get CPU time — get one
  // chance to enqueue and be claimed below. Bounded (a single yield, no
  // timed wait), leaves the virtual clock untouched, and the queue front
  // cannot change underneath us: only the front writer removes itself.
  lock.unlock();
  std::this_thread::yield();
  lock.lock();

  // Leader: claim the longest front run of the queue that fits in
  // kMaxGroupBytes (our own batch always fits).
  size_t n = 1;
  uint64_t bytes = batch.ByteSize();
  while (n < queue_.size() &&
         bytes + queue_[n]->batch->ByteSize() <= kMaxGroupBytes) {
    bytes += queue_[n]->batch->ByteSize();
    n++;
  }
  WriteBatch merged;
  const WriteBatch* unit = &batch;
  if (n > 1) {
    for (size_t i = 0; i < n; i++) merged.Append(*queue_[i]->batch);
    unit = &merged;
  }

  // Commit OUTSIDE the queue lock: writers arriving now enqueue behind
  // the group and merge into the next one. commit_mu_ keeps the engine's
  // internal state single-writer (and excludes RunExclusive readers).
  lock.unlock();
  Status s;
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    s = fn(*unit, n);
  }
  lock.lock();

  // Publish the outcome, retire the group, and hand leadership to the
  // next waiter (if any).
  for (size_t i = 0; i < n; i++) {
    Writer* m = queue_.front();
    queue_.pop_front();
    if (m != &w) {
      m->status = s;
      m->done = true;
      m->cv.notify_one();
    }
  }
  if (!queue_.empty()) queue_.front()->cv.notify_one();
  return s;
}

}  // namespace ptsb::kv
