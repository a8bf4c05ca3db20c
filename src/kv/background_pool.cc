#include "kv/background_pool.h"

#include <algorithm>

#include "sim/clock.h"
#include "util/logging.h"

namespace ptsb::kv {

BackgroundPool::BackgroundPool(sim::SimClock* clock, int lanes)
    : clock_(clock) {
  PTSB_CHECK(lanes >= 1);
  horizons_.assign(static_cast<size_t>(lanes), 0);
}

BackgroundResult BackgroundPool::Run(int lane,
                                     const std::function<Status()>& work) {
  const size_t i = static_cast<size_t>(lane) % horizons_.size();
  BackgroundResult r;
  if (clock_ == nullptr ||
      !clock_->BeginAsync(kBackgroundQueue + static_cast<uint32_t>(i),
                          sim::IoClass::kBackground)) {
    // Untimed, or inside an enclosing lane: the work runs on the
    // current timeline, nothing moves off it.
    r.status = work();
    return r;
  }
  // The lane starts no earlier than its previous span finished.
  clock_->AdvanceTo(horizons_[i]);
  const int64_t t0 = clock_->NowNanos();
  r.status = work();
  horizons_[i] = clock_->EndAsync();
  r.busy_ns = horizons_[i] - t0;
  return r;
}

void BackgroundPool::Barrier() {
  const int64_t h = horizon_ns();
  for (int64_t& lane_h : horizons_) lane_h = h;
}

int64_t BackgroundPool::horizon_ns() const {
  return *std::max_element(horizons_.begin(), horizons_.end());
}

void BackgroundPool::Join() {
  if (clock_ != nullptr) clock_->AdvanceTo(horizon_ns());
}

}  // namespace ptsb::kv
