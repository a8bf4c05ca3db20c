#include "core/steady_state.h"

#include <algorithm>
#include <cmath>

namespace ptsb::core {

SteadyStateDetector::SteadyStateDetector(size_t window_count,
                                         double rel_tolerance,
                                         double capacity_multiple)
    : window_count_(std::max<size_t>(2, window_count)),
      rel_tolerance_(rel_tolerance),
      capacity_multiple_(capacity_multiple) {}

bool SteadyStateDetector::Stable(const std::deque<double>& values,
                                 double tol) {
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  const double mid = (hi + lo) / 2;
  if (std::abs(mid) < 1e-12) return hi - lo < 1e-12;
  return (hi - lo) / std::abs(mid) <= tol;
}

void SteadyStateDetector::AddWindow(double kv_kops, double wa_a, double wa_d,
                                    uint64_t cumulative_host_bytes,
                                    uint64_t device_capacity) {
  auto push = [this](std::deque<double>* dq, double v) {
    dq->push_back(v);
    if (dq->size() > window_count_) dq->pop_front();
  };
  push(&tput_, kv_kops);
  push(&wa_a_, wa_a);
  push(&wa_d_, wa_d);

  if (device_capacity > 0 &&
      static_cast<double>(cumulative_host_bytes) >=
          capacity_multiple_ * static_cast<double>(device_capacity)) {
    steady_by_volume_ = true;
  }
  if (tput_.size() == window_count_) {
    steady_by_metrics_ = Stable(tput_, rel_tolerance_) &&
                         Stable(wa_a_, rel_tolerance_) &&
                         Stable(wa_d_, rel_tolerance_);
  }
  steady_ = steady_by_metrics_ || steady_by_volume_;
}

}  // namespace ptsb::core
