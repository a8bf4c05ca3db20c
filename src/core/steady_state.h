// Steady-state detection, per the paper's guidelines (Section 4.1): a
// holistic detector that calls a run steady once KV throughput, WA-A and
// WA-D have all been stable for a while, or once cumulative host writes
// reach 3x the device capacity (the rule of thumb).
#ifndef PTSB_CORE_STEADY_STATE_H_
#define PTSB_CORE_STEADY_STATE_H_

#include <cstdint>
#include <cstddef>
#include <deque>

namespace ptsb::core {

// Holistic steady-state detection over experiment windows.
class SteadyStateDetector {
 public:
  // Steady when for `window_count` consecutive windows, each tracked
  // metric's spread (max-min)/mean stays below `rel_tolerance`; or when
  // cumulative host writes reach `capacity_multiple` x device capacity.
  SteadyStateDetector(size_t window_count = 6, double rel_tolerance = 0.1,
                      double capacity_multiple = 3.0);

  void AddWindow(double kv_kops, double wa_a, double wa_d,
                 uint64_t cumulative_host_bytes, uint64_t device_capacity);

  bool IsSteady() const { return steady_; }
  bool SteadyByMetrics() const { return steady_by_metrics_; }
  bool SteadyByVolume() const { return steady_by_volume_; }

 private:
  static bool Stable(const std::deque<double>& values, double tol);

  size_t window_count_;
  double rel_tolerance_;
  double capacity_multiple_;
  std::deque<double> tput_, wa_a_, wa_d_;
  bool steady_ = false;
  bool steady_by_metrics_ = false;
  bool steady_by_volume_ = false;
};

}  // namespace ptsb::core

#endif  // PTSB_CORE_STEADY_STATE_H_
