// Steady-state monitor: the paper's Pitfall-1 guideline as a tool. Runs a
// write workload and reports, window by window, what a naive benchmark
// would have concluded versus what the holistic steady-state detector
// (throughput + WA-A + WA-D stability, or 3x-capacity host writes) says.
//
//   ./build/steady_state_monitor [scale]
#include <cstdio>
#include <cstdlib>

#include "core/experiment.h"
#include "core/steady_state.h"
#include "util/logging.h"

using namespace ptsb;

int main(int argc, char** argv) {
  core::ExperimentConfig config;
  config.scale = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400;
  config.engine = "lsm";
  config.duration_minutes = 150;
  config.window_minutes = 10;
  config.name = "steady-state-monitor";

  std::printf("running the paper's default workload; watching for steady "
              "state...\n\n");
  auto result = core::RunExperiment(config);
  PTSB_CHECK_OK(result.status());

  core::SteadyStateDetector detector;
  core::CusumDetector cusum(/*warmup=*/3, /*k_rel=*/0.05, /*h_rel=*/0.4);
  uint64_t host_cum = 0;
  bool announced = false;
  std::printf("  window  Kops/s   WA-A   WA-D   CUSUM   verdict\n");
  for (const auto& w : result->series.windows) {
    // Approximate cumulative host bytes from the device-write rate.
    host_cum += static_cast<uint64_t>(w.dev_write_mbps * 1e6 * 60 *
                                      config.window_minutes / config.scale);
    const bool cusum_alarm = cusum.Add(w.kv_kops);
    detector.AddWindow(w.kv_kops, w.wa_a_cum, w.wa_d_cum, host_cum,
                       config.ScaledDeviceBytes());
    std::printf("  %5.0f  %7.2f  %5.2f  %5.2f   %-6s  %s\n", w.t_minutes,
                w.kv_kops, w.wa_a_cum, w.wa_d_cum,
                cusum_alarm ? "drift!" : "-",
                detector.IsSteady()
                    ? (detector.SteadyByMetrics() ? "steady (metrics)"
                                                  : "steady (3x capacity)")
                    : "transient");
    if (detector.IsSteady() && !announced) {
      announced = true;
      std::printf("        ^-- measurements before this point are bursty "
                  "(pitfall 1)\n");
    }
  }

  const auto& first = result->series.windows.front();
  std::printf("\nnaive 10-minute benchmark: %.2f Kops/s\n", first.kv_kops);
  std::printf("steady-state answer:       %.2f Kops/s (%.1fx lower)\n",
              result->steady.kv_kops,
              first.kv_kops / result->steady.kv_kops);
  return 0;
}
