// FTL ablations and the paper's Section 4.2 reference point: a pure
// uniform-random write workload over 60% of the device has WA-D around
// 1.4.
//
// Sweeps: utilization x hardware OP; GC write-placement policy; host
// open-block striping width; filesystem discard vs nodiscard.
//
//   ./build/micro_ftl      (takes no flags; --help prints the usage)
#include <cstdio>

#include "core/report.h"
#include "flags.h"
#include "fs/file.h"
#include "fs/filesystem.h"
#include "ssd/precondition.h"
#include "ssd/ssd_device.h"
#include "util/logging.h"
#include "util/random.h"

namespace ptsb {
namespace {

double RandomWriteWaD(double utilization, double op_frac, int stripe,
                      bool separate_gc) {
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  cfg.geometry.hardware_op_frac = op_frac;
  cfg.gc_separate_open_block = separate_gc;
  cfg.host_open_blocks = stripe;
  sim::SimClock clock;
  ssd::SsdDevice dev(cfg, &clock);
  const uint64_t lbas = dev.num_lbas();
  const auto used = static_cast<uint64_t>(utilization * static_cast<double>(lbas));
  Rng rng(7);
  for (uint64_t i = 0; i < used; i++) {
    PTSB_CHECK_OK(dev.Write(i, 1, nullptr));
  }
  // Steady the GC, then measure.
  for (uint64_t i = 0; i < 4 * used; i++) {
    PTSB_CHECK_OK(dev.Write(rng.Uniform(used), 1, nullptr));
  }
  const auto s0 = dev.smart();
  for (uint64_t i = 0; i < 2 * used; i++) {
    PTSB_CHECK_OK(dev.Write(rng.Uniform(used), 1, nullptr));
  }
  const auto s1 = dev.smart();
  return static_cast<double>(s1.nand_bytes_written - s0.nand_bytes_written) /
         static_cast<double>(s1.host_bytes_written - s0.host_bytes_written);
}

int Main(int argc, char** argv) {
  bench::FlagParser parser;
  parser.Parse(argc, argv, "  (none: every sweep runs at a fixed size)\n");
  std::printf("=== micro_ftl: FTL ablations ===\n");

  std::printf("\nWA-D vs utilization (hardware OP = 12%%, stripe = 8):\n");
  std::printf("  util:   ");
  for (double u : {0.3, 0.45, 0.6, 0.75, 0.9}) std::printf("  %5.2f", u);
  std::printf("\n  WA-D:   ");
  std::string csv = "utilization,wa_d\n";
  for (double u : {0.3, 0.45, 0.6, 0.75, 0.9}) {
    const double wa = RandomWriteWaD(u, 0.12, 8, true);
    std::printf("  %5.2f", wa);
    char line[48];
    snprintf(line, sizeof(line), "%.2f,%.3f\n", u, wa);
    csv += line;
  }
  std::printf("\n");
  core::WriteResultsFile("micro_ftl_utilization.csv", csv);

  const double ref = RandomWriteWaD(0.6, 0.12, 8, true);
  core::Report report("Section 4.2 reference point");
  report.AddComparison("pure random write at 60% utilization WA-D", 1.4,
                       ref);
  report.PrintTo(stdout);

  std::printf("\nWA-D vs hardware OP (util = 0.9):\n");
  for (double op : {0.07, 0.12, 0.2, 0.4}) {
    std::printf("  OP=%4.2f -> WA-D %5.2f\n", op,
                RandomWriteWaD(0.9, op, 8, true));
  }

  std::printf("\nGC write placement (util = 0.9, 90/10 skew workloads use "
              "tests; uniform here):\n");
  std::printf("  dedicated GC open block: WA-D %5.2f\n",
              RandomWriteWaD(0.9, 0.12, 8, true));
  std::printf("  shared with host:        WA-D %5.2f\n",
              RandomWriteWaD(0.9, 0.12, 8, false));

  std::printf("\nhost open-block striping width (util = 0.75):\n");
  for (int stripe : {1, 2, 8, 16}) {
    std::printf("  stripe=%2d -> WA-D %5.2f\n", stripe,
                RandomWriteWaD(0.75, 0.12, stripe, true));
  }

  // Filesystem discard vs nodiscard: with discard, deleting files trims
  // their LBAs, giving the FTL free space back (changes the Pitfall-3
  // story entirely).
  std::printf("\nfilesystem churn: nodiscard vs discard mount option\n");
  for (const bool nodiscard : {true, false}) {
    ssd::SsdConfig cfg;
    cfg.geometry.logical_bytes = 256ull << 20;
    cfg.geometry.hardware_op_frac = 0.12;
    sim::SimClock clock;
    ssd::SsdDevice dev(cfg, &clock);
    fs::FsOptions fso;
    fso.nodiscard = nodiscard;
    fs::SimpleFs fs(&dev, fso);
    Rng rng(11);
    // Churn: create/delete 8 MiB files filling ~70% of the fs.
    const std::string chunk(1 << 20, 'x');
    int generation = 0;
    std::vector<std::string> live;
    for (int i = 0; i < 400; i++) {
      if (live.size() >= 20 && rng.Bernoulli(0.55)) {
        const size_t idx = rng.Uniform(live.size());
        PTSB_CHECK_OK(fs.Delete(live[idx]));
        live.erase(live.begin() + static_cast<long>(idx));
      } else {
        const std::string name = "f" + std::to_string(generation++);
        auto file = fs.Create(name);
        PTSB_CHECK_OK(file.status());
        for (int j = 0; j < 8; j++) PTSB_CHECK_OK((*file)->Append(chunk));
        live.push_back(name);
      }
    }
    std::printf("  %-10s WA-D %5.2f  (FTL-valid pages: %llu)\n",
                nodiscard ? "nodiscard:" : "discard:", dev.smart().WaD(),
                static_cast<unsigned long long>(
                    dev.ftl().GetStats().valid_pages));
  }
  return 0;
}

}  // namespace
}  // namespace ptsb

int main(int argc, char** argv) { return ptsb::Main(argc, argv); }
