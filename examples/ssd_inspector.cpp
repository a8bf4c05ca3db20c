// SSD inspector: demonstrates the device-level mechanics behind the
// paper's pitfalls — how the initial state (trimmed vs preconditioned) and
// the write pattern drive garbage collection and WA-D.
//
//   ./build/ssd_inspector
#include <cstdio>

#include "sim/clock.h"
#include "ssd/precondition.h"
#include "ssd/ssd_device.h"
#include "util/human.h"
#include "util/logging.h"
#include "util/random.h"

using namespace ptsb;

static ssd::SsdConfig SmallDrive() {
  ssd::SsdConfig c;
  c.geometry.logical_bytes = 1ull << 30;
  c.geometry.hardware_op_frac = 0.12;
  return c;
}

static void Report(const char* what, const ssd::SsdDevice& dev) {
  const auto smart = dev.smart();
  const auto ftl = dev.ftl().GetStats();
  std::printf(
      "%-38s host=%9s nand=%9s WA-D=%4.2f  valid=%7llu pages  "
      "free=%5llu blocks\n",
      what, HumanBytes(smart.host_bytes_written).c_str(),
      HumanBytes(smart.nand_bytes_written).c_str(), smart.WaD(),
      static_cast<unsigned long long>(ftl.valid_pages),
      static_cast<unsigned long long>(ftl.free_blocks));
}

int main() {
  std::printf("Pitfall 3 in miniature: the same random-write workload on "
              "two initial device states.\n\n");
  for (const auto state :
       {ssd::InitialState::kTrimmed, ssd::InitialState::kPreconditioned}) {
    sim::SimClock clock;
    ssd::SsdDevice dev(SmallDrive(), &clock);
    PTSB_CHECK_OK(ssd::ApplyInitialState(&dev, state));
    std::printf("== initial state: %s ==\n", ssd::InitialStateName(state));
    Report("after state preparation", dev);

    // Workload: fill half the LBA space, then update it randomly.
    const uint64_t lbas = dev.num_lbas();
    Rng rng(1);
    for (uint64_t i = 0; i < lbas / 2; i++) {
      PTSB_CHECK_OK(dev.Write(i, 1, nullptr));
    }
    Report("after sequential fill of 50% LBAs", dev);

    // Measure WA-D over the update phase only (the paper's guideline).
    const auto before = dev.smart();
    for (uint64_t i = 0; i < 2 * lbas; i++) {
      PTSB_CHECK_OK(dev.Write(rng.Uniform(lbas / 2), 1, nullptr));
    }
    const auto after = dev.smart();
    const double wa_update =
        static_cast<double>(after.nand_bytes_written -
                            before.nand_bytes_written) /
        static_cast<double>(after.host_bytes_written -
                            before.host_bytes_written);
    Report("after 2x-capacity random updates", dev);
    std::printf("%-38s WA-D=%4.2f\n\n", "update-phase-only measurement:",
                wa_update);
  }
  std::printf(
      "Takeaway: on the trimmed drive the never-written half of the LBA\n"
      "space keeps acting as over-provisioning, so WA-D stays low; on the\n"
      "preconditioned drive the same workload pays full GC cost. This is\n"
      "exactly why WiredTiger's results depend on drive state (Fig. 3/4).\n");
  return 0;
}
