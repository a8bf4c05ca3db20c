// Device profiles modeled after the paper's three SSDs (Section 4.7):
//   SSD1: Intel DC p3600-like enterprise flash drive,
//   SSD2: Intel 660p-like consumer QLC drive with a large write cache,
//   SSD3: Intel Optane-like 3D-XPoint drive (in-place updates, no GC).
// Parameters are calibrated so the *relative* behaviors of Figs. 9-10
// reproduce; see EXPERIMENTS.md for paper-vs-measured numbers.
#ifndef PTSB_SSD_PROFILES_H_
#define PTSB_SSD_PROFILES_H_

#include <cstdint>
#include <optional>
#include <string>

#include "ssd/config.h"

namespace ptsb::ssd {

enum class ProfileKind { kSsd1Enterprise, kSsd2ConsumerQlc, kSsd3Optane };

// Returns a profile scaled down by `scale_denominator`: logical capacity
// and cache size divide by it; latencies and bandwidths do not.
SsdConfig MakeProfile(ProfileKind kind, uint64_t logical_bytes,
                      uint64_t scale_denominator = 1);

// The paper's 400 GB drive.
constexpr uint64_t kPaperDeviceBytes = 400ull * 1000 * 1000 * 1000;

// "ssd1", "ssd2" or "ssd3"; nullopt for any other name.
std::optional<ProfileKind> ProfileFromName(const std::string& name);
std::string ProfileName(ProfileKind kind);

}  // namespace ptsb::ssd

#endif  // PTSB_SSD_PROFILES_H_
