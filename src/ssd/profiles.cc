#include "ssd/profiles.h"

#include "util/logging.h"

namespace ptsb::ssd {

SsdConfig MakeProfile(ProfileKind kind, uint64_t logical_bytes,
                      uint64_t scale_denominator) {
  PTSB_CHECK_GT(scale_denominator, 0u);
  SsdConfig c;
  c.geometry.logical_bytes = logical_bytes / scale_denominator;
  c.geometry.page_bytes = 4096;
  c.geometry.pages_per_block = 256;

  switch (kind) {
    case ProfileKind::kSsd1Enterprise: {
      // Enterprise flash: moderate hardware OP, solid sustained program
      // bandwidth, small power-loss-protected cache, higher per-command
      // write latency than cached consumer drives.
      c.name = "SSD1(p3600-like)";
      c.geometry.hardware_op_frac = 0.12;
      c.timing.host_write_bw = 1.8e9;
      c.timing.program_bw = 550e6;
      c.timing.read_latency_ns = 90'000;
      c.timing.read_bw = 2.1e9;
      c.timing.write_ack_latency_ns = 100'000;
      c.timing.cache_bytes = (256ull << 20) / scale_denominator;
      c.timing.flush_latency_ns = 20'000;
      break;
    }
    case ProfileKind::kSsd2ConsumerQlc: {
      // Consumer QLC: very fast cache admission, large SLC cache, but slow
      // sustained (QLC) program bandwidth. Bursts larger than the cache
      // stall for long periods (paper Fig. 10, SSD2).
      c.name = "SSD2(660p-like)";
      c.geometry.hardware_op_frac = 0.08;
      c.timing.host_write_bw = 1.8e9;
      c.timing.program_bw = 60e6;
      c.timing.read_latency_ns = 70'000;
      c.timing.read_bw = 1.8e9;
      c.timing.write_ack_latency_ns = 30'000;
      c.timing.cache_bytes = (24ull << 30) / scale_denominator;
      c.timing.flush_latency_ns = 500'000;
      break;
    }
    case ProfileKind::kSsd3Optane: {
      // 3D-XPoint: byte-addressable medium with in-place updates. Modeled
      // as flash with enormous OP (GC essentially never relocates valid
      // data; WA-D stays ~1), very low latency, high bandwidth, no cache
      // needed.
      c.name = "SSD3(optane-like)";
      c.geometry.hardware_op_frac = 0.55;
      c.host_open_blocks = 1;  // byte-addressable medium: no striping games
      c.timing.host_write_bw = 2.5e9;
      c.timing.program_bw = 2.2e9;
      c.timing.read_latency_ns = 10'000;
      c.timing.read_bw = 2.5e9;
      c.timing.write_ack_latency_ns = 15'000;
      c.timing.cache_bytes = (64ull << 20) / scale_denominator;
      c.timing.flush_latency_ns = 5'000;
      break;
    }
  }
  return c;
}

std::optional<ProfileKind> ProfileFromName(const std::string& name) {
  if (name == "ssd1") return ProfileKind::kSsd1Enterprise;
  if (name == "ssd2") return ProfileKind::kSsd2ConsumerQlc;
  if (name == "ssd3") return ProfileKind::kSsd3Optane;
  return std::nullopt;
}

std::string ProfileName(ProfileKind kind) {
  switch (kind) {
    case ProfileKind::kSsd1Enterprise: return "ssd1";
    case ProfileKind::kSsd2ConsumerQlc: return "ssd2";
    case ProfileKind::kSsd3Optane: return "ssd3";
  }
  return "?";
}

}  // namespace ptsb::ssd
