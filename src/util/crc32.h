// CRC-32C (Castagnoli) checksums for on-"disk" format integrity (SST blocks,
// WAL records, B+Tree pages, journal entries). Crc32c runs the CPU's crc32
// instruction where it has one (x86-64 SSE4.2, detected once per process)
// and a portable slice-by-8 loop elsewhere; both give the same result.
#ifndef PTSB_UTIL_CRC32_H_
#define PTSB_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ptsb {

// Computes CRC-32C of data[0, n), extending an initial crc (0 to start).
uint32_t Crc32c(uint32_t crc, const void* data, size_t n);

namespace detail {
// The portable implementation, which Crc32c falls back to; exposed so that
// a test can hold the hardware path against it.
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n);
}  // namespace detail

inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(0, data.data(), data.size());
}

// Masked CRC stored in files, so that a CRC of data that embeds CRCs does not
// degenerate (same trick as LevelDB/RocksDB).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8ul;
  return (rot >> 17) | (rot << 15);
}

}  // namespace ptsb

#endif  // PTSB_UTIL_CRC32_H_
