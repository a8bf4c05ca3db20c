// CRC-32C with one implementation chosen per process: the SSE4.2 crc32
// instruction where the CPU has it, else a portable slice-by-8 loop. Both
// give bit-identical results, so on-"disk" bytes do not depend on the host.
#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ptsb {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slice-by-8 tables, built at compile time so that a checksum taken from
// another translation unit's static initialiser never reads them unbuilt.
constexpr Tables MakeTables() {
  constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
  Tables t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = t[0][i];
    for (int s = 1; s < 8; s++) {
      c = t[0][c & 0xff] ^ (c >> 8);
      t[s][i] = c;
    }
  }
  return t;
}

constexpr Tables kT = MakeTables();

#if defined(__x86_64__)
// One crc32 instruction per 8 bytes. The byte steps align the 8-byte loads
// (for speed only: memcpy loads are correct at any address) and take the
// tail.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    n--;
  }
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(c);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    n--;
  }
  return ~crc;
}
#endif

using CrcFn = uint32_t (*)(uint32_t, const void*, size_t);

CrcFn ChooseCrc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return detail::Crc32cPortable;
}

}  // namespace

namespace detail {

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // Align to 8 bytes.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = kT[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    n--;
  }
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= crc;
    crc = kT[7][w & 0xff] ^ kT[6][(w >> 8) & 0xff] ^ kT[5][(w >> 16) & 0xff] ^
          kT[4][(w >> 24) & 0xff] ^ kT[3][(w >> 32) & 0xff] ^
          kT[2][(w >> 40) & 0xff] ^ kT[1][(w >> 48) & 0xff] ^
          kT[0][(w >> 56) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = kT[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    n--;
  }
  return ~crc;
}

}  // namespace detail

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  static const CrcFn fn = ChooseCrc32c();
  return fn(crc, data, n);
}

}  // namespace ptsb
