#include "common/crc32.hpp"

#include <array>
#include <cstring>

namespace ptatin {

namespace {

// Slicing-by-16 (Intel's slicing-by-8 widened once): t[0] is the classic
// bytewise table; t[s][i] is the CRC of byte i followed by s zero bytes, so
// sixteen table lookups advance the state by sixteen input bytes per
// iteration. The SDC seals CRC entire operator hierarchies after every
// Stokes solve and model states between steps (docs/ROBUSTNESS.md), which
// makes this pass memory-bandwidth-critical rather than incidental.
struct Tables {
  std::uint32_t t[16][256];
};

Tables make_tables() {
  Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tb.t[0][i] = c;
  }
  for (int s = 1; s < 16; ++s)
    for (std::uint32_t i = 0; i < 256; ++i)
      tb.t[s][i] = (tb.t[s - 1][i] >> 8) ^ tb.t[0][tb.t[s - 1][i] & 0xFFu];
  return tb;
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const Tables tb = make_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The word loads fold the running state into the low word, which only
  // lines up with the per-byte recurrence on little-endian hosts; others
  // take the bytewise tail loop for the whole buffer.
  while (n >= 16) {
    std::uint32_t w0, w1, w2, w3;
    std::memcpy(&w0, p, 4);
    std::memcpy(&w1, p + 4, 4);
    std::memcpy(&w2, p + 8, 4);
    std::memcpy(&w3, p + 12, 4);
    w0 ^= c;
    c = tb.t[15][w0 & 0xFFu] ^ tb.t[14][(w0 >> 8) & 0xFFu] ^
        tb.t[13][(w0 >> 16) & 0xFFu] ^ tb.t[12][w0 >> 24] ^
        tb.t[11][w1 & 0xFFu] ^ tb.t[10][(w1 >> 8) & 0xFFu] ^
        tb.t[9][(w1 >> 16) & 0xFFu] ^ tb.t[8][w1 >> 24] ^
        tb.t[7][w2 & 0xFFu] ^ tb.t[6][(w2 >> 8) & 0xFFu] ^
        tb.t[5][(w2 >> 16) & 0xFFu] ^ tb.t[4][w2 >> 24] ^
        tb.t[3][w3 & 0xFFu] ^ tb.t[2][(w3 >> 8) & 0xFFu] ^
        tb.t[1][(w3 >> 16) & 0xFFu] ^ tb.t[0][w3 >> 24];
    p += 16;
    n -= 16;
  }
#endif
  for (std::size_t i = 0; i < n; ++i)
    c = tb.t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

} // namespace ptatin
