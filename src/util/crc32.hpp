// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the same checksum
// zlib and PNG use, so trace files can be cross-checked with standard tools
// (`python3 -c "import zlib, sys; print(zlib.crc32(...))"`).
//
// Slicing-by-16: table k holds each byte's CRC contribution when k zero
// bytes follow it, so one step folds 16 input bytes with 16 independent
// table lookups instead of 16 dependent byte steps (~7× the bytewise rate
// on a Sapphire Rapids core; docs/performance.md §9). Slicing-by-8 measured
// 1.4× slower there, and 16 tables (16 KiB) still fit in L1. Lengths and
// alignments that do not fill a 16-byte step finish on the bytewise table,
// tables[0], so the value is the same for every split of the input.
//
// One code path on every host. The 16 bytes are read as four little-endian
// words assembled from bytes, which GCC -O2 folds into plain 32-bit loads
// on little-endian targets and which still compute the right value on
// big-endian ones. There is no runtime CPU dispatch: the SSE4.2 `crc32`
// instruction computes CRC-32C (Castagnoli), a different polynomial, and a
// carry-less-multiply kernel would be a second path per ISA to keep
// bit-identical with this one.
//
// Header-only with constexpr-generated tables: no init-order concerns, and
// the incremental Crc32 accumulator lets writers checksum multi-million
// record traces buffer by buffer without a second pass over the data.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace stcache {

namespace detail {

inline constexpr auto kCrc32Tables = [] {
  std::array<std::array<std::uint32_t, 256>, 16> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}();

inline std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

// Contribution of the little-endian word `w` whose last byte has `k` bytes
// after it in the current 16-byte step.
inline std::uint32_t crc32_word(std::uint32_t w, std::size_t k) {
  return kCrc32Tables[k + 3][w & 0xFFu] ^ kCrc32Tables[k + 2][(w >> 8) & 0xFFu] ^
         kCrc32Tables[k + 1][(w >> 16) & 0xFFu] ^ kCrc32Tables[k][w >> 24];
}

}  // namespace detail

// Incremental CRC-32 accumulator: feed bytes in any chunking, read value().
class Crc32 {
 public:
  void update(const void* data, std::size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = state_;
    for (; len >= 16; p += 16, len -= 16) {
      c = detail::crc32_word(detail::load_le32(p) ^ c, 12) ^
          detail::crc32_word(detail::load_le32(p + 4), 8) ^
          detail::crc32_word(detail::load_le32(p + 8), 4) ^
          detail::crc32_word(detail::load_le32(p + 12), 0);
    }
    for (; len > 0; ++p, --len) {
      c = detail::kCrc32Tables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    }
    state_ = c;
  }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

// One-shot convenience.
inline std::uint32_t crc32(const void* data, std::size_t len) {
  Crc32 crc;
  crc.update(data, len);
  return crc.value();
}

}  // namespace stcache
