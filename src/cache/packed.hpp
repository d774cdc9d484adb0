// The packed replay word: every captured stream reaches the replay kernels
// as 32-bit words, bit 31 = write, bits 30..0 = 16 B block number (byte
// address >> 4; 28 significant bits). Packing happens once per stream —
// pack_stream(), the fast interpreter's capture sinks, the trace readers,
// the packed synthetic generators — and every cache in a bank reads the
// same words.
#pragma once

#include <cstdint>

namespace stcache {

inline constexpr std::uint32_t kPackedWriteBit = 0x8000'0000u;
inline constexpr std::uint32_t kPackedBlockMask = 0x7FFF'FFFFu;

constexpr std::uint32_t pack_word(std::uint32_t addr, bool is_write) {
  return (addr >> 4) | (is_write ? kPackedWriteBit : 0u);
}

}  // namespace stcache
