// Known answers and properties of the CRC-32 in util/crc32.hpp. Every
// CHUNK frame and every STCT v2 footer carries this checksum, and the
// tests that write those fixtures compute it with the same code, so only
// an independent reference can catch a wrong but self-consistent CRC.
// The reference here is the bit-at-a-time definition of the reflected
// IEEE CRC-32 (polynomial 0xEDB88320, initial value and final XOR
// 0xFFFFFFFF), the value zlib.crc32() returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace stcache {
namespace {

std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);  // the CRC-32 check value
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
  const char* fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(fox, std::strlen(fox)), 0x414FA339u);
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32(zeros.data(), zeros.size()), 0x190A55ADu);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32(ones.data(), ones.size()), 0xFF6CAB0Bu);
}

TEST(Crc32, MatchesTheBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..80 cover zero, one and several 16-byte steps plus every
  // tail length; offsets 0..7 start the steps at every alignment.
  const std::vector<std::uint8_t> bytes = random_bytes(96, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 80; ++len) {
      EXPECT_EQ(crc32(bytes.data() + offset, len),
                reference_crc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, RandomSplitsOfUpdateGiveTheOneShotValue) {
  Rng rng(7);
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.next_below(4096);
    const std::vector<std::uint8_t> bytes = random_bytes(n, 100 + trial);
    const std::uint32_t want = reference_crc32(bytes.data(), n);
    ASSERT_EQ(crc32(bytes.data(), n), want) << "length " << n;
    Crc32 crc;
    std::size_t at = 0;
    while (at < n) {
      // Pieces of 0..40 bytes: empty updates, sub-step tails and pieces
      // spanning several 16-byte steps all occur.
      const std::size_t piece =
          std::min<std::size_t>(rng.next_below(41), n - at);
      crc.update(bytes.data() + at, piece);
      at += piece;
    }
    EXPECT_EQ(crc.value(), want) << "trial " << trial << " length " << n;
  }
}

}  // namespace
}  // namespace stcache
