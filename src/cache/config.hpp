// Configuration space of the paper's highly configurable cache.
//
// The platform cache (Zhang/Vahid ISCA'03, used by the DATE'04 self-tuning
// work) is built from four 2 KB banks with a 16 B physical line. Three
// parameters are configurable:
//
//   total size     2 / 4 / 8 KB   (way shutdown powers banks off)
//   associativity  1 / 2 / 4 way  (way concatenation fuses banks into one
//                                  logical way, lengthening the index)
//   line size      16 / 32 / 64 B (line concatenation: a miss fills 1/2/4
//                                  physical lines)
//   way prediction on / off       (only meaningful for associativity > 1)
//
// Not all combinations are legal: size is reduced by shutting ways down, so
// a 4 KB cache supports at most 2 ways and a 2 KB cache is direct-mapped
// only. That yields 6 size/associativity pairs x 3 line sizes = 18 base
// configurations, plus way prediction on for the 9 set-associative ones:
// 27 configurations total, matching the paper's count.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace stcache {

enum class CacheSizeKB : std::uint8_t { k2 = 2, k4 = 4, k8 = 8 };
enum class Assoc : std::uint8_t { w1 = 1, w2 = 2, w4 = 4 };
enum class LineBytes : std::uint8_t { b16 = 16, b32 = 32, b64 = 64 };

// Ordered value lists as the heuristic walks them (smallest first — the
// flush-free direction; see Section 3.3 of the paper).
inline constexpr std::array<CacheSizeKB, 3> kCacheSizes = {
    CacheSizeKB::k2, CacheSizeKB::k4, CacheSizeKB::k8};
inline constexpr std::array<Assoc, 3> kAssocs = {Assoc::w1, Assoc::w2,
                                                 Assoc::w4};
inline constexpr std::array<LineBytes, 3> kLineSizes = {
    LineBytes::b16, LineBytes::b32, LineBytes::b64};

// Physical organization constants of the platform cache.
inline constexpr std::uint32_t kBankBytes = 2048;     // one way bank
inline constexpr std::uint32_t kNumBanks = 4;         // 8 KB total
inline constexpr std::uint32_t kPhysicalLineBytes = 16;
inline constexpr std::uint32_t kRowsPerBank = kBankBytes / kPhysicalLineBytes;  // 128

struct CacheConfig {
  CacheSizeKB size_kb = CacheSizeKB::k2;
  Assoc assoc = Assoc::w1;
  LineBytes line = LineBytes::b16;
  bool way_prediction = false;

  // --- derived quantities -------------------------------------------------
  std::uint32_t size_bytes() const {
    return static_cast<std::uint32_t>(size_kb) * 1024u;
  }
  std::uint32_t ways() const { return static_cast<std::uint32_t>(assoc); }
  std::uint32_t line_bytes() const { return static_cast<std::uint32_t>(line); }
  std::uint32_t sublines_per_line() const {
    return line_bytes() / kPhysicalLineBytes;
  }
  // Number of 2 KB banks that remain powered.
  std::uint32_t banks_powered() const { return size_bytes() / kBankBytes; }
  // Banks fused into one logical way by way concatenation.
  std::uint32_t banks_per_way() const { return banks_powered() / ways(); }
  // Sets as seen by the index function (each set spans `ways()` physical
  // lines, one per logical way).
  std::uint32_t num_sets() const {
    return size_bytes() / (ways() * kPhysicalLineBytes);
  }
  std::uint32_t index_bits() const;

  // A size/associativity pair is legal iff the associativity does not
  // exceed the number of powered banks (shutdown removes ways).
  bool valid() const;

  // Canonical name, e.g. "8K_4W_32B" or "8K_4W_32B_P" with way prediction.
  std::string name() const;

  // Parse a canonical name back into a config. Throws stcache::Error on
  // malformed or illegal configurations.
  static CacheConfig parse(const std::string& name);

  friend auto operator<=>(const CacheConfig&, const CacheConfig&) = default;
};

// All legal configurations in a deterministic order (size-major, then line,
// then associativity, then prediction): 27 entries.
const std::vector<CacheConfig>& all_configs();

// The 18 configurations with way prediction off (the size/line/assoc
// space explored by Figures 3 and 4).
const std::vector<CacheConfig>& base_configs();

// The paper's reference point: 8 KB 4-way, 32 B line, no prediction.
CacheConfig base_cache();

std::string to_string(CacheSizeKB s);
std::string to_string(Assoc a);
std::string to_string(LineBytes l);

}  // namespace stcache
