// Generic set-associative cache model.
//
// Used where the paper needs a cache outside the 27-configuration platform:
// the Figure 2 motivation sweep (1 KB .. 1 MB) and the second-level cache of
// the Section 3.4 multi-level extension. Write-back, write-allocate, true
// LRU replacement.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "cache/stats.hpp"

namespace stcache {

struct CacheGeometry {
  std::uint32_t size_bytes = 0;
  std::uint32_t assoc = 1;
  std::uint32_t line_bytes = 32;

  std::uint32_t num_sets() const { return size_bytes / (assoc * line_bytes); }
  bool valid() const;

  friend auto operator<=>(const CacheGeometry&, const CacheGeometry&) = default;
};

class CacheModel {
 public:
  struct AccessResult {
    bool hit = false;
    std::uint32_t cycles = 0;
  };

  explicit CacheModel(CacheGeometry geometry, TimingParams timing = {});

  AccessResult access(std::uint32_t addr, bool is_write);

  // Non-mutating: would this address hit right now?
  bool probe(std::uint32_t addr) const;

  // Write back every dirty line and invalidate everything. Returns the
  // number of dirty lines written back (also counted in stats).
  std::uint64_t flush();

  const CacheGeometry& geometry() const { return geometry_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

 private:
  struct Line {
    std::uint32_t block = 0;  // addr >> log2(line_bytes)
    std::uint64_t last_use = 0;
    bool valid = false;
    bool dirty = false;
  };

  std::uint32_t block_of(std::uint32_t addr) const { return addr >> line_shift_; }
  std::uint32_t set_of(std::uint32_t block) const { return block & set_mask_; }

  CacheGeometry geometry_;
  TimingParams timing_;
  CacheStats stats_;
  std::vector<Line> lines_;  // [set * assoc + way]
  std::uint64_t tick_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_mask_ = 0;
};

}  // namespace stcache
