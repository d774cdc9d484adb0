// Multi-level heuristic search (Section 3.4).
//
// The paper sketches scaling the heuristic to a two-level hierarchy:
// 16 KB 8-way L1 instruction and data caches with line sizes
// {8, 16, 32, 64} B and a unified 256 KB 8-way L2 with line sizes
// {64, 128, 256, 512} B. The full cross product is 4*4*4 = 64
// configurations; the one-parameter-at-a-time heuristic (core/search.hpp's
// greedy_walk) examines at most 1 + 3 + 3 + 3 = 10 (the start, then the
// values above it on each axis) while finding a near-optimal point.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_model.hpp"
#include "core/search.hpp"
#include "energy/energy_model.hpp"
#include "trace/trace.hpp"

namespace stcache {

struct TwoLevelConfig {
  std::uint32_t l1i_line = 8;   // {8, 16, 32, 64}
  std::uint32_t l1d_line = 8;   // {8, 16, 32, 64}
  std::uint32_t l2_line = 64;   // {64, 128, 256, 512}

  static constexpr std::uint32_t kL1Bytes = 16 * 1024;
  static constexpr std::uint32_t kL1Assoc = 8;
  static constexpr std::uint32_t kL2Bytes = 256 * 1024;
  static constexpr std::uint32_t kL2Assoc = 8;

  CacheGeometry l1i() const { return {kL1Bytes, kL1Assoc, l1i_line}; }
  CacheGeometry l1d() const { return {kL1Bytes, kL1Assoc, l1d_line}; }
  CacheGeometry l2() const { return {kL2Bytes, kL2Assoc, l2_line}; }

  std::string name() const;
  friend bool operator==(const TwoLevelConfig&, const TwoLevelConfig&) = default;
};

inline constexpr std::array<std::uint32_t, 4> kL1LineSizes = {8, 16, 32, 64};
inline constexpr std::array<std::uint32_t, 4> kL2LineSizes = {64, 128, 256, 512};

// Measured behavior of the two-level hierarchy on one combined trace.
struct TwoLevelStats {
  CacheStats l1i;
  CacheStats l1d;
  CacheStats l2;
  std::uint64_t total_cycles = 0;
  std::uint64_t stall_cycles = 0;
};

// Simulate the hierarchy over a combined (ifetch + data) trace in program
// order. L1 misses access the L2; L2 misses go off chip. Write-back,
// write-allocate at both levels.
TwoLevelStats simulate_two_level(const TwoLevelConfig& cfg,
                                 std::span<const TraceRecord> trace,
                                 TimingParams timing = {});

// Total memory-hierarchy energy of a measured run (dynamic L1 + L2,
// static, off-chip, stall).
double two_level_energy(const TwoLevelConfig& cfg, const TwoLevelStats& stats,
                        const EnergyModel& model);

using TwoLevelSearchResult = BasicSearchResult<TwoLevelConfig, double>;

// Greedy one-parameter-at-a-time heuristic over (L1I line, L1D line, L2
// line), each walked ascending while energy improves. Each evaluated point
// is simulated once: neither walk revisits a point.
TwoLevelSearchResult tune_two_level(std::span<const TraceRecord> trace,
                                    const EnergyModel& model,
                                    TimingParams timing = {});

// Exhaustive 64-point baseline, scanned in (L1I, L1D, L2) nest order.
TwoLevelSearchResult tune_two_level_exhaustive(std::span<const TraceRecord> trace,
                                               const EnergyModel& model,
                                               TimingParams timing = {});

}  // namespace stcache
