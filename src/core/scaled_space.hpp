// Heuristic accuracy on larger caches — the paper's declared future work.
//
// "While our search heuristic is scalable to larger caches, which have
//  more possible settings for cache size, line size, and associativity,
//  we have not analyzed the accuracy of our heuristic with larger caches
//  but plan to do so as future work." (Section 3.4)
//
// This module carries out that analysis: a generalized parameter space
// (arbitrary size/associativity/line-size value lists), the same
// ascending-greedy heuristic over it, and an exhaustive baseline. Caches
// are modeled with the generic CacheModel + mini-CACTI energy (way
// prediction is a platform-specific mechanism and is excluded here, as the
// paper's own scaling discussion excludes it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_model.hpp"
#include "core/evaluator.hpp"
#include "core/search.hpp"

namespace stcache {

struct ScaledSpace {
  std::vector<std::uint32_t> sizes;   // bytes, ascending
  std::vector<std::uint32_t> assocs;  // ways, ascending
  std::vector<std::uint32_t> lines;   // bytes, ascending

  ScaledSpace() = default;
  // Builds the design space once, so callers never triple-loop sizes x
  // ways x lines again. The parameter vectors stay public for reading;
  // treat them as frozen after construction.
  ScaledSpace(std::vector<std::uint32_t> sizes,
              std::vector<std::uint32_t> assocs,
              std::vector<std::uint32_t> lines);

  // The platform of the paper scaled up one notch: 4-32 KB, up to 8-way,
  // 16-128 B lines (4*4*4 = 64 legal combinations).
  static ScaledSpace embedded_32k();
  // A desktop-ish L1 space: 8-64 KB, up to 8-way, 16-128 B (64 points).
  static ScaledSpace desktop_64k();

  // Every geometrically valid configuration in deterministic size-major
  // (size, assoc, line) ascending order — the same order the exhaustive
  // search has always scanned in, so optimum tie-breaking (strict
  // improvement) is unchanged.
  const std::vector<CacheGeometry>& configs() const { return space_.points; }
  unsigned total_configs() const {
    return static_cast<unsigned>(space_.points.size());
  }
  bool valid(const CacheGeometry& g) const { return space_.valid(g); }
  // configs() as a search space: the smallest configuration starts, and the
  // walk order is size, then line size, then associativity.
  const DesignSpace<CacheGeometry>& design() const { return space_; }

 private:
  DesignSpace<CacheGeometry> space_;
};

using ScaledSearchResult = BasicSearchResult<CacheGeometry, double>;

// The Figure 6 heuristic generalized: greedy_walk over space.design().
ScaledSearchResult tune_scaled(ScaledEvaluator& eval, const ScaledSpace& space);

// Primes `eval` with the whole space in one bank pass, then scans it.
ScaledSearchResult tune_scaled_exhaustive(ScaledEvaluator& eval,
                                          const ScaledSpace& space);

// E.g. "32K_4W_64B"; sizes under 1 KB print in bytes ("512B_1W_16B").
std::string geometry_name(const CacheGeometry& g);

}  // namespace stcache
