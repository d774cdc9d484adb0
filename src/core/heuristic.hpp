// The paper's search heuristic (Figure 6) and its order-permutation
// variants (Section 4 compares against a line-size-first order).
//
// The heuristic tunes one parameter at a time, walking the parameter's
// values in ascending order (the flush-free direction established by the
// Figure 5 analysis) for as long as total energy keeps improving:
//
//   1. cache size   2 KB -> 4 KB -> 8 KB      (direct-mapped, 16 B line)
//   2. line size    16 B -> 32 B -> 64 B      (at the chosen size)
//   3. associativity 1 -> 2 -> 4 way          (as the size permits)
//   4. way prediction off -> on               (only if associativity > 1)
//
// Each parameter walk stops at the first value that increases energy and
// keeps the best value seen. The heuristic evaluates at most
// sum(parameter values) configurations instead of the product. The walk
// itself is core/search.hpp's greedy_walk over the platform space.
#pragma once

#include <array>
#include <vector>

#include "cache/config.hpp"
#include "core/evaluator.hpp"
#include "core/search.hpp"

namespace stcache {

enum class Param : std::uint8_t { kSize, kLine, kAssoc, kPred };

// The paper's order. Alternative orders are used by the ablation bench.
inline constexpr std::array<Param, 4> kPaperOrder = {Param::kSize, Param::kLine,
                                                     Param::kAssoc, Param::kPred};

using SearchResult = BasicSearchResult<CacheConfig, double>;

// The 27-configuration platform: all_configs() in scan order, starting from
// the 2 KB direct-mapped 16 B-line configuration as the paper prescribes,
// with the four parameter axes in `order`. The order must contain each
// Param exactly once.
DesignSpace<CacheConfig> platform_space(std::array<Param, 4> order = kPaperOrder);

// Run the heuristic over platform_space(order).
SearchResult tune(Evaluator& eval, std::array<Param, 4> order = kPaperOrder);

// Exhaustive baseline: evaluate every legal configuration, return the
// optimum (ties broken toward the earlier configuration in all_configs()
// order).
SearchResult tune_exhaustive(Evaluator& eval);

// All 24 parameter orders (for the search-order ablation).
std::vector<std::array<Param, 4>> all_param_orders();

std::string to_string(Param p);

// Candidate configurations for growing parameter `p` from `cfg`, in
// ascending order (the flush-free direction), from the platform axis of
// `p`. The clock-steppable FSMD queues them; candidates may be invalid
// (e.g. 4-way at 2 KB), which terminates its walk.
std::vector<CacheConfig> ascending_candidates(const CacheConfig& cfg, Param p);

}  // namespace stcache
