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
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/stats.hpp"
#include "energy/energy_model.hpp"
#include "trace/trace.hpp"

namespace stcache {

struct ScaledSpace {
  std::vector<std::uint32_t> sizes;   // bytes, ascending
  std::vector<std::uint32_t> assocs;  // ways, ascending
  std::vector<std::uint32_t> lines;   // bytes, ascending

  ScaledSpace() = default;
  // Precomputes the valid-config list (configs() below) once, so callers
  // never triple-loop sizes x ways x lines again. The parameter vectors
  // stay public for reading; treat them as frozen after construction.
  ScaledSpace(std::vector<std::uint32_t> sizes,
              std::vector<std::uint32_t> assocs,
              std::vector<std::uint32_t> lines);

  // The platform of the paper scaled up one notch: 4-32 KB, up to 8-way,
  // 16-128 B lines (4*4*4 = 64 legal combinations).
  static ScaledSpace embedded_32k();
  // A desktop-ish L1 space: 8-64 KB, up to 8-way, 16-128 B (64 points).
  static ScaledSpace desktop_64k();

  // Every geometrically valid configuration, precomputed at construction,
  // in deterministic size-major (size, assoc, line) ascending order — the
  // same order the exhaustive search has always scanned in, so optimum
  // tie-breaking (strict improvement) is unchanged.
  const std::vector<CacheGeometry>& configs() const { return configs_; }
  unsigned total_configs() const {
    return static_cast<unsigned>(configs_.size());
  }
  bool valid(const CacheGeometry& g) const;

 private:
  std::vector<CacheGeometry> configs_;
};

// Full-trace evaluator over generic geometries, memoized. Every geometry
// evaluated through it must have line_bytes >= 16 (packed words are 16 B
// blocks). Single-config energy() queries measure a BankAccumulator bank
// of one (the fast sim); prime() measures a whole space in one bank pass.
class ScaledEvaluator {
 public:
  // Packs the record stream once, here.
  ScaledEvaluator(std::span<const TraceRecord> stream, const EnergyModel& model,
                  TimingParams timing = {});
  // Packed-stream variant, borrowed for the evaluator's lifetime.
  ScaledEvaluator(std::span<const std::uint32_t> packed,
                  const EnergyModel& model, TimingParams timing = {})
      : packed_(packed), model_(&model), timing_(timing) {}

  double energy(const CacheGeometry& g);

  // Measure every configuration of `space` in one bank pass — one
  // generalized stack-distance traversal per line-size family, sharded by
  // default_sweep_jobs() — and memoize the energies.
  // tune_scaled_exhaustive calls this; the greedy heuristic keeps its
  // on-demand per-config path.
  void prime(const ScaledSpace& space);
  // Memoize energies from externally measured stats (stats[i] ~ geoms[i]);
  // lets report renderers re-run searches without touching the stream.
  void prime_from(std::span<const CacheGeometry> geoms,
                  std::span<const CacheStats> stats);

  unsigned evaluations() const { return static_cast<unsigned>(memo_.size()); }

 private:
  std::span<const std::uint32_t> words() const {
    return owned_.empty() ? packed_ : std::span<const std::uint32_t>(owned_);
  }

  std::vector<std::uint32_t> owned_;       // records constructor: packed here
  std::span<const std::uint32_t> packed_;  // packed constructor: borrowed
  const EnergyModel* model_;
  TimingParams timing_;
  std::map<std::string, double> memo_;
};

struct ScaledSearchResult {
  CacheGeometry best{};
  double best_energy = 0.0;
  unsigned configs_examined = 0;
};

// The Figure 6 heuristic generalized: start from the smallest configuration
// and walk size, then line size, then associativity, each ascending while
// energy improves.
ScaledSearchResult tune_scaled(ScaledEvaluator& eval, const ScaledSpace& space);

ScaledSearchResult tune_scaled_exhaustive(ScaledEvaluator& eval,
                                          const ScaledSpace& space);

std::string geometry_name(const CacheGeometry& g);

}  // namespace stcache
