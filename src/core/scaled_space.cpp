#include "core/scaled_space.hpp"

#include <algorithm>

#include "trace/replay.hpp"
#include "util/error.hpp"

namespace stcache {

ScaledSpace::ScaledSpace(std::vector<std::uint32_t> sizes_in,
                         std::vector<std::uint32_t> assocs_in,
                         std::vector<std::uint32_t> lines_in)
    : sizes(std::move(sizes_in)),
      assocs(std::move(assocs_in)),
      lines(std::move(lines_in)) {
  configs_.reserve(sizes.size() * assocs.size() * lines.size());
  for (std::uint32_t s : sizes) {
    for (std::uint32_t a : assocs) {
      for (std::uint32_t l : lines) {
        const CacheGeometry g{s, a, l};
        if (g.valid() && g.num_sets() >= 1) configs_.push_back(g);
      }
    }
  }
}

ScaledSpace ScaledSpace::embedded_32k() {
  return ScaledSpace{{4096, 8192, 16384, 32768}, {1, 2, 4, 8}, {16, 32, 64, 128}};
}

ScaledSpace ScaledSpace::desktop_64k() {
  return ScaledSpace{{8192, 16384, 32768, 65536}, {1, 2, 4, 8}, {16, 32, 64, 128}};
}

bool ScaledSpace::valid(const CacheGeometry& g) const {
  if (!g.valid() || g.num_sets() < 1) return false;
  return std::find(configs_.begin(), configs_.end(), g) != configs_.end();
}

std::string geometry_name(const CacheGeometry& g) {
  return std::to_string(g.size_bytes / 1024) + "K_" + std::to_string(g.assoc) +
         "W_" + std::to_string(g.line_bytes) + "B";
}

ScaledEvaluator::ScaledEvaluator(std::span<const TraceRecord> stream,
                                 const EnergyModel& model, TimingParams timing)
    : owned_(pack_stream(stream)), model_(&model), timing_(timing) {}

double ScaledEvaluator::energy(const CacheGeometry& g) {
  const std::string key = geometry_name(g);
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    BankAccumulator bank(std::span<const CacheGeometry>(&g, 1), timing_);
    bank.feed(words());
    const CacheStats stats = bank.stats().front();
    it = memo_.emplace(key, model_->evaluate_generic(g, stats).total()).first;
  }
  return it->second;
}

void ScaledEvaluator::prime(const ScaledSpace& space) {
  const std::vector<CacheGeometry>& geoms = space.configs();
  if (geoms.empty()) return;
  // Already primed (e.g. via prime_from) — nothing left to measure.
  bool all_memoized = true;
  for (const CacheGeometry& g : geoms) {
    if (!memo_.count(geometry_name(g))) {
      all_memoized = false;
      break;
    }
  }
  if (all_memoized) return;
  prime_from(geoms, measure_geometry_bank(geoms, words(), timing_));
}

void ScaledEvaluator::prime_from(std::span<const CacheGeometry> geoms,
                                 std::span<const CacheStats> stats) {
  if (geoms.size() != stats.size()) {
    fail("ScaledEvaluator::prime_from: geometry/stats size mismatch");
  }
  for (std::size_t i = 0; i < geoms.size(); ++i) {
    memo_.insert_or_assign(
        geometry_name(geoms[i]),
        model_->evaluate_generic(geoms[i], stats[i]).total());
  }
}

ScaledSearchResult tune_scaled(ScaledEvaluator& eval, const ScaledSpace& space) {
  if (space.sizes.empty() || space.assocs.empty() || space.lines.empty()) {
    fail("tune_scaled: empty parameter space");
  }
  ScaledSearchResult r;
  CacheGeometry current{space.sizes.front(), space.assocs.front(),
                        space.lines.front()};
  if (!space.valid(current)) fail("tune_scaled: smallest configuration invalid");
  double current_energy = eval.energy(current);
  ++r.configs_examined;

  auto walk = [&](auto values, auto apply) {
    for (std::uint32_t v : values) {
      CacheGeometry cand = current;
      apply(cand, v);
      if (cand == current) continue;  // handled below via value ordering
      // Only ascend.
      bool ascending = false;
      if (cand.size_bytes > current.size_bytes) ascending = true;
      if (cand.line_bytes > current.line_bytes) ascending = true;
      if (cand.assoc > current.assoc) ascending = true;
      if (!ascending || !space.valid(cand)) continue;
      const double e = eval.energy(cand);
      ++r.configs_examined;
      if (e < current_energy) {
        current = cand;
        current_energy = e;
      } else {
        break;
      }
    }
  };

  walk(space.sizes, [](CacheGeometry& g, std::uint32_t v) { g.size_bytes = v; });
  walk(space.lines, [](CacheGeometry& g, std::uint32_t v) { g.line_bytes = v; });
  walk(space.assocs, [](CacheGeometry& g, std::uint32_t v) { g.assoc = v; });

  r.best = current;
  r.best_energy = current_energy;
  return r;
}

ScaledSearchResult tune_scaled_exhaustive(ScaledEvaluator& eval,
                                          const ScaledSpace& space) {
  // One bank pass measures the whole space (grouped by line-size family
  // into generalized oneshot traversals); the scan below then only reads
  // the memo. configs() preserves the historical size-major scan order,
  // so strict-improvement tie-breaking picks the same optimum as before.
  eval.prime(space);
  ScaledSearchResult r;
  bool first = true;
  for (const CacheGeometry& g : space.configs()) {
    const double e = eval.energy(g);
    ++r.configs_examined;
    if (first || e < r.best_energy) {
      r.best = g;
      r.best_energy = e;
      first = false;
    }
  }
  if (first) fail("tune_scaled_exhaustive: no valid configuration");
  return r;
}

}  // namespace stcache
