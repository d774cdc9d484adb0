#include "core/heuristic.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace stcache {

std::string to_string(Param p) {
  switch (p) {
    case Param::kSize: return "size";
    case Param::kLine: return "line";
    case Param::kAssoc: return "assoc";
    case Param::kPred: return "pred";
  }
  fail("to_string(Param): bad value");
}

namespace {

// The platform's axes, indexed by Param.
const std::array<Axis<CacheConfig>, 4>& platform_axes() {
  static const std::array<Axis<CacheConfig>, 4> axes = {
      member_axis(&CacheConfig::size_kb, kCacheSizes),
      member_axis(&CacheConfig::line, kLineSizes),
      member_axis(&CacheConfig::assoc, kAssocs),
      member_axis(&CacheConfig::way_prediction, std::array{false, true}),
  };
  return axes;
}

}  // namespace

std::vector<CacheConfig> ascending_candidates(const CacheConfig& cfg, Param p) {
  return platform_axes()[static_cast<std::size_t>(p)].above(cfg);
}

DesignSpace<CacheConfig> platform_space(std::array<Param, 4> order) {
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end());
  if (sorted != std::array<Param, 4>{Param::kSize, Param::kLine, Param::kAssoc,
                                     Param::kPred}) {
    fail("platform_space: order must mention each parameter exactly once");
  }
  DesignSpace<CacheConfig> space{
      all_configs(), {CacheSizeKB::k2, Assoc::w1, LineBytes::b16, false}, {}};
  for (Param p : order)
    space.axes.push_back(platform_axes()[static_cast<std::size_t>(p)]);
  return space;
}

SearchResult tune(Evaluator& eval, std::array<Param, 4> order) {
  return greedy_walk(platform_space(order),
                     [&](const CacheConfig& c) { return eval.energy(c); });
}

SearchResult tune_exhaustive(Evaluator& eval) {
  return exhaustive_scan(platform_space(),
                         [&](const CacheConfig& c) { return eval.energy(c); });
}

std::vector<std::array<Param, 4>> all_param_orders() {
  std::array<Param, 4> base = {Param::kSize, Param::kLine, Param::kAssoc,
                               Param::kPred};
  std::sort(base.begin(), base.end());
  std::vector<std::array<Param, 4>> out;
  do {
    out.push_back(base);
  } while (std::next_permutation(base.begin(), base.end()));
  return out;
}

}  // namespace stcache
