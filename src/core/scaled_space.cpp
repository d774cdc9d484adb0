#include "core/scaled_space.hpp"

namespace stcache {

ScaledSpace::ScaledSpace(std::vector<std::uint32_t> sizes_in,
                         std::vector<std::uint32_t> assocs_in,
                         std::vector<std::uint32_t> lines_in)
    : sizes(std::move(sizes_in)),
      assocs(std::move(assocs_in)),
      lines(std::move(lines_in)) {
  const Axis<CacheGeometry> size = member_axis(&CacheGeometry::size_bytes, sizes);
  const Axis<CacheGeometry> assoc = member_axis(&CacheGeometry::assoc, assocs);
  const Axis<CacheGeometry> line = member_axis(&CacheGeometry::line_bytes, lines);
  space_.points = grid_points(CacheGeometry{}, {size, assoc, line},
                              [](const CacheGeometry& g) {
                                return g.valid() && g.num_sets() >= 1;
                              });
  if (!space_.points.empty())
    space_.start = {sizes.front(), assocs.front(), lines.front()};
  space_.axes = {size, line, assoc};
}

ScaledSpace ScaledSpace::embedded_32k() {
  return ScaledSpace{{4096, 8192, 16384, 32768}, {1, 2, 4, 8}, {16, 32, 64, 128}};
}

ScaledSpace ScaledSpace::desktop_64k() {
  return ScaledSpace{{8192, 16384, 32768, 65536}, {1, 2, 4, 8}, {16, 32, 64, 128}};
}

std::string geometry_name(const CacheGeometry& g) {
  const std::string size = g.size_bytes < 1024
                               ? std::to_string(g.size_bytes) + "B_"
                               : std::to_string(g.size_bytes / 1024) + "K_";
  return size + std::to_string(g.assoc) + "W_" + std::to_string(g.line_bytes) +
         "B";
}

ScaledSearchResult tune_scaled(ScaledEvaluator& eval, const ScaledSpace& space) {
  return greedy_walk(space.design(),
                     [&](const CacheGeometry& g) { return eval.energy(g); });
}

ScaledSearchResult tune_scaled_exhaustive(ScaledEvaluator& eval,
                                          const ScaledSpace& space) {
  eval.prime(space.configs());
  return exhaustive_scan(space.design(),
                         [&](const CacheGeometry& g) { return eval.energy(g); });
}

}  // namespace stcache
