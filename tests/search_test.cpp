// Tests of the shared search layer (core/search.hpp) on a small synthetic
// space that is not the platform: the walk rule, the scan's tie-break, the
// fixed-point energy type, and the suffix property that lets the platform
// searches skip illegal candidates.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "core/heuristic.hpp"
#include "core/search.hpp"
#include "util/fixed_point.hpp"

namespace stcache {
namespace {

struct Point {
  std::uint32_t x = 1;
  std::uint32_t y = 1;
  friend bool operator==(const Point&, const Point&) = default;
};

// x in {1..4} by y in {1..3}, x-major, starting at (1,1), walking x then y;
// `holes` are left out of the space.
DesignSpace<Point> grid(const std::vector<Point>& holes = {}) {
  DesignSpace<Point> s;
  s.axes = {member_axis(&Point::x, std::array{1, 2, 3, 4}),
            member_axis(&Point::y, std::array{1, 2, 3})};
  s.points = grid_points(Point{}, s.axes, [&](const Point& p) {
    return std::find(holes.begin(), holes.end(), p) == holes.end();
  });
  return s;
}

TEST(SearchLayer, IllegalInteriorValueIsSkippedAndTheAxisContinues) {
  const auto r = greedy_walk(grid({{2, 1}}), [](const Point& p) {
    return 10.0 - p.x;  // flat in y
  });
  EXPECT_EQ(r.visited,
            (std::vector<Point>{{1, 1}, {3, 1}, {4, 1}, {4, 2}}));
  EXPECT_EQ(r.best, (Point{4, 1}));
  EXPECT_EQ(r.best_energy, 6.0);
  EXPECT_EQ(r.configs_examined, r.visited.size());
}

TEST(SearchLayer, AxisStopsOnEqualEnergy) {
  const auto r = greedy_walk(grid(), [](const Point&) { return 1.0; });
  EXPECT_EQ(r.visited, (std::vector<Point>{{1, 1}, {2, 1}, {1, 2}}));
  EXPECT_EQ(r.best, (Point{1, 1}));
  EXPECT_EQ(r.configs_examined, r.visited.size());
}

TEST(SearchLayer, ExhaustiveKeepsFirstOfTiedMinima) {
  const DesignSpace<Point> space = grid();
  const auto r = exhaustive_scan(space, [](const Point& p) {
    return p.x % 2 == 0 ? 0.0 : 1.0;
  });
  ASSERT_EQ(space.points.size(), 12u);
  EXPECT_EQ(space.points[1], (Point{1, 2}));  // the first axis is outermost
  EXPECT_EQ(r.best, (Point{2, 1}));
  EXPECT_EQ(r.visited, space.points);
  EXPECT_EQ(r.configs_examined, r.visited.size());
}

TEST(SearchLayer, SaturatedFixedPointEnergyIsNeverChosen) {
  // A guard-exhausted FSMD candidate scores U32::saturated_max().
  auto energy = [](const Point& p) {
    if (p == Point{1, 1}) return U32::from_raw(100);
    if (p.x == 2 || p.y == 2) return U32::saturated_max();
    return U32::from_raw(1);
  };
  const auto walk = greedy_walk(grid(), energy);
  EXPECT_EQ(walk.best, (Point{1, 1}));
  EXPECT_EQ(walk.best_energy, U32::from_raw(100));
  EXPECT_EQ(walk.configs_examined, walk.visited.size());
  EXPECT_EQ(walk.visited, (std::vector<Point>{{1, 1}, {2, 1}, {1, 2}}));

  const auto scan = exhaustive_scan(grid({{1, 1}}), energy);
  EXPECT_EQ(scan.best, (Point{1, 3}));
  EXPECT_FALSE(scan.best_energy.saturated());
}

TEST(SearchLayer, EmptySpaceThrows) {
  auto energy = [](const Point&) { return 0.0; };
  EXPECT_THROW(greedy_walk(DesignSpace<Point>{}, energy), Error);
  EXPECT_THROW(exhaustive_scan(DesignSpace<Point>{}, energy), Error);
}

TEST(SearchLayer, StartOutsideTheSpaceThrows) {
  auto energy = [](const Point&) { return 0.0; };
  EXPECT_THROW(greedy_walk(grid({{1, 1}}), energy), Error);
}

// The platform searches skip illegal candidates where the hardware walk
// stops at the first one; both visit the same points because, from every
// legal configuration, the illegal values along each axis form a suffix.
TEST(SearchLayer, PlatformIllegalValuesFormASuffix) {
  const DesignSpace<CacheConfig> space = platform_space();
  for (const CacheConfig& cfg : space.points) {
    for (Param p : kPaperOrder) {
      bool illegal_seen = false;
      for (const CacheConfig& cand : ascending_candidates(cfg, p)) {
        if (!space.valid(cand)) illegal_seen = true;
        EXPECT_FALSE(illegal_seen && space.valid(cand))
            << cfg.name() << " " << to_string(p) << " -> " << cand.name();
      }
    }
  }
}

}  // namespace
}  // namespace stcache
