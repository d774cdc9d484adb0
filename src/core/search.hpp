// The one search layer: a design space and the two walks every tuner in
// src/core runs over it, generic in the descriptor and in the energy type
// (double for Equation 1, U32 for the tuner FSMD's fixed-point datapath).
//
// greedy_walk is the paper's Figure 6 heuristic generalized (Section 3.4):
// evaluate the start point once; then for each axis in order, try the
// values above the current one in ascending order, skip a candidate that
// is not a point of the space without evaluating it, and stop the axis at
// the first candidate whose energy is not strictly lower. On the platform
// the illegal values along any axis form a suffix (associativity above
// the powered banks, prediction on a 1-way cache), so skipping visits the
// same points as stopping at the first illegal value. exhaustive_scan
// evaluates every point in scan order and keeps the first minimum.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace stcache {

// One tunable parameter: its values in ascending order and how to read and
// write it on a descriptor.
template <class Desc>
struct Axis {
  std::vector<std::uint32_t> values;
  std::function<std::uint32_t(const Desc&)> get;
  std::function<void(Desc&, std::uint32_t)> set;

  // `d` with this parameter raised to each value above its current one, in
  // ascending order; the candidates need not be points of any space.
  std::vector<Desc> above(const Desc& d) const {
    std::vector<Desc> out;
    for (std::uint32_t v : values) {
      if (v <= get(d)) continue;
      out.push_back(d);
      set(out.back(), v);
    }
    return out;
  }
};

// The axis over one integer, enum or bool data member of a descriptor.
template <class Desc, class T, class Values>
Axis<Desc> member_axis(T Desc::*member, const Values& values) {
  Axis<Desc> axis;
  for (auto v : values) axis.values.push_back(static_cast<std::uint32_t>(v));
  axis.get = [member](const Desc& d) {
    return static_cast<std::uint32_t>(d.*member);
  };
  axis.set = [member](Desc& d, std::uint32_t v) {
    d.*member = static_cast<T>(v);
  };
  return axis;
}

// Every combination of the axes' values applied to `base`, the first axis
// outermost, for which `legal` holds: a space's points in scan order.
template <class Desc, class Legal>
std::vector<Desc> grid_points(const Desc& base,
                              const std::vector<Axis<Desc>>& axes,
                              Legal legal) {
  std::vector<Desc> out{base};
  for (const Axis<Desc>& axis : axes) {
    std::vector<Desc> next;
    for (const Desc& d : out) {
      for (std::uint32_t v : axis.values) {
        next.push_back(d);
        axis.set(next.back(), v);
      }
    }
    out.swap(next);
  }
  std::erase_if(out, [&](const Desc& d) { return !legal(d); });
  return out;
}

template <class Desc>
struct DesignSpace {
  std::vector<Desc> points;      // every legal point, in scan order
  Desc start{};                  // where the greedy walk begins
  std::vector<Axis<Desc>> axes;  // in walk order

  bool valid(const Desc& d) const {
    return std::find(points.begin(), points.end(), d) != points.end();
  }
};

template <class Desc, class Energy>
struct BasicSearchResult {
  Desc best{};
  Energy best_energy{};
  unsigned configs_examined = 0;
  std::vector<Desc> visited;  // every point evaluated, in evaluation order
};

template <class Desc, class EnergyFn>
using SearchResultOf = BasicSearchResult<
    Desc, std::decay_t<std::invoke_result_t<EnergyFn&, const Desc&>>>;

template <class Desc, class EnergyFn>
SearchResultOf<Desc, EnergyFn> greedy_walk(const DesignSpace<Desc>& space,
                                           EnergyFn&& energy) {
  if (!space.valid(space.start))
    fail("greedy_walk: the start point is not in the design space");
  SearchResultOf<Desc, EnergyFn> r;
  auto evaluate = [&](const Desc& d) {
    r.visited.push_back(d);
    ++r.configs_examined;
    return energy(d);
  };
  r.best = space.start;
  r.best_energy = evaluate(r.best);
  for (const Axis<Desc>& axis : space.axes) {
    for (const Desc& cand : axis.above(r.best)) {
      if (!space.valid(cand)) continue;
      const auto e = evaluate(cand);
      if (!(e < r.best_energy)) break;
      r.best = cand;
      r.best_energy = e;
    }
  }
  return r;
}

template <class Desc, class EnergyFn>
SearchResultOf<Desc, EnergyFn> exhaustive_scan(const DesignSpace<Desc>& space,
                                               EnergyFn&& energy) {
  if (space.points.empty()) fail("exhaustive_scan: empty design space");
  SearchResultOf<Desc, EnergyFn> r;
  for (const Desc& d : space.points) {
    const auto e = energy(d);
    r.visited.push_back(d);
    if (r.configs_examined++ == 0 || e < r.best_energy) {
      r.best = d;
      r.best_energy = e;
    }
  }
  return r;
}

}  // namespace stcache
