#include "core/multilevel.hpp"

#include "util/error.hpp"

namespace stcache {

std::string TwoLevelConfig::name() const {
  return "L1I" + std::to_string(l1i_line) + "_L1D" + std::to_string(l1d_line) +
         "_L2x" + std::to_string(l2_line);
}

namespace {

// L2 access latency in cycles (on top of the L1 probe).
constexpr std::uint32_t kL2HitCycles = 8;

// One level-1 cache plus its path into the shared L2. We drive CacheModel
// for the arrays but keep the cycle accounting here, because CacheModel's
// built-in timing charges every miss the off-chip penalty, which is wrong
// under an L2.
struct Level1 {
  CacheModel cache;
  explicit Level1(const CacheGeometry& g) : cache(g) {}
};

}  // namespace

TwoLevelStats simulate_two_level(const TwoLevelConfig& cfg,
                                 std::span<const TraceRecord> trace,
                                 TimingParams timing) {
  Level1 l1i(cfg.l1i());
  Level1 l1d(cfg.l1d());
  CacheModel l2(cfg.l2());

  TwoLevelStats out;
  const std::uint32_t l2_miss_stall = timing.miss_stall_cycles(cfg.l2_line);

  auto access = [&](Level1& l1, std::uint32_t addr, bool is_write) {
    std::uint32_t cycles = timing.hit_cycles;
    const auto r1 = l1.cache.access(addr, is_write);
    if (!r1.hit) {
      // The L1 fill goes through the L2 (one L2 access: the L2 line is at
      // least as large as the L1 line). Dirty L1 victims also write into
      // the L2; the write-back traffic is already counted by CacheModel's
      // byte counters and folded into L2 pressure via this access.
      cycles += kL2HitCycles;
      out.stall_cycles += kL2HitCycles;
      const auto r2 = l2.access(addr, is_write);
      if (!r2.hit) {
        cycles += l2_miss_stall;
        out.stall_cycles += l2_miss_stall;
      }
    }
    out.total_cycles += cycles;
  };

  for (const TraceRecord& rec : trace) {
    switch (rec.kind) {
      case AccessKind::kIFetch:
        access(l1i, rec.addr, false);
        break;
      case AccessKind::kRead:
        access(l1d, rec.addr, false);
        break;
      case AccessKind::kWrite:
        access(l1d, rec.addr, true);
        break;
    }
  }

  out.l1i = l1i.cache.stats();
  out.l1d = l1d.cache.stats();
  out.l2 = l2.stats();
  return out;
}

double two_level_energy(const TwoLevelConfig& cfg, const TwoLevelStats& s,
                        const EnergyModel& model) {
  const MiniCacti& cacti = model.cacti();
  const EnergyParams& p = model.params();

  auto level_dynamic = [&](const CacheGeometry& g, const CacheStats& cs) {
    const double access = static_cast<double>(cs.accesses) *
                          cacti.generic_access_energy(g);
    const double fill = (static_cast<double>(cs.fill_bytes) / g.line_bytes) *
                        cacti.generic_fill_energy_per_line(g);
    return access + fill;
  };

  const double dyn = level_dynamic(cfg.l1i(), s.l1i) +
                     level_dynamic(cfg.l1d(), s.l1d) +
                     level_dynamic(cfg.l2(), s.l2);

  const double banks = MiniCacti::generic_bank_equivalents(cfg.l1i()) +
                       MiniCacti::generic_bank_equivalents(cfg.l1d()) +
                       MiniCacti::generic_bank_equivalents(cfg.l2());
  const double stat = static_cast<double>(s.total_cycles) *
                      p.e_static_per_bank_cycle() * banks;

  // Only L2 misses and L2 write-backs reach the off-chip memory.
  const double offchip =
      static_cast<double>(s.l2.misses) * model.offchip_read_energy(cfg.l2_line) +
      (static_cast<double>(s.l2.writeback_bytes) / kPhysicalLineBytes) *
          model.offchip_writeback_energy_per_line();

  const double stall =
      static_cast<double>(s.stall_cycles) * p.e_stall_per_cycle();

  return dyn + stat + offchip + stall;
}

namespace {

const DesignSpace<TwoLevelConfig>& two_level_space() {
  static const DesignSpace<TwoLevelConfig> space = [] {
    DesignSpace<TwoLevelConfig> s;  // start: smallest line sizes everywhere
    s.axes = {member_axis(&TwoLevelConfig::l1i_line, kL1LineSizes),
              member_axis(&TwoLevelConfig::l1d_line, kL1LineSizes),
              member_axis(&TwoLevelConfig::l2_line, kL2LineSizes)};
    s.points = grid_points(TwoLevelConfig{}, s.axes,
                           [](const TwoLevelConfig&) { return true; });
    return s;
  }();
  return space;
}

auto simulated_energy(std::span<const TraceRecord> trace,
                      const EnergyModel& model, TimingParams timing) {
  return [trace, &model, timing](const TwoLevelConfig& c) {
    return two_level_energy(c, simulate_two_level(c, trace, timing), model);
  };
}

}  // namespace

TwoLevelSearchResult tune_two_level(std::span<const TraceRecord> trace,
                                    const EnergyModel& model,
                                    TimingParams timing) {
  return greedy_walk(two_level_space(), simulated_energy(trace, model, timing));
}

TwoLevelSearchResult tune_two_level_exhaustive(std::span<const TraceRecord> trace,
                                               const EnergyModel& model,
                                               TimingParams timing) {
  return exhaustive_scan(two_level_space(),
                         simulated_energy(trace, model, timing));
}

}  // namespace stcache
