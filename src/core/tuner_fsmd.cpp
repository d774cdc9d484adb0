#include "core/tuner_fsmd.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace stcache {

unsigned TunerFsmd::shift_for(std::uint64_t max_expected_count) {
  unsigned shift = 0;
  while ((max_expected_count >> shift) > 0xffffULL) ++shift;
  return shift;
}

TunerFsmd::TunerFsmd(const EnergyModel& model, TimingParams timing,
                     unsigned counter_shift, TunerGuards guards)
    : model_(&model),
      timing_(timing),
      counter_shift_(counter_shift),
      guards_(guards) {
  // --- derive the physical constants the RTL would have baked in ----------
  std::array<double, 6> hit{};
  for (std::size_t i = 0; i < kSizeAssocs.size(); ++i) {
    CacheConfig cfg{kSizeAssocs[i].size, kSizeAssocs[i].assoc, LineBytes::b16,
                    false};
    hit[i] = model.hit_energy(cfg);
  }
  std::array<double, 3> pred{};
  {
    const CacheConfig cfgs[3] = {
        {CacheSizeKB::k4, Assoc::w2, LineBytes::b16, true},
        {CacheSizeKB::k8, Assoc::w2, LineBytes::b16, true},
        {CacheSizeKB::k8, Assoc::w4, LineBytes::b16, true},
    };
    for (int i = 0; i < 3; ++i) pred[i] = model.predicted_probe_energy(cfgs[i]);
  }
  std::array<double, 3> miss{};
  {
    // Representative fill decode (the largest index) — the variation across
    // configurations is a fraction of a picojoule.
    const CacheConfig rep{CacheSizeKB::k8, Assoc::w1, LineBytes::b16, false};
    const double fill_per_line = model.fill_energy_per_line(rep);
    for (std::size_t i = 0; i < kLineSizes.size(); ++i) {
      const auto line = static_cast<std::uint32_t>(kLineSizes[i]);
      miss[i] = model.offchip_read_energy(line) +
                static_cast<double>(timing.miss_stall_cycles(line)) *
                    model.params().e_stall_per_cycle() +
                static_cast<double>(line / kPhysicalLineBytes) * fill_per_line;
    }
  }
  std::array<double, 3> stat{};
  for (std::size_t i = 0; i < kCacheSizes.size(); ++i) {
    CacheConfig cfg{kCacheSizes[i], Assoc::w1, LineBytes::b16, false};
    stat[i] = model.params().e_static_per_bank_cycle() *
              static_cast<double>(cfg.banks_powered()) *
              static_cast<double>(1u << kStaticShift);
  }

  // --- common energy LSB so all products share one scale -------------------
  double max_constant = 0.0;
  for (double v : hit) max_constant = std::max(max_constant, v);
  for (double v : pred) max_constant = std::max(max_constant, v);
  for (double v : miss) max_constant = std::max(max_constant, v);
  for (double v : stat) max_constant = std::max(max_constant, v);
  energy_lsb_ = max_constant / 60000.0;  // headroom below 2^16-1

  for (std::size_t i = 0; i < hit.size(); ++i) {
    hit_energy_q_[i] = quantize16(hit[i], energy_lsb_);
  }
  for (std::size_t i = 0; i < pred.size(); ++i) {
    pred_energy_q_[i] = quantize16(pred[i], energy_lsb_);
  }
  for (std::size_t i = 0; i < miss.size(); ++i) {
    miss_energy_q_[i] = quantize16(miss[i], energy_lsb_);
  }
  for (std::size_t i = 0; i < stat.size(); ++i) {
    static_energy_q_[i] = quantize16(stat[i], energy_lsb_);
  }
}

unsigned TunerFsmd::size_assoc_index(const CacheConfig& cfg) const {
  for (std::size_t i = 0; i < kSizeAssocs.size(); ++i) {
    if (kSizeAssocs[i].size == cfg.size_kb && kSizeAssocs[i].assoc == cfg.assoc) {
      return static_cast<unsigned>(i);
    }
  }
  fail("TunerFsmd: illegal size/associativity pair " + cfg.name());
}

U16 TunerFsmd::quantize_counter(std::uint64_t raw) const {
  return U16::from_raw(raw >> counter_shift_);
}

U32 TunerFsmd::quantized_energy(const CacheConfig& cfg,
                                const TunerCounters& c) const {
  const unsigned sa = size_assoc_index(cfg);
  const unsigned line_idx =
      cfg.line == LineBytes::b16 ? 0 : cfg.line == LineBytes::b32 ? 1 : 2;
  const unsigned size_idx =
      cfg.size_kb == CacheSizeKB::k2 ? 0 : cfg.size_kb == CacheSizeKB::k4 ? 1 : 2;

  auto mul = [](U16 k, U16 count) {
    U32 wide = U32::from_raw(count.raw());
    U32 product = mul_16x32(k, wide);
    if (count.saturated()) return U32::saturated_max();
    return product;
  };

  const U16 misses_q = quantize_counter(c.misses);
  const U16 cycles10_q = quantize_counter(c.cycles >> kStaticShift);

  U32 e = mul(miss_energy_q_[line_idx], misses_q) +
          mul(static_energy_q_[size_idx], cycles10_q);

  if (!cfg.way_prediction) {
    // Every access probes the full set: accesses * E_hit.
    const U16 accesses_q = quantize_counter(c.accesses);
    e = e + mul(hit_energy_q_[sa], accesses_q);
  } else {
    // accesses * E_pred  +  (accesses - first_hits) * E_full:
    // every access pays the predicted-way probe; non-first-hits (way
    // mispredicts and misses) pay the full-set probe as well.
    const unsigned pred_idx = sa == 2 ? 0 : sa == 4 ? 1 : sa == 5 ? 2 : 3;
    if (pred_idx > 2) fail("TunerFsmd: prediction on a direct-mapped config");
    const U16 accesses_q = quantize_counter(c.accesses);
    const U16 second_q = quantize_counter(c.accesses - c.pred_first_hits);
    e = e + mul(pred_energy_q_[pred_idx], accesses_q) +
        mul(hit_energy_q_[sa], second_q);
  }
  return e;
}

bool TunerFsmd::plausible(const TunerCounters& c, std::string* reason) const {
  auto bad = [&](const char* why) {
    if (reason) *reason = why;
    return false;
  };
  // Invariants no genuine measurement interval can violate.
  if (c.accesses == 0) return bad("empty interval (no accesses)");
  if (c.hits > c.accesses || c.misses > c.accesses ||
      c.hits + c.misses > c.accesses) {
    return bad("hit/miss counters exceed the access counter");
  }
  if (c.pred_first_hits > c.hits) {
    return bad("predicted-way hits exceed total hits");
  }
  // Interval-length plausibility band: an access costs at least one cycle
  // (a hit) and at most the worst-case miss service.
  if (c.cycles < c.accesses) return bad("interval shorter than its accesses");
  if (c.cycles / c.accesses > guards_.max_cycles_per_access) {
    return bad("interval implausibly long for its accesses");
  }
  // Saturation detection: counter_shift_ was chosen so the largest expected
  // interval fits the 16-bit registers; a counter that would overflow them
  // anyway is corruption, not a measurement.
  if ((c.accesses >> counter_shift_) > U16::max_raw() ||
      (c.misses >> counter_shift_) > U16::max_raw() ||
      ((c.cycles >> kStaticShift) >> counter_shift_) > U16::max_raw()) {
    return bad("counter would saturate the 16-bit datapath registers");
  }
  return true;
}

TunerFsmd::Result TunerFsmd::run(TunerPort& port) {
  Result r;

  auto evaluate = [&](const CacheConfig& cfg) {
    TunerCounters c = port.measure(cfg);
    // Guarded counter latch: re-measure an implausible interval with
    // bounded retries before giving up on the candidate.
    bool ok = !guards_.enabled || plausible(c);
    for (unsigned retry = 0; !ok && retry < guards_.max_retries; ++retry) {
      ++r.rejected_intervals;
      ++r.remeasurements;
      r.tuner_cycles += kCounterLoadCycles + kGuardCheckCycles;
      c = port.measure(cfg);
      ok = plausible(c);
    }
    ++r.configs_examined;
    r.tuner_cycles += kCyclesPerEvaluation;
    if (cfg.way_prediction) r.tuner_cycles += kMulCycles;  // fourth multiply
    if (!ok) {
      // Retries exhausted: never base a decision on poisoned counters.
      // Worst-possible energy keeps the walk's current choice instead.
      ++r.rejected_intervals;
      r.guard_exhausted = true;
      return U32::saturated_max();
    }
    const U32 e = quantized_energy(cfg, c);
    r.saturated = r.saturated || e.saturated();
    return e;
  };

  // PSM states P1..P4 walk size, line, associativity, prediction from the
  // initial 2 KB direct-mapped 16 B configuration; the VSM inside each state
  // walks values upward while energy keeps dropping.
  r.best = greedy_walk(platform_space(), evaluate).best;
  r.tuner_energy =
      static_cast<double>(r.tuner_cycles) * model_->params().tuner_power *
      model_->params().cycle_seconds();
  return r;
}

}  // namespace stcache
