// Energy evaluation oracle used by the tuning heuristics.
//
// The heuristic (Figure 6) repeatedly asks "what is the total memory-access
// energy of configuration X?" — in hardware that answer comes from running
// an interval and combining the hit/miss/cycle counters with the stored
// energy constants; in the paper's evaluation (and ours for Table 1) it
// comes from replaying the benchmark's full trace. Both are Evaluators.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/config.hpp"
#include "cache/stats.hpp"
#include "energy/energy_model.hpp"
#include "trace/trace.hpp"

namespace stcache {

template <class Desc>
class BasicEvaluator {
 public:
  virtual ~BasicEvaluator() = default;
  // Total energy (joules) of running the workload under `d`.
  virtual double energy(const Desc& d) = 0;
  // Number of distinct points evaluated so far (the paper's "No." column;
  // repeated queries for an already-measured point are free, as the tuner
  // registers hold the previous result).
  virtual unsigned evaluations() const = 0;
};

using Evaluator = BasicEvaluator<CacheConfig>;

// Full-trace evaluator over platform configurations (CacheConfig, energy by
// EnergyModel::evaluate) or generic geometries (CacheGeometry, energy by
// evaluate_generic; line_bytes >= 16, as packed words are 16 B blocks):
// replays the single-cache address stream through a cold cache per point
// and applies Equation 1. Results are memoized by descriptor; a memo miss
// measures a BankAccumulator bank of one.
template <class Desc>
class MemoEvaluator final : public BasicEvaluator<Desc> {
 public:
  // Packs the record stream once, here; every measurement replays the
  // packed words.
  MemoEvaluator(std::span<const TraceRecord> stream, const EnergyModel& model,
                TimingParams timing = {});

  // Packed-stream variant (capture_packed / load_packed_trace output),
  // borrowed for the evaluator's lifetime: the in-process tuning pipeline
  // evaluates without ever materializing a TraceRecord AoS.
  MemoEvaluator(std::span<const std::uint32_t> packed_stream,
                const EnergyModel& model, TimingParams timing = {})
      : packed_(packed_stream), model_(&model), timing_(timing) {}

  double energy(const Desc& d) override { return measure(d).energy; }
  unsigned evaluations() const override {
    return static_cast<unsigned>(memo_.size());
  }

  // Full stats of a point (measured on demand). The reference stays valid
  // for the evaluator's lifetime, however many points are memoized later.
  const CacheStats& stats(const Desc& d) { return measure(d).stats; }

  // Measure every not-yet-memoized point of `descs` in one bank pass (one
  // stack-distance traversal per line-size family, the families on up to
  // default_sweep_jobs() threads), so searches over them are pure lookups.
  void prime(std::span<const Desc> descs);

  // Memoize externally measured stats (stats[i] ~ descs[i], e.g. a
  // BankAccumulator or daemon VERDICT bank), deriving energy exactly as a
  // measurement does; a point already in the memo is left untouched. Lets
  // report renderers and the phase tuner search without touching the
  // stream.
  void prime_from(std::span<const Desc> descs,
                  std::span<const CacheStats> stats);

 private:
  struct Entry {
    CacheStats stats;
    double energy = 0.0;
  };
  const Entry& measure(const Desc& d);
  std::span<const std::uint32_t> words() const {
    return owned_.empty() ? packed_ : std::span<const std::uint32_t>(owned_);
  }

  std::vector<std::uint32_t> owned_;       // records constructor: packed here
  std::span<const std::uint32_t> packed_;  // packed constructor: borrowed
  const EnergyModel* model_;
  TimingParams timing_;
  std::map<Desc, Entry> memo_;  // node-based: stats() references stay valid
};

extern template class MemoEvaluator<CacheConfig>;
extern template class MemoEvaluator<CacheGeometry>;

using TraceEvaluator = MemoEvaluator<CacheConfig>;
using ScaledEvaluator = MemoEvaluator<CacheGeometry>;

}  // namespace stcache
