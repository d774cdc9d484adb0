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
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "cache/stats.hpp"
#include "energy/energy_model.hpp"
#include "trace/trace.hpp"

namespace stcache {

class Evaluator {
 public:
  virtual ~Evaluator() = default;
  // Total energy (joules) of running the workload under `cfg`.
  virtual double energy(const CacheConfig& cfg) = 0;
  // Number of distinct configurations evaluated so far (the paper's "No."
  // column; repeated queries for an already-measured configuration are
  // free, as the tuner registers hold the previous result).
  virtual unsigned evaluations() const = 0;
};

// Full-trace evaluator: replays the (single-cache) address stream through a
// cold cache per configuration and applies Equation 1. Results are
// memoized.
class TraceEvaluator final : public Evaluator {
 public:
  // Packs the record stream once, here; every measurement replays the
  // packed words.
  TraceEvaluator(std::span<const TraceRecord> stream, const EnergyModel& model,
                 TimingParams timing = {});

  // Packed-stream variant (capture_packed / load_packed_trace output),
  // borrowed for the evaluator's lifetime: the in-process tuning pipeline
  // evaluates without ever materializing a TraceRecord AoS.
  TraceEvaluator(std::span<const std::uint32_t> packed_stream,
                 const EnergyModel& model, TimingParams timing = {})
      : packed_(packed_stream), model_(&model), timing_(timing) {}

  double energy(const CacheConfig& cfg) override;
  unsigned evaluations() const override {
    return static_cast<unsigned>(cache_.size());
  }

  // Full breakdown and stats of a configuration (measured on demand, as a
  // BankAccumulator bank of one).
  const CacheStats& stats(const CacheConfig& cfg);

  // Pre-populate the memo with an externally measured replay result (the
  // parallel sweep path measures configurations on worker threads, then
  // primes a serial evaluator so searches over it are pure lookups).
  // Energy is derived exactly as measure() derives it; a configuration
  // already in the memo is left untouched.
  void prime(const CacheConfig& cfg, const CacheStats& stats);

 private:
  struct Entry {
    CacheStats stats;
    double energy = 0.0;
  };
  const Entry& measure(const CacheConfig& cfg);
  std::span<const std::uint32_t> words() const {
    return owned_.empty() ? packed_ : std::span<const std::uint32_t>(owned_);
  }

  std::vector<std::uint32_t> owned_;       // records constructor: packed here
  std::span<const std::uint32_t> packed_;  // packed constructor: borrowed
  const EnergyModel* model_;
  TimingParams timing_;
  std::map<std::string, Entry> cache_;
};

// Prime an evaluator with a whole bank sweep result (index-aligned configs
// and stats, e.g. BankAccumulator::stats()). Searches over the primed
// evaluator are then pure lookups — report.cpp and the phase-adaptive
// tuner both close their sweeps this way.
void prime_all(TraceEvaluator& eval, std::span<const CacheConfig> configs,
               std::span<const CacheStats> stats);

}  // namespace stcache
