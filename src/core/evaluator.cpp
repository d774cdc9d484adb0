#include "core/evaluator.hpp"

#include "trace/replay.hpp"
#include "util/error.hpp"

namespace stcache {

TraceEvaluator::TraceEvaluator(std::span<const TraceRecord> stream,
                               const EnergyModel& model, TimingParams timing)
    : owned_(pack_stream(stream)), model_(&model), timing_(timing) {}

const TraceEvaluator::Entry& TraceEvaluator::measure(const CacheConfig& cfg) {
  auto it = cache_.find(cfg.name());
  if (it == cache_.end()) {
    BankAccumulator bank(std::span<const CacheConfig>(&cfg, 1), timing_);
    bank.feed(words());
    Entry e;
    e.stats = bank.stats().front();
    e.energy = model_->evaluate(cfg, e.stats).total();
    it = cache_.emplace(cfg.name(), e).first;
  }
  return it->second;
}

void TraceEvaluator::prime(const CacheConfig& cfg, const CacheStats& stats) {
  if (cache_.contains(cfg.name())) return;
  Entry e;
  e.stats = stats;
  e.energy = model_->evaluate(cfg, e.stats).total();
  cache_.emplace(cfg.name(), e);
}

double TraceEvaluator::energy(const CacheConfig& cfg) { return measure(cfg).energy; }

const CacheStats& TraceEvaluator::stats(const CacheConfig& cfg) {
  return measure(cfg).stats;
}

void prime_all(TraceEvaluator& eval, std::span<const CacheConfig> configs,
               std::span<const CacheStats> stats) {
  if (configs.size() != stats.size())
    fail("prime_all: configs/stats size mismatch");
  for (std::size_t i = 0; i < configs.size(); ++i)
    eval.prime(configs[i], stats[i]);
}

}  // namespace stcache
