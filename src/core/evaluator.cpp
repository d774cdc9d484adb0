#include "core/evaluator.hpp"

#include "trace/replay.hpp"
#include "util/error.hpp"

namespace stcache {

namespace {

double equation1(const EnergyModel& model, const CacheConfig& cfg,
                 const CacheStats& stats) {
  return model.evaluate(cfg, stats).total();
}

double equation1(const EnergyModel& model, const CacheGeometry& g,
                 const CacheStats& stats) {
  return model.evaluate_generic(g, stats).total();
}

}  // namespace

template <class Desc>
MemoEvaluator<Desc>::MemoEvaluator(std::span<const TraceRecord> stream,
                                   const EnergyModel& model,
                                   TimingParams timing)
    : owned_(pack_stream(stream)), model_(&model), timing_(timing) {}

template <class Desc>
const typename MemoEvaluator<Desc>::Entry& MemoEvaluator<Desc>::measure(
    const Desc& d) {
  prime(std::span<const Desc>(&d, 1));  // a miss measures a bank of one
  return memo_.at(d);
}

template <class Desc>
void MemoEvaluator<Desc>::prime(std::span<const Desc> descs) {
  std::vector<Desc> missing;
  for (const Desc& d : descs)
    if (!memo_.contains(d)) missing.push_back(d);
  if (missing.empty()) return;
  BankAccumulator bank(std::span<const Desc>(missing), timing_);
  bank.feed(words());
  prime_from(missing, bank.stats());
}

template <class Desc>
void MemoEvaluator<Desc>::prime_from(std::span<const Desc> descs,
                                     std::span<const CacheStats> stats) {
  if (descs.size() != stats.size())
    fail("MemoEvaluator::prime_from: descriptor/stats size mismatch");
  for (std::size_t i = 0; i < descs.size(); ++i)
    memo_.try_emplace(descs[i],
                      Entry{stats[i], equation1(*model_, descs[i], stats[i])});
}

template class MemoEvaluator<CacheConfig>;
template class MemoEvaluator<CacheGeometry>;

}  // namespace stcache
