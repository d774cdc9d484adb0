#include "core/ports.hpp"

#include "trace/replay.hpp"

namespace stcache {

TunerCounters counters_from_stats(const CacheStats& s) {
  TunerCounters c;
  c.accesses = s.accesses;
  c.hits = s.hits;
  c.misses = s.misses;
  c.cycles = s.cycles;
  c.pred_first_hits = s.pred_first_hits;
  return c;
}

TraceTunerPort::TraceTunerPort(std::span<const TraceRecord> stream,
                               TimingParams timing)
    : packed_(pack_stream(stream)), timing_(timing) {}

TunerCounters TraceTunerPort::measure(const CacheConfig& cfg) {
  BankAccumulator bank(std::span<const CacheConfig>(&cfg, 1), timing_);
  bank.feed(packed_);
  return counters_from_stats(bank.stats().front());
}

TunerCounters LiveTunerPort::measure(const CacheConfig& cfg) {
  reconfig_writebacks_ += cache_->reconfigure(cfg);
  const CacheStats before = cache_->stats();
  run_interval_();
  return counters_from_stats(cache_->stats() - before);
}

BankTunerPort::BankTunerPort(std::span<const CacheConfig> configs,
                             std::span<const CacheStats> stats)
    : configs_(configs), stats_(stats) {
  STC_ASSERT(configs_.size() == stats_.size(),
             "BankTunerPort: configs/stats size mismatch");
}

TunerCounters BankTunerPort::measure(const CacheConfig& cfg) {
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    if (configs_[i] == cfg) return counters_from_stats(stats_[i]);
  }
  fail("BankTunerPort: configuration " + cfg.name() + " not in the bank");
}

}  // namespace stcache
