// TunerPort implementations: how the FSMD tuner's configuration register
// and counters attach to a platform.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/tuner_fsmd.hpp"
#include "sim/system.hpp"
#include "trace/trace.hpp"

namespace stcache {

// Offline port: each measurement replays the benchmark's full (single-
// stream) trace through a cold cache — the paper's Table 1 methodology.
// The stream is packed once at construction; each measurement is a
// BankAccumulator bank of one.
class TraceTunerPort final : public TunerPort {
 public:
  TraceTunerPort(std::span<const TraceRecord> stream, TimingParams timing = {});

  TunerCounters measure(const CacheConfig& cfg) override;

 private:
  std::vector<std::uint32_t> packed_;
  TimingParams timing_;
};

// Online port: the tuner owns one cache of a live SplitCacheSystem and
// measures by letting the processor run a fixed number of instructions
// per configuration. Reconfiguration goes through
// ConfigurableCache::reconfigure — never a flush — so the application keeps
// running correctly throughout the search (the paper's headline property).
//
// The caller supplies a `run_interval` callback that advances the
// processor; this keeps the port independent of Cpu so tests can drive it
// with synthetic streams.
class LiveTunerPort final : public TunerPort {
 public:
  using IntervalFn = std::function<void()>;

  LiveTunerPort(ConfigurableCache& cache, IntervalFn run_interval)
      : cache_(&cache), run_interval_(std::move(run_interval)) {}

  TunerCounters measure(const CacheConfig& cfg) override;

  // Dirty lines written back across all reconfigurations (the cost the
  // ascending search keeps near zero).
  std::uint64_t reconfig_writebacks() const { return reconfig_writebacks_; }

 private:
  ConfigurableCache* cache_;
  IntervalFn run_interval_;
  std::uint64_t reconfig_writebacks_ = 0;
};

// Convert a CacheStats delta into the counter set the tuner datapath
// latches.
TunerCounters counters_from_stats(const CacheStats& s);

// --- the measurement trust boundary -----------------------------------------
//
// Everything between the platform's raw event counters and the tuner's
// registers — the counter bus, the interval latch, the interrupt that ends a
// measurement — is a trust boundary: on a live chip those values can arrive
// corrupted (single-event upsets, mis-latched intervals, stuck counters).
// A MeasurementTap models that boundary explicitly: it sees every counter
// set on its way into the tuner and may pass it through or perturb it. The
// fault-injection harness (src/fault/) is the only perturbing
// implementation; production code attaches no tap.
class MeasurementTap {
 public:
  virtual ~MeasurementTap() = default;
  // Called once per measurement with the pristine counters; returns what
  // the tuner actually latches.
  virtual TunerCounters tap(const CacheConfig& cfg,
                            const TunerCounters& clean) = 0;
  // Total faults this tap has injected so far (0 for a passthrough tap);
  // the controller uses deltas of this for per-session accounting.
  virtual std::uint64_t faults_injected() const { return 0; }
};

// Interpose a MeasurementTap between any port and the tuner.
class TappedTunerPort final : public TunerPort {
 public:
  TappedTunerPort(TunerPort& inner, MeasurementTap& tap)
      : inner_(&inner), tap_(&tap) {}

  TunerCounters measure(const CacheConfig& cfg) override {
    return tap_->tap(cfg, inner_->measure(cfg));
  }

 private:
  TunerPort* inner_;
  MeasurementTap* tap_;
};

// Serve measurements from a precomputed per-configuration bank. The
// resilience bench replays thousands of tuning sessions against the same
// stream; measuring each configuration once (one BankAccumulator pass) and
// serving sessions from the bank makes every session a table lookup.
// Throws stcache::Error if a configuration outside the bank is requested.
class BankTunerPort final : public TunerPort {
 public:
  BankTunerPort(std::span<const CacheConfig> configs,
                std::span<const CacheStats> stats);

  TunerCounters measure(const CacheConfig& cfg) override;

 private:
  std::span<const CacheConfig> configs_;
  std::span<const CacheStats> stats_;
};

}  // namespace stcache
