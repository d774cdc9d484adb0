// Replay: feed a captured address stream through cache models and collect
// the CacheStats that Equation 1 consumes.
//
// BankAccumulator is the one measurement primitive: it evaluates a bank of
// configurations, each from a cold start, against a packed stream fed in
// any number of in-order slices. A single configuration is a bank of one.
// Per line size, a group of two or more configurations runs ONE single-pass
// stack-distance traversal — StackSweepSim (cache/stack_sweep.hpp) for
// platform CacheConfigs, NestedSweepSim (cache/nested_sweep.hpp) for
// generic CacheGeometry banks — and a singleton runs the per-configuration
// fast sim (FastCacheSim / FastGeomSim). Every kernel is bit-identical to
// the behavioral reference models (ConfigurableCache / CacheModel), which
// stay the oracle: the differential suites (tests/replay_equivalence_test,
// tests/stack_sweep_test, tests/sharded_sweep_test) replay the references
// and assert every CacheStats counter equal.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/config.hpp"
#include "cache/configurable_cache.hpp"
#include "cache/stats.hpp"
#include "trace/trace.hpp"

namespace stcache {

class ThreadPool;  // util/thread_pool.hpp — owned by BankAccumulator

namespace detail {
class BankGroup;  // one line-size group of a bank (trace/replay.cpp)
}

// Process-wide default shard count for the set-partitioned parallel
// sweep (BankAccumulator below). The default is 1 (serial) unless the
// STCACHE_SWEEP_JOBS environment variable says otherwise — intra-bank
// parallelism composes with the benches' workload-level --jobs pools, so
// it is strictly opt-in (--sweep-jobs on the tools/benches, or
// set_default_sweep_jobs here). Values are clamped to the partition count
// (at most 32: the partition key must stay inside the set-index bits every
// grouped configuration shares). set_default_sweep_jobs(0) resets to the
// environment-driven default.
unsigned default_sweep_jobs();
void set_default_sweep_jobs(unsigned jobs);

// Number of set partitions the parallel sweep scatters a packed stream
// into: a power of two in [1, 32], default 32, overridable via
// STCACHE_SWEEP_PARTITIONS (resolved once per process). Shard s replays
// partitions s, s+jobs, s+2*jobs, ... — more partitions than shards
// smooths imbalance without changing results.
unsigned sweep_partitions();

// Encode a record stream for BankAccumulator::feed (bit 31 = write, bits
// 30..0 = 16 B block number). Done once per stream and shared by every
// cache in a bank. The out-parameter overload reuses the buffer's
// capacity. Packing discards the low 4 address bits, which no 16 B-or-wider
// cache geometry inspects.
std::vector<std::uint32_t> pack_stream(std::span<const TraceRecord> stream);
void pack_stream(std::span<const TraceRecord> stream,
                 std::vector<std::uint32_t>& out);

// Replay `stream` through an existing reference cache (state and stats
// accumulate; a cold run constructs a fresh cache). Returns the stats delta
// contributed by this replay. Warm and reconfiguring replay (flush cost,
// the live tuner) only exists on the reference model.
CacheStats replay(ConfigurableCache& cache, std::span<const TraceRecord> stream);

// Cold-start evaluation of a bank of configurations against a packed
// stream. Construction fixes the bank; feed() folds any number of in-order
// packed slices — the streaming pipeline's chunks, or one whole stream —
// and stats()[i] is bit-identical to a cold reference replay of configs[i]
// over the concatenation of everything fed.
//
// Grouping: configurations are grouped by line size (ascending). A group
// of two or more runs one sweep traversal; a singleton runs the fast sim.
// Geometry banks require valid geometries with line_bytes >= 16 (packed
// words are 16 B blocks); the constructor throws stcache::Error otherwise.
//
// Parallel sweep: with sweep_jobs > 1 each feed() scatters the packed
// chunk into partition buckets keyed by bits [B, B + log2(parts)) of the
// 16 B block number. B is the largest line-size shift, log2(line / 16),
// of any grouped configuration, so the key sits at or above every line's
// granularity; the key width is capped by the narrowest set-index span,
// min over grouped configurations of log2(way bytes / 16) - B. For the
// 27-config platform bank that is bits 2..6 with 32 partitions; scaled
// geometry banks with few sets get fewer partitions. Either way every
// bucket is a union of whole cache sets of EVERY grouped configuration and
// the sublines of any logical line land in one bucket together. Cold-start
// set-indexed caches factorize over sets, so each shard's sim replica
// replays its buckets (in stream order within a bucket) and accumulates
// exactly the histogram its sets would have contributed serially. stats()
// sums the per-shard totals — exact integer addition — so the merged
// CacheStats are bit-identical to a serial sweep for every shard count;
// tests/sharded_sweep_test.cpp enforces this. Shard 0 runs on the calling
// thread; shards 1..jobs-1 run on a lazily spawned ThreadPool owned by the
// accumulator. Singletons stay serial (nothing shares their traversal).
class BankAccumulator {
 public:
  // sweep_jobs: 0 = default_sweep_jobs(); clamped to the partition count.
  BankAccumulator(std::span<const CacheConfig> configs,
                  const TimingParams& timing = {}, unsigned sweep_jobs = 0);
  BankAccumulator(std::span<const CacheGeometry> geoms,
                  const TimingParams& timing = {}, unsigned sweep_jobs = 0);
  ~BankAccumulator();
  BankAccumulator(BankAccumulator&&) noexcept;
  BankAccumulator& operator=(BankAccumulator&&) noexcept;

  void feed(std::span<const std::uint32_t> packed);
  // stats()[i] corresponds to the i-th configuration at construction. With
  // metrics enabled and jobs > 1, prints the "[sweep] shard imbalance" line.
  std::vector<CacheStats> stats() const;
  std::uint64_t words_fed() const { return words_fed_; }
  // Effective shard count for the sweep groups (1 = serial).
  unsigned sweep_jobs() const { return jobs_; }

 private:
  template <typename Desc>
  void build(std::span<const Desc> descs, const TimingParams& timing,
             unsigned sweep_jobs);
  void replay_shard(unsigned shard);

  std::size_t n_ = 0;
  std::uint64_t words_fed_ = 0;
  std::vector<std::unique_ptr<detail::BankGroup>> sweeps_;      // sharded
  std::vector<std::unique_ptr<detail::BankGroup>> singletons_;  // serial
  // Parallel-sweep state (jobs_ > 1 only).
  unsigned jobs_ = 1;           // sweep shard count
  unsigned parts_ = 1;          // scatter partitions (power of two, >= jobs_)
  unsigned scatter_shift_ = 0;  // low bit of the partition key
  std::vector<std::vector<std::uint32_t>> part_buf_;  // reused per feed
  std::vector<std::uint64_t> shard_records_;  // per-shard records replayed
  std::unique_ptr<ThreadPool> pool_;          // jobs_ - 1 workers, lazy
};

// One whole-stream feed of a geometry bank: BankAccumulator(geoms, timing,
// sweep_jobs), feed(packed), stats().
std::vector<CacheStats> measure_geometry_bank(
    std::span<const CacheGeometry> geoms,
    std::span<const std::uint32_t> packed, const TimingParams& timing = {},
    unsigned sweep_jobs = 0);

}  // namespace stcache
