// Replay: feed a captured address stream through cache models and collect
// the CacheStats that Equation 1 consumes.
//
// BankAccumulator is the one measurement primitive: it evaluates a bank of
// configurations, each from a cold start, against a packed stream fed in
// any number of in-order slices. A single configuration is a bank of one.
// Per line size, the configurations run ONE single-pass stack-distance
// traversal, a lone configuration included: NestedSweepSim
// (cache/nested_sweep.hpp) for a generic CacheGeometry group and
// StackSweepSim (cache/stack_sweep.hpp) for a platform CacheConfig group.
// Both kernels are bit-identical to the behavioral reference models
// (ConfigurableCache / CacheModel), which stay the oracle: the
// differential suites (tests/replay_equivalence_test,
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

// Process-wide default thread count for BankAccumulator (below). The
// default is 1 (serial): intra-bank threads compose with the benches'
// workload-level --jobs pools, so they are strictly opt-in (--sweep-jobs
// on the tools/benches, or set_default_sweep_jobs here). Values are
// clamped to [1, 32]; set_default_sweep_jobs(0) resets to serial.
unsigned default_sweep_jobs();
void set_default_sweep_jobs(unsigned jobs);

// Encode a record stream for BankAccumulator::feed (cache/packed.hpp:
// bit 31 = write, bits 30..0 = 16 B block number). Done once per stream and
// shared by every cache in a bank. The out-parameter overload reuses the
// buffer's capacity. Packing discards the low 4 address bits, which no
// 16 B-or-wider cache geometry inspects.
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
// Grouping: configurations are grouped by line size (ascending), and each
// group, however small, runs one traversal: NestedSweepSim for a geometry
// group, StackSweepSim for a platform group. Geometry banks require valid
// geometries with line_bytes >= 16 (packed words are 16 B blocks) and at
// most 64 ways; the constructor throws stcache::Error otherwise.
//
// Threads: the line-size groups share no state, so with sweep_jobs > 1
// each feed() replays the groups on min(sweep_jobs, groups) threads — the
// calling thread plus a pool the accumulator spawns on first use — and
// every group replays the whole chunk on exactly one thread. Each group's
// result is its serial result, so stats() is bit-identical for every
// thread count by construction (tests/sharded_sweep_test.cpp). The
// speedup is limited by the largest group's share of the serial work.
class BankAccumulator {
 public:
  // sweep_jobs: 0 = default_sweep_jobs(); clamped to the group count.
  BankAccumulator(std::span<const CacheConfig> configs,
                  const TimingParams& timing = {}, unsigned sweep_jobs = 0);
  BankAccumulator(std::span<const CacheGeometry> geoms,
                  const TimingParams& timing = {}, unsigned sweep_jobs = 0);
  ~BankAccumulator();
  BankAccumulator(BankAccumulator&&) noexcept;
  BankAccumulator& operator=(BankAccumulator&&) noexcept;

  // Returns, or rethrows the first group error in group order, only after
  // every group has finished with `packed`.
  void feed(std::span<const std::uint32_t> packed);
  // stats()[i] corresponds to the i-th configuration at construction.
  std::vector<CacheStats> stats() const;
  std::uint64_t words_fed() const { return words_fed_; }
  // Threads feed() runs the groups on (1 = serial, always for one group).
  unsigned sweep_jobs() const { return jobs_; }

 private:
  template <typename Desc>
  void build(std::span<const Desc> descs, const TimingParams& timing,
             unsigned sweep_jobs);

  std::size_t n_ = 0;
  std::uint64_t words_fed_ = 0;
  std::vector<std::unique_ptr<detail::BankGroup>> groups_;  // by line size
  unsigned jobs_ = 1;                 // min(sweep jobs, groups), >= 1
  std::unique_ptr<ThreadPool> pool_;  // jobs_ - 1 workers, lazy
};

// One whole-stream feed of a geometry bank: BankAccumulator(geoms, timing,
// sweep_jobs), feed(packed), stats().
std::vector<CacheStats> measure_geometry_bank(
    std::span<const CacheGeometry> geoms,
    std::span<const std::uint32_t> packed, const TimingParams& timing = {},
    unsigned sweep_jobs = 0);

}  // namespace stcache
