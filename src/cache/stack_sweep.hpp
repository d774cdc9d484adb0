// Single-pass all-configuration replay: the "oneshot" engine's kernel.
//
// The exhaustive experiments evaluate every size/associativity point of the
// platform cache against the same stream. FastCacheSim (fast_cache.hpp)
// already made each replay cheap, but a 27-configuration bank sweep still
// traverses the stream once per configuration. The platform's index
// functions nest — the 128-set mask (8 KB 4-way / 4 KB 2-way / 2 KB
// direct) is a prefix of the 256-set mask (8 KB 2-way / 4 KB direct) which
// is a prefix of the 512-set mask (8 KB direct) — and replacement is true
// LRU with distinct ticks, so a Mattson-style stack-distance pass can
// evaluate every size x associativity point of ONE line size exactly, in
// ONE traversal. Three traversals (16/32/64 B lines) cover the whole
// 27-point space.
//
// How the classic algorithm is adapted to this cache (the textbook version
// covers only the 16 B case):
//
//  * Content slots. Per line size there are six content-distinct
//    (num_sets, ways) pairs:
//        k : sets ways   configuration
//        0 : 128  1      2K_1W
//        1 : 128  2      4K_2W    (pred bit 0)
//        2 : 128  4      8K_4W    (pred bit 1)
//        3 : 256  1      4K_1W
//        4 : 256  2      8K_2W    (pred bit 2)
//        5 : 512  1      8K_1W
//    The way-predicted variants share their base slot's contents and only
//    differ in prediction counters, so 9 CacheStats fall out of 6 slots.
//
//  * Co-residency. With a cold start, write-back policy, no victim buffer
//    and a fixed configuration, the reference model always fills and
//    evicts whole logical lines (an aligned line's sublines occupy the
//    same way, rows index..index+sublines-1, and a fill overwrites all of
//    them). Replay state can therefore be tracked per logical LINE, not
//    per 16 B subline, with one pool entry per line holding:
//      - a per-slot residency bit (which of the 6 caches hold the line),
//      - a per-slot fill tick (slot-dependent: each cache filled it at a
//        different time),
//      - per-subline last-access ticks (slot-INdependent: a hit updates
//        the accessed subline's tick in every slot that holds the line),
//      - a per-slot dirty mask over sublines (write-back accounting).
//    The reference's LRU victim at the accessed set is the resident line
//    minimizing max(last_access[offset], fill_tick[slot]) — exactly the
//    slot timestamp ConfigurableCache stores — and ticks are distinct, so
//    ties never arise and way identity is never needed.
//
//  * One histogram increment per access. Per access the kernel computes
//    the 6-bit hit mask (which slots held the line) plus 3 first-probe
//    bits (was the line the MRU of its set, per predicted slot) and bumps
//    one of 512 histogram bins. All hit/miss/prediction counters, fill
//    bytes and stall/cycle totals for all 9 configurations derive from the
//    histogram at stats() time; only write-back bytes need a live per-slot
//    counter (they depend on the evicted victim's dirty mask).
//
//  * MRU memo. The first-probe bit for a predicted slot is "the accessed
//    line was the last toucher of its set", maintained as a per-set line
//    id (a hit touches the accessed subline's set; a fill touches every
//    subline's set), mirroring FastCacheSim's memo argument.
//
//  * Repeat fast path. Per coarse group (the 128-set mask at line
//    granularity) the kernel remembers the last accessed block. A repeat
//    access to the same block — the common case: sequential ifetch hits
//    the same 16 B block four times — is a hit in every active slot with
//    every first-probe bit set, reducing to one histogram bump, one
//    last-access store and an optional dirty OR.
//
// Scope: write-back, victim-buffer-off, cold-start, fixed-configuration
// replay — exactly the BankAccumulator contract (trace/replay.hpp), which
// runs this kernel for every line-size group of two or more. Write-through
// no-write-allocate breaks the shared-recency argument (store misses do
// not allocate, so per-slot contents diverge from any shared stack), and a
// victim buffer resurrects evicted lines per-slot; both stay outside the
// bank (FastCacheSim and the reference model cover them), as does any
// warm/reconfiguring replay (reference model only).
//
// Equivalence is enforced the same way FastCacheSim's is: CacheStats must
// be bit-identical to the reference for every in-scope configuration
// (tests/replay_equivalence_test.cpp, tests/stack_sweep_test.cpp).
//
// SIMD: the hot loops (slot probe, LRU victim scan, repeat-run detection)
// have an AVX2 path compiled into a separate translation unit
// (stack_sweep_simd.cpp, built with -mavx2 when the toolchain supports it)
// and selected per-sim at construction when the running CPU reports AVX2.
// The scalar kernel stays the portable fallback and the differential
// suites run both flavors; set_stack_sweep_simd(false) forces scalar.
// Both flavors produce bit-identical CacheStats by construction — the SIMD
// lanes only restructure the probe/scan, never the update order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/config.hpp"
#include "cache/stats.hpp"

namespace stcache {

// True when an AVX2 kernel was compiled in AND the running CPU supports it.
bool stack_sweep_simd_available();
// available() && not switched off by set_stack_sweep_simd(false). Sampled
// once per StackSweepSim at construction.
bool stack_sweep_simd_enabled();
// Force the SIMD path on/off for subsequently constructed sims (clamped to
// availability). The differential tests and bench_replay_throughput use
// this to time/compare both flavors in one process.
void set_stack_sweep_simd(bool on);

class StackSweepSim {
 public:
  // `configs` selects which slots the traversal maintains (a way-predicted
  // config activates its base slot plus the MRU memo). All configs must
  // share one line size; duplicates are allowed. Throws stcache::Error on
  // an empty span or mixed line sizes.
  explicit StackSweepSim(std::span<const CacheConfig> configs,
                         TimingParams timing = {});
  ~StackSweepSim();
  StackSweepSim(StackSweepSim&&) noexcept;
  StackSweepSim& operator=(StackSweepSim&&) noexcept;

  // Replay a packed stream (cache/packed.hpp: bit 31 = write, bits 30..0 =
  // 16 B block number). State and stats accumulate across calls.
  void replay(std::span<const std::uint32_t> packed);

  // Stats for any configuration whose slot was activated by the
  // constructor; bit-identical to a cold fast/reference replay.
  CacheStats stats(const CacheConfig& cfg) const;
  // stats(cfg) for each of `configs`, in order.
  std::vector<CacheStats> stats(std::span<const CacheConfig> configs) const;

  std::uint32_t line_bytes() const;

  // Implementation base; the kernel TUs derive one kernel per subline
  // count and SIMD flavor.
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace stcache
