// Generalized oneshot stack-distance sweep over an arbitrary nested-mask
// size family: the one kernel a geometry bank runs.
//
// StackSweepSim (stack_sweep.hpp) evaluates the paper's 27-configuration
// platform in one traversal per line size, but its slot layout — the
// 128 ⊂ 256 ⊂ 512-set family, per-slot way budgets, way-prediction bits,
// subline offsets — is baked in at compile time. The scaled design spaces
// (core/scaled_space.hpp) need the same trick over families chosen at run
// time: ScaledSpace::embedded_32k() alone holds 16 (size, ways) geometries
// per line size, and the 10²–10³-config spaces ROADMAP item 2 aims at are
// out of reach for per-config replay.
//
// NestedSweepSim derives the layout at construction instead. Given a bank
// of CacheGeometry (generic CacheModel caches: monolithic lines,
// write-back write-allocate, true LRU — no sublines, no way prediction,
// no victim buffer) sharing one line size, it groups them into LEVELS by
// set count. Power-of-two set counts always nest: the index mask of s
// sets at line granularity is s - 1, so s₀ < s₁ implies mask₀ ⊂ mask₁ and
// every s₁-set is a refinement of an s₀-set. Mattson's inclusion property
// then gives, per access, one stack distance d_ℓ per level (computed in
// the recency order of the maximal (s_ℓ, W_ℓ) simulation, where W_ℓ is
// the largest associativity requested at that level), with
//
//     d_{s₀} >= d_{s₁} >= ... (coarser sets ⇒ deeper stacks)
//
// and every (s_ℓ, w <= W_ℓ) LRU cache hitting exactly when d_ℓ < w. One
// traversal therefore yields a depth histogram per level from which the
// hit counts of EVERY family member follow exactly.
//
// CacheModel's LRU stamp is the line's last-access tick — updated on hits
// AND fills — so recency order is a global property of the access stream,
// identical in every simulated config. That lets one pooled line store
// serve all levels: entries live in segments keyed by the COARSEST set
// index (every finer set is a subset of a coarse set, so all the state a
// lookup can touch sits in one segment), each entry carrying one 32-bit
// last-access tick, a residency bitmask over levels, and per-level dirty
// masks over ways for exact write-back accounting:
//
//   bit w-1 of dirty[level] set  ⇔  the line's current residency epoch in
//   the (sets_ℓ, w) config is dirty and its eventual write-back has not
//   been counted yet.
//
// On an access at depth d, configs w <= d evicted the line since its last
// touch — their set dirty bits are settled into per-(level, w) write-back
// counters and the masks restart (full on a write, cleared low bits on a
// read). Eviction from the maximal simulation settles all outstanding
// bits; stats-time finalization settles epochs whose eviction happened
// but whose line was never touched again (non-destructively, so stats
// may be taken mid-stream and feeding may continue).
//
// The produced CacheStats is bit-identical to CacheModel replay of the
// same stream for every family member — tests/replay_equivalence_test.cpp
// and tests/stack_sweep_test.cpp enforce this against the unbounded LRU
// oracle and the other engines.
//
// A lone geometry is a one-member family: one level of one maximal
// simulation, at about the cost of a per-geometry sim (docs/performance.md
// §3.1), so the bank runs every geometry group here. What falls OUTSIDE
// this kernel (docs/performance.md §3.1, §6): sub-16 B lines (a packed
// word is a 16 B block, the stream granularity), more than 64 ways (the
// dirty masks are 64-bit), more than 2^32 - 1 words per stream (ticks are
// 32-bit), mixed line sizes in one traversal (the bank layer groups by
// line-size family), and any non-LRU/write-through/victim-buffered
// organization (those exist only in the platform CacheConfig world, which
// keeps its own engines).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/stats.hpp"

namespace stcache {

class NestedSweepSim {
 public:
  // All geometries must be valid(), share one line size >= 16 B, and stay
  // within the 64-way dirty-mask budget. Throws stcache::Error otherwise.
  explicit NestedSweepSim(std::span<const CacheGeometry> geoms,
                          TimingParams timing = {});

  // Replay a packed stream; state accumulates across calls so the
  // streaming pipeline can feed chunk by chunk.
  void replay(std::span<const std::uint32_t> packed);

  // Exact CacheStats for each of `geoms`, in order — bit-identical to
  // CacheModel replay of everything fed so far. Each geometry must match
  // the construction line size, one of the level set counts, and ways <=
  // that level's maximal ways (any such geometry works, even if it was
  // not in the constructor bank — the histogram covers it). Settling the
  // still-open dirty epochs scans the pool once per call, quadratic in
  // segment occupancy, so take a family's stats in one call. A pure read:
  // feeding may continue after.
  std::vector<CacheStats> stats(std::span<const CacheGeometry> geoms) const;
  // One geometry (tests).
  CacheStats stats(const CacheGeometry& g) const;

 private:
  struct Level {
    std::uint32_t sets = 0;  // set count at line granularity
    std::uint32_t lg = 0;    // log2(sets)
    std::uint32_t ways = 0;  // maximal associativity simulated here
    std::uint64_t full = 0;  // all `ways` dirty bits set
    std::uint32_t hist_off = 0;  // ways + 1 bins: depths 0..ways-1, miss
    std::uint32_t wb_off = 0;    // ways counters: w = 1..ways
  };

  static constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

  // Kept out of line: inlined into replay(), its register pressure spills
  // the record loop's locals (cursor, tick, counters) to the stack.
  [[gnu::noinline]] void slow(std::uint32_t line, std::uint32_t g,
                              bool is_write, std::uint32_t tick);
  const Level& level_of(const CacheGeometry& g) const;

  TimingParams timing_;
  std::uint32_t line_bytes_ = 0;
  std::uint32_t line_log_ = 0;  // log2(line_bytes / 16)
  std::uint32_t nlev_ = 0;
  std::uint32_t all_mask_ = 0;  // (1 << nlev_) - 1
  std::uint32_t groups_ = 0;    // coarsest set count = pool segments
  std::uint32_t gmask_ = 0;
  std::uint32_t cap_ = 0;  // pool entries per segment
  std::vector<Level> levels_;  // ascending set count (coarsest first)
  // countr_zero(line ^ other_line) -> number of levels whose index mask
  // the two lines collide under (levels are mask-nested, so "the first m
  // levels"). Indexed by bit position 0..31.
  std::uint8_t mlev_[32] = {};

  // Pooled line store, segment-per-coarse-group SoA with swap-remove
  // compaction (an entry is freed when evicted from its last level).
  std::vector<std::uint32_t> line_;
  std::vector<std::uint32_t> last_;
  std::vector<std::uint32_t> res_;     // residency bitmask over levels
  std::vector<std::uint64_t> dirty_;   // [entry * nlev_ + level]
  std::vector<std::uint16_t> count_;   // live entries per segment
  std::vector<std::uint32_t> last_line_;  // repeat fast path, per group
  std::vector<std::uint16_t> last_idx_;
  // Per-access scratch, one slot per level (members so slow() allocates
  // nothing).
  std::vector<std::uint32_t> occ_, newer_, vict_, vmin_;

  std::uint32_t tick_ = 0;
  std::uint64_t n_ = 0, writes_ = 0;
  // Repeat-fast-path hits: depth 0 at every level, folded into each
  // level's hit count at stats() time instead of paying one histogram
  // increment per level on the hot path.
  std::uint64_t repeat_hits_ = 0;
  std::vector<std::uint64_t> hist_, wb_;
};

}  // namespace stcache
