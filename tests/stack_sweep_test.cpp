// Direct and property-based tests for the oneshot stack-distance kernel.
//
// The differential suite (replay_equivalence_test.cpp) proves StackSweepSim
// bit-identical to the reference model through the bank API. This file tests
// the kernel itself: the Mattson stack property that makes a single-pass
// sweep sound in the first place, and the constructor/stats contract for
// partial, prediction-only and duplicated banks.
//
// The property under test: the platform's index masks nest (blocks that
// collide under the 512-set mask also collide under 256 and 128), so the
// per-set LRU recency list of a finer mask is a subsequence of a coarser
// mask's list. Therefore, per access,
//
//     d_512 <= d_256 <= d_128           (stack distances, infinity on cold)
//
// and a (S sets, W ways) LRU cache hits exactly when d_S < W. An unbounded
// per-set recency-list oracle — a direct transcription of Mattson's
// algorithm, sharing no code with the kernel — checks both facts against
// the kernel's counters, including the way-prediction identity
// pred_first_hits == #(d_S == 0) (the MRU line of a set is by definition
// the predicted way's occupant).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cache/config.hpp"
#include "cache/nested_sweep.hpp"
#include "cache/stack_sweep.hpp"
#include "cache/stats.hpp"
#include "core/scaled_space.hpp"
#include "reference_replay.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stcache {
namespace {

constexpr std::size_t kInfinity = std::numeric_limits<std::size_t>::max();

// A mixed stream: strided conflicts + uniform churn over a working set
// larger than the biggest cache, so every set mask sees real evictions.
Trace property_stream() {
  Rng rng(0x57ACD157);
  Trace t = gen_strided(0x1000, 48, 20'000, 0.25, rng);
  Trace u = gen_uniform(0x4000, 24 * 1024, 30'000, 0.30, rng);
  t.insert(t.end(), u.begin(), u.end());
  Trace loop = gen_loop_ifetch(0x800, 2048, 20);
  t.insert(t.end(), loop.begin(), loop.end());
  return t;
}

// Unbounded per-set LRU recency lists (Mattson's stack algorithm) at 16 B
// block granularity for one set count. distance() returns the number of
// distinct blocks of the same set touched since the block's last access
// (kInfinity on first touch) and promotes the block to MRU.
class StackOracle {
 public:
  explicit StackOracle(std::uint32_t num_sets)
      : mask_(num_sets - 1), stacks_(num_sets) {}

  std::size_t distance(std::uint32_t block) {
    std::vector<std::uint32_t>& stack = stacks_[block & mask_];
    for (std::size_t d = 0; d < stack.size(); ++d) {
      if (stack[d] == block) {
        stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(d));
        stack.insert(stack.begin(), block);
        return d;
      }
    }
    stack.insert(stack.begin(), block);
    return kInfinity;
  }

 private:
  std::uint32_t mask_;
  std::vector<std::vector<std::uint32_t>> stacks_;
};

TEST(StackSweepProperty, NestedMasksAndHitCounts) {
  const Trace trace = property_stream();

  StackOracle o128(128), o256(256), o512(512);
  // hits[S][W-1] accumulates #(d_S < W); mru[S] accumulates #(d_S == 0).
  std::uint64_t hits128[4] = {}, hits256[2] = {}, hits512[1] = {};
  std::uint64_t mru128 = 0, mru256 = 0, mru512 = 0;

  for (const TraceRecord& r : trace) {
    const std::uint32_t block = r.addr >> 4;
    const std::size_t d128 = o128.distance(block);
    const std::size_t d256 = o256.distance(block);
    const std::size_t d512 = o512.distance(block);

    // Mask nesting: refining the set mask can only shorten the recency list
    // a block sits in, so distances are monotonically non-increasing.
    ASSERT_LE(d512, d256) << "block " << block;
    ASSERT_LE(d256, d128) << "block " << block;

    for (std::uint32_t w = 1; w <= 4; ++w) hits128[w - 1] += d128 < w;
    for (std::uint32_t w = 1; w <= 2; ++w) hits256[w - 1] += d256 < w;
    hits512[0] += d512 < 1;
    mru128 += d128 == 0;
    mru256 += d256 == 0;
    mru512 += d512 == 0;
  }

  // A (S, W) LRU cache hits iff stack distance < W: compare the oracle's
  // counts with the kernel's full bank.
  const std::vector<CacheStats> bank =
      feed_stats(BankAccumulator(all_configs()), pack_stream(trace));
  const std::vector<CacheConfig>& configs = all_configs();
  auto stats_of = [&](const char* name) -> const CacheStats& {
    const CacheConfig want = CacheConfig::parse(name);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (configs[i] == want) return bank[i];
    }
    ADD_FAILURE() << "config " << name << " not in all_configs()";
    return bank.front();
  };

  EXPECT_EQ(stats_of("2K_1W_16B").hits, hits128[0]);
  EXPECT_EQ(stats_of("4K_2W_16B").hits, hits128[1]);
  EXPECT_EQ(stats_of("8K_4W_16B").hits, hits128[3]);
  EXPECT_EQ(stats_of("4K_1W_16B").hits, hits256[0]);
  EXPECT_EQ(stats_of("8K_2W_16B").hits, hits256[1]);
  EXPECT_EQ(stats_of("8K_1W_16B").hits, hits512[0]);

  // Depth 0 = MRU of the set = the way the predictor probes first.
  EXPECT_EQ(stats_of("4K_2W_16B_P").pred_first_hits, mru128);
  EXPECT_EQ(stats_of("8K_4W_16B_P").pred_first_hits, mru128);
  EXPECT_EQ(stats_of("8K_2W_16B_P").pred_first_hits, mru256);

  // And a one-slot traversal (the config measured alone) agrees with the
  // oracle independently.
  EXPECT_EQ(lone_stats(CacheConfig::parse("4K_2W_16B_P"), pack_stream(trace))
                .pred_first_hits,
            mru128);
}

// ---------------------------------------------------------------------------
// The same Mattson property for the generalized kernel: randomized nested
// families (3-6 set-count levels, non-power-of-two geometry counts) over
// generic CacheGeometry spaces. The oracle runs at line granularity — a
// (sets, ways) LRU cache of line-sized blocks hits iff the per-set stack
// distance of the line is < ways — and the per-access distances must be
// monotone across levels: coarser set counts splice recency lists
// together, so d_{s0} >= d_{s1} >= ... for s0 < s1 < ... NestedSweepSim's
// hit counters must match the oracle's #(d < ways) exactly for every
// geometry in the family.

TEST(NestedSweepProperty, RandomizedNestedFamilies) {
  const Trace trace = property_stream();
  Rng rng(0xBADC0FFE);
  for (int iter = 0; iter < 4; ++iter) {
    const std::uint32_t line = 16u << rng.next_below(3);  // 16/32/64 B
    const unsigned nlev = 3 + static_cast<unsigned>(rng.next_below(4));
    std::uint32_t lg = 4 + static_cast<std::uint32_t>(rng.next_below(3));
    std::vector<std::uint32_t> set_counts;
    std::vector<CacheGeometry> family;
    for (unsigned l = 0; l < nlev; ++l) {
      const std::uint32_t sets = 1u << lg;
      set_counts.push_back(sets);
      const std::uint32_t wmax = 1u << rng.next_below(4);  // 1/2/4/8 ways
      for (std::uint32_t w = 1; w <= wmax; w <<= 1) {
        if (w == wmax || rng.next_bool(0.5)) {
          family.push_back(CacheGeometry{sets * w * line, w, line});
        }
      }
      lg += 1 + static_cast<std::uint32_t>(rng.next_below(2));
    }
    // Non-power-of-two family sizes too: duplicates are legal, so padding
    // with a repeat of the first geometry breaks a 2^k count.
    if (std::has_single_bit(family.size())) family.push_back(family.front());

    std::vector<StackOracle> oracles;
    oracles.reserve(nlev);
    for (const std::uint32_t sets : set_counts) oracles.emplace_back(sets);
    const unsigned shift =
        static_cast<unsigned>(std::countr_zero(line));
    std::vector<std::uint64_t> hits(family.size(), 0);
    std::vector<std::size_t> d(nlev);
    for (const TraceRecord& r : trace) {
      const std::uint32_t lblk = r.addr >> shift;
      for (unsigned l = 0; l < nlev; ++l) d[l] = oracles[l].distance(lblk);
      for (unsigned l = 1; l < nlev; ++l) {
        ASSERT_LE(d[l], d[l - 1])
            << "iter " << iter << " level " << l << " block " << lblk;
      }
      for (std::size_t i = 0; i < family.size(); ++i) {
        for (unsigned l = 0; l < nlev; ++l) {
          if (family[i].num_sets() == set_counts[l]) {
            hits[i] += d[l] < family[i].assoc;
            break;
          }
        }
      }
    }

    NestedSweepSim sim{std::span<const CacheGeometry>(family)};
    sim.replay(pack_stream(std::span<const TraceRecord>(trace)));
    for (std::size_t i = 0; i < family.size(); ++i) {
      const CacheStats s = sim.stats(family[i]);
      EXPECT_EQ(s.hits, hits[i])
          << "iter " << iter << " geometry " << geometry_name(family[i]);
      EXPECT_EQ(s.accesses, trace.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Direct constructor/stats contract.

std::vector<std::uint32_t> packed_stream(const Trace& trace) {
  return pack_stream(std::span<const TraceRecord>(trace));
}

void expect_matches_reference(std::span<const CacheConfig> bank,
                              const Trace& trace, TimingParams timing = {}) {
  const std::vector<std::uint32_t> packed = packed_stream(trace);
  StackSweepSim sweep(bank, timing);
  sweep.replay(packed);
  for (const CacheConfig& cfg : bank) {
    EXPECT_EQ(sweep.stats(cfg), reference_stats(cfg, packed, timing))
        << cfg.name();
  }
}

TEST(StackSweepSim, PartialBank32B) {
  const Trace trace = property_stream();
  const std::vector<CacheConfig> bank = {
      CacheConfig::parse("2K_1W_32B"), CacheConfig::parse("8K_4W_32B_P"),
      CacheConfig::parse("4K_1W_32B")};
  expect_matches_reference(bank, trace);
}

TEST(StackSweepSim, PartialBank64B) {
  const Trace trace = property_stream();
  const std::vector<CacheConfig> bank = {CacheConfig::parse("8K_1W_64B"),
                                         CacheConfig::parse("8K_2W_64B_P"),
                                         CacheConfig::parse("4K_2W_64B")};
  TimingParams timing;
  timing.mem_latency = 33;
  timing.mispredict_penalty = 2;
  expect_matches_reference(bank, trace, timing);
}

// A prediction-only bank must still maintain the base slot's contents.
TEST(StackSweepSim, PredOnlyBank) {
  const Trace trace = property_stream();
  const std::vector<CacheConfig> bank = {CacheConfig::parse("4K_2W_16B_P"),
                                         CacheConfig::parse("8K_4W_16B_P")};
  expect_matches_reference(bank, trace);
}

// Duplicates are legal (the bank API does not deduplicate) and a duplicated
// config reads back the same stats.
TEST(StackSweepSim, DuplicateConfigs) {
  const Trace trace = property_stream();
  const CacheConfig cfg = CacheConfig::parse("8K_2W_16B");
  const std::vector<CacheConfig> bank = {cfg, cfg,
                                         CacheConfig::parse("2K_1W_16B")};
  expect_matches_reference(bank, trace);
}

// State and stats accumulate across replay() calls: replaying a stream in
// two chunks equals replaying it whole.
TEST(StackSweepSim, ReplayAccumulates) {
  const Trace trace = property_stream();
  const std::vector<std::uint32_t> packed = packed_stream(trace);
  const std::span<const std::uint32_t> all(packed);
  std::vector<CacheConfig> bank;  // the full 16 B group: 9 configurations
  for (const CacheConfig& cfg : all_configs()) {
    if (cfg.line == LineBytes::b16) bank.push_back(cfg);
  }
  ASSERT_EQ(bank.size(), 9u);

  StackSweepSim whole(bank);
  whole.replay(all);
  StackSweepSim split(bank);
  split.replay(all.subspan(0, packed.size() / 3));
  split.replay(all.subspan(packed.size() / 3));

  for (const CacheConfig& cfg : bank) {
    EXPECT_EQ(whole.stats(cfg), split.stats(cfg)) << cfg.name();
  }
}

TEST(StackSweepSim, ConstructorContract) {
  EXPECT_THROW(StackSweepSim(std::span<const CacheConfig>{}), Error);

  const std::vector<CacheConfig> mixed = {CacheConfig::parse("2K_1W_16B"),
                                          CacheConfig::parse("2K_1W_32B")};
  EXPECT_THROW(StackSweepSim{std::span<const CacheConfig>(mixed)}, Error);

  const std::vector<CacheConfig> bank = {CacheConfig::parse("4K_2W_32B")};
  StackSweepSim sweep{std::span<const CacheConfig>(bank)};
  EXPECT_EQ(sweep.line_bytes(), 32u);
  // Same slot, prediction on: not activated by this bank.
  EXPECT_THROW(sweep.stats(CacheConfig::parse("4K_2W_32B_P")), Error);
  // Different line size: never in scope for this traversal.
  EXPECT_THROW(sweep.stats(CacheConfig::parse("4K_2W_16B")), Error);
}

}  // namespace
}  // namespace stcache
