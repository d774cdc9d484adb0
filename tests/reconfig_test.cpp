// Flushless-reconfiguration semantics (the Figure 5 analysis of the paper):
//  * increasing associativity preserves every hit and costs nothing,
//  * increasing size never requires a bulk flush (only stranded DIRTY lines
//    are written back; clean ones are dropped at zero energy cost),
//  * changing line size is free,
//  * decreasing size must write back the dirty contents of the banks being
//    shut down — the expensive direction the heuristic's ascending order
//    avoids,
//  * coherence: under the default policy no dirty line is ever unreachable.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "cache/configurable_cache.hpp"
#include "util/rng.hpp"

namespace stcache {
namespace {

CacheConfig cfg(const std::string& name) { return CacheConfig::parse(name); }

// Warm a cache with a random mixed workload. Returns the addresses used.
std::vector<std::uint32_t> warm(ConfigurableCache& c, std::uint64_t seed,
                                int n = 4000, std::uint32_t span = 64 * 1024,
                                double write_frac = 0.3) {
  Rng rng(seed);
  std::vector<std::uint32_t> addrs;
  for (int i = 0; i < n; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(span)) & ~3u;
    c.access(a, rng.next_bool(write_frac));
    addrs.push_back(a);
  }
  return addrs;
}

// --- associativity increases (Figure 5a) -----------------------------------

// Parameters are std::string, not const char*: the printed parameter names
// the test, and a printed pointer would put a per-process address in it.
class AssocIncreaseTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(AssocIncreaseTest, PreservesAllHitsAtZeroCost) {
  auto [from, to] = GetParam();
  ConfigurableCache c(cfg(from));
  const auto addrs = warm(c, 0xAB);
  // Record what hits before the switch.
  std::vector<std::uint32_t> hits;
  for (std::uint32_t a : addrs) {
    if (c.probe(a)) hits.push_back(a);
  }
  ASSERT_FALSE(hits.empty());
  const std::uint64_t writebacks = c.reconfigure(cfg(to));
  EXPECT_EQ(writebacks, 0u) << from << " -> " << to;
  for (std::uint32_t a : hits) {
    EXPECT_TRUE(c.probe(a)) << "hit lost growing " << from << " -> " << to;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transitions, AssocIncreaseTest,
    ::testing::Values(std::pair{"8K_1W_16B", "8K_2W_16B"},
                      std::pair{"8K_2W_16B", "8K_4W_16B"},
                      std::pair{"8K_1W_16B", "8K_4W_16B"},
                      std::pair{"4K_1W_16B", "4K_2W_16B"},
                      std::pair{"8K_1W_64B", "8K_4W_64B"},
                      std::pair{"4K_1W_32B", "4K_2W_32B"}));

// --- line-size changes are always free --------------------------------------

class LineChangeTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(LineChangeTest, PreservesAllHitsAtZeroCost) {
  auto [from, to] = GetParam();
  ConfigurableCache c(cfg(from));
  const auto addrs = warm(c, 0xCD);
  std::vector<std::uint32_t> hits;
  for (std::uint32_t a : addrs) {
    if (c.probe(a)) hits.push_back(a);
  }
  const std::uint64_t writebacks = c.reconfigure(cfg(to));
  EXPECT_EQ(writebacks, 0u);
  for (std::uint32_t a : hits) EXPECT_TRUE(c.probe(a));
}

INSTANTIATE_TEST_SUITE_P(
    Transitions, LineChangeTest,
    ::testing::Values(std::pair{"4K_1W_16B", "4K_1W_32B"},
                      std::pair{"4K_1W_32B", "4K_1W_64B"},
                      std::pair{"4K_1W_64B", "4K_1W_16B"},  // decreasing too
                      std::pair{"8K_2W_16B", "8K_2W_64B"},
                      std::pair{"2K_1W_64B", "2K_1W_16B"}));

// --- size increases ----------------------------------------------------------

TEST(SizeIncrease, CleanContentsNeverWrittenBack) {
  ConfigurableCache c(cfg("2K_1W_16B"));
  warm(c, 0xEF, 4000, 64 * 1024, /*write_frac=*/0.0);  // read-only
  EXPECT_EQ(c.reconfigure(cfg("4K_1W_16B")), 0u);
  EXPECT_EQ(c.reconfigure(cfg("8K_1W_16B")), 0u);
  EXPECT_EQ(c.stats().reconfig_writeback_bytes, 0u);
}

TEST(SizeIncrease, SomeHitsSurviveSomeBecomeExtraMisses) {
  // The paper: growing may turn some hits into misses (the index gains a
  // bit) but blocks whose new index bit is 0 keep hitting.
  ConfigurableCache c(cfg("2K_1W_16B"));
  c.access(0x0000, false);   // block 0: index bit 7 of the 4K config is 0
  c.access(0x0810, false);   // maps to set 1 in 2K; bit 7 of block is 1
  ASSERT_TRUE(c.probe(0x0000));
  ASSERT_TRUE(c.probe(0x0810));
  c.reconfigure(cfg("4K_1W_16B"));
  EXPECT_TRUE(c.probe(0x0000));    // still reachable in bank 0
  EXPECT_FALSE(c.probe(0x0810));   // now maps to bank 1 -> extra miss
}

TEST(SizeIncrease, StrandedDirtyLinesAreWrittenBackForCoherence) {
  ConfigurableCache c(cfg("2K_1W_16B"));
  c.access(0x0810, true);  // dirty line whose 4K index selects bank 1
  const std::uint64_t wb = c.reconfigure(cfg("4K_1W_16B"));
  EXPECT_EQ(wb, 1u);
  EXPECT_EQ(c.dirty_unreachable_lines(), 0u);
}

TEST(SizeIncrease, PowerGatingOnlyLeavesDirtyStranded) {
  // The paper's idealized mode: no write-back on growth. The cache then
  // carries a dirty line its index can no longer reach — the hazard the
  // default policy removes.
  ConfigurableCache c(cfg("2K_1W_16B"));
  c.access(0x0810, true);
  const std::uint64_t wb =
      c.reconfigure(cfg("4K_1W_16B"), ReconfigPolicy::kPowerGatingOnly);
  EXPECT_EQ(wb, 0u);
  EXPECT_EQ(c.dirty_unreachable_lines(), 1u);
}

// --- size decreases -----------------------------------------------------------

TEST(SizeDecrease, ShutdownBanksDirtyContentsWrittenBack) {
  ConfigurableCache c(cfg("8K_1W_16B"));
  // Dirty lines spread across all four banks.
  for (std::uint32_t a = 0; a < 8192; a += 16) c.access(a, true);
  const std::uint64_t wb = c.reconfigure(cfg("2K_1W_16B"));
  // Banks 1..3 (3 x 128 dirty lines) are power-gated and must be written
  // back; bank 0's lines remain valid and reachable.
  EXPECT_EQ(wb, 3u * 128u);
  EXPECT_EQ(c.valid_lines(), 128u);
  EXPECT_EQ(c.dirty_unreachable_lines(), 0u);
}

TEST(SizeDecrease, SurvivingBankKeepsServingHits) {
  ConfigurableCache c(cfg("8K_1W_16B"));
  c.access(0x0040, false);  // block 4 -> bank 0 in both configs
  c.reconfigure(cfg("2K_1W_16B"));
  EXPECT_TRUE(c.probe(0x0040));
}

TEST(SizeDecrease, RegrownBankComesUpInvalid) {
  // Power-gated SRAM loses state: shrinking then growing again must not
  // resurrect stale lines.
  ConfigurableCache c(cfg("8K_1W_16B"));
  c.access(0x1840, false);  // lands in bank 3 (block 0x184, index bits 8:7 = 11)
  ASSERT_TRUE(c.probe(0x1840));
  c.reconfigure(cfg("2K_1W_16B"));
  c.reconfigure(cfg("8K_1W_16B"));
  EXPECT_FALSE(c.probe(0x1840));
}

// --- coherence invariant under random reconfiguration sequences --------------

TEST(ReconfigProperty, DefaultPolicyNeverStrandsDirtyLines) {
  Rng rng(0xFEED);
  const auto& configs = all_configs();
  ConfigurableCache c(configs[0]);
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 500; ++i) {
      const auto a = static_cast<std::uint32_t>(rng.next_below(96 * 1024)) & ~3u;
      c.access(a, rng.next_bool(0.4));
    }
    ASSERT_EQ(c.dirty_unreachable_lines(), 0u) << "round " << round;
    const auto& next = configs[rng.next_below(configs.size())];
    c.reconfigure(next);
    ASSERT_EQ(c.dirty_unreachable_lines(), 0u)
        << "after switch to " << next.name();
  }
}

TEST(ReconfigProperty, HeuristicScheduleIsCheapDescendingIsNot) {
  // The heuristic's ascending size schedule on a write-heavy stream incurs
  // far fewer reconfiguration write-backs than the descending schedule.
  auto run = [&](std::initializer_list<const char*> schedule) {
    auto it = schedule.begin();
    ConfigurableCache c(cfg(*it++));
    Rng rng(0xBEEF);
    std::uint64_t wb = 0;
    for (;;) {
      for (int i = 0; i < 3000; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(32 * 1024)) & ~3u;
        c.access(a, rng.next_bool(0.5));
      }
      if (it == schedule.end()) break;
      wb += c.reconfigure(cfg(*it++));
    }
    return wb;
  };
  const std::uint64_t ascending = run({"2K_1W_16B", "4K_1W_16B", "8K_1W_16B"});
  const std::uint64_t descending = run({"8K_1W_16B", "4K_1W_16B", "2K_1W_16B"});
  EXPECT_LT(ascending, descending);
}

TEST(Reconfig, RejectsInvalidTarget) {
  ConfigurableCache c(cfg("8K_4W_16B"));
  EXPECT_THROW(
      c.reconfigure(CacheConfig{CacheSizeKB::k2, Assoc::w2, LineBytes::b16, false}),
      Error);
}

TEST(Reconfig, NoFalseHitsFromStaleLinesEver) {
  // Full-tag checking: a block left behind by an earlier configuration can
  // be re-found (a bonus hit) but a DIFFERENT block mapping to the same
  // physical location must never hit.
  ConfigurableCache c(cfg("8K_1W_16B"));
  c.access(0x0000, false);
  c.reconfigure(cfg("2K_1W_16B"));
  // Block 0x800>>4=0x80 maps to set 0 in 2K mode, same row bank 0 as block 0.
  EXPECT_FALSE(c.access(0x800, false).hit);
}

}  // namespace
}  // namespace stcache
