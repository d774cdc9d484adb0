// Tests of the evaluator layer (core/evaluator.hpp) and the candidate
// generation the heuristic walks (ascending_candidates).
#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "core/scaled_space.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

Trace small_stream() {
  Rng rng(0xE7A1);
  Trace t;
  for (int i = 0; i < 30000; ++i) {
    t.push_back({static_cast<std::uint32_t>(rng.next_below(8 * 1024)) & ~3u,
                 rng.next_bool(0.3) ? AccessKind::kWrite : AccessKind::kRead});
  }
  return t;
}

TEST(TraceEvaluator, MemoizesDistinctConfigurations) {
  const Trace t = small_stream();
  EnergyModel model;
  TraceEvaluator eval(t, model);
  EXPECT_EQ(eval.evaluations(), 0u);
  const double a = eval.energy(base_cache());
  EXPECT_EQ(eval.evaluations(), 1u);
  const double b = eval.energy(base_cache());
  EXPECT_EQ(eval.evaluations(), 1u);  // cached, not re-measured
  EXPECT_DOUBLE_EQ(a, b);
  eval.energy(CacheConfig::parse("2K_1W_16B"));
  EXPECT_EQ(eval.evaluations(), 2u);
}

TEST(TraceEvaluator, EnergyConsistentWithStats) {
  const Trace t = small_stream();
  EnergyModel model;
  TraceEvaluator eval(t, model);
  const CacheConfig cfg = CacheConfig::parse("4K_2W_32B");
  const double e = eval.energy(cfg);
  const CacheStats& s = eval.stats(cfg);
  EXPECT_DOUBLE_EQ(e, model.evaluate(cfg, s).total());
  EXPECT_EQ(s.accesses, t.size());
}

TEST(TraceEvaluator, StatsComeFromColdCaches) {
  const Trace t = small_stream();
  EnergyModel model;
  TraceEvaluator a(t, model), b(t, model);
  // Evaluating other configurations first must not warm the measurement
  // of a later one.
  a.energy(CacheConfig::parse("8K_4W_64B"));
  a.energy(CacheConfig::parse("2K_1W_16B"));
  EXPECT_DOUBLE_EQ(a.energy(CacheConfig::parse("4K_1W_32B")),
                   b.energy(CacheConfig::parse("4K_1W_32B")));
}

// The records constructor packs at construction; it must measure exactly
// what an evaluator over pack_stream of the same records measures.
TEST(TraceEvaluator, RecordsAndPackedConstructorsAgree) {
  EnergyModel model;
  const SplitTrace split = split_trace(capture_trace(find_workload("crc")));
  for (const Trace* stream : {&split.ifetch, &split.data}) {
    const std::vector<std::uint32_t> packed = pack_stream(*stream);
    TraceEvaluator from_records(*stream, model);
    TraceEvaluator from_packed(std::span<const std::uint32_t>(packed), model);
    for (const CacheConfig& cfg : all_configs()) {
      EXPECT_EQ(from_records.stats(cfg), from_packed.stats(cfg)) << cfg.name();
      EXPECT_EQ(from_records.energy(cfg), from_packed.energy(cfg))
          << cfg.name();
    }
    EXPECT_EQ(from_records.evaluations(), 27u);
  }
}

// A stats() reference must keep reading the right counts while the memo
// grows (a memo that relocates its entries would leave it dangling).
template <class Desc>
void expect_stats_reference_stable(MemoEvaluator<Desc>& eval,
                                   const std::vector<Desc>& points,
                                   std::uint64_t accesses) {
  ASSERT_GE(points.size(), 21u);
  const CacheStats& held = eval.stats(points.front());
  const CacheStats copy = held;
  for (const Desc& d : points) eval.energy(d);
  EXPECT_EQ(eval.evaluations(), points.size());
  EXPECT_EQ(&held, &eval.stats(points.front()));
  EXPECT_EQ(held, copy);
  EXPECT_EQ(held.accesses, accesses);
}

TEST(TraceEvaluator, StatsReferencesSurviveMemoGrowth) {
  const Trace t = small_stream();
  EnergyModel model;
  TraceEvaluator eval(t, model);
  expect_stats_reference_stable(eval, all_configs(), t.size());
}

TEST(ScaledEvaluator, StatsReferencesSurviveMemoGrowth) {
  const Trace t = small_stream();
  EnergyModel model;
  ScaledEvaluator eval(t, model);
  expect_stats_reference_stable(eval, ScaledSpace::embedded_32k().configs(),
                                t.size());
}

TEST(AscendingCandidates, SizeWalksUpward) {
  const CacheConfig start = CacheConfig::parse("2K_1W_16B");
  const auto cands = ascending_candidates(start, Param::kSize);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].size_kb, CacheSizeKB::k4);
  EXPECT_EQ(cands[1].size_kb, CacheSizeKB::k8);
  for (const CacheConfig& c : cands) {
    EXPECT_EQ(c.assoc, start.assoc);
    EXPECT_EQ(c.line, start.line);
  }
}

TEST(AscendingCandidates, NothingAboveTheTop) {
  EXPECT_TRUE(
      ascending_candidates(CacheConfig::parse("8K_1W_16B"), Param::kSize).empty());
  EXPECT_TRUE(
      ascending_candidates(CacheConfig::parse("8K_4W_16B"), Param::kAssoc).empty());
  EXPECT_TRUE(
      ascending_candidates(CacheConfig::parse("2K_1W_64B"), Param::kLine).empty());
}

TEST(AscendingCandidates, AssocCandidatesMayBeInvalidAtSmallSizes) {
  // The walk relies on invalid candidates terminating it: at 4 KB the
  // second associativity step (4-way) is illegal.
  const auto cands =
      ascending_candidates(CacheConfig::parse("4K_1W_16B"), Param::kAssoc);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_TRUE(cands[0].valid());   // 4K_2W
  EXPECT_FALSE(cands[1].valid());  // 4K_4W
}

TEST(AscendingCandidates, PredictionOnlyOnce) {
  const auto on =
      ascending_candidates(CacheConfig::parse("8K_2W_16B"), Param::kPred);
  ASSERT_EQ(on.size(), 1u);
  EXPECT_TRUE(on[0].way_prediction);
  const auto already =
      ascending_candidates(CacheConfig::parse("8K_2W_16B_P"), Param::kPred);
  EXPECT_TRUE(already.empty());
}

}  // namespace
}  // namespace stcache
