// Tests of the larger-cache heuristic analysis (core/scaled_space.hpp) —
// the paper's declared future work.
#include <gtest/gtest.h>

#include "core/scaled_space.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

Trace mixed_stream(std::uint64_t seed, std::uint32_t ws_bytes,
                   std::uint64_t n = 150'000) {
  Rng rng(seed);
  Trace t;
  std::uint32_t cursor = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rng.next_bool(0.7)) {
      t.push_back({cursor, AccessKind::kRead});
      cursor = (cursor + 4) % ws_bytes;
    } else {
      t.push_back({static_cast<std::uint32_t>(rng.next_below(ws_bytes)) & ~3u,
                   rng.next_bool(0.3) ? AccessKind::kWrite : AccessKind::kRead});
    }
  }
  return t;
}

TEST(ScaledSpace, PredefinedSpacesHave64Points) {
  EXPECT_EQ(ScaledSpace::embedded_32k().total_configs(), 64u);
  EXPECT_EQ(ScaledSpace::desktop_64k().total_configs(), 64u);
}

TEST(ScaledSpace, ValidityFiltersDegenerateGeometries) {
  ScaledSpace tiny{{512}, {8}, {128}};  // 512 B / (8 * 128 B) < 1 set
  EXPECT_EQ(tiny.total_configs(), 0u);
}

TEST(ScaledSpace, GeometryNames) {
  EXPECT_EQ(geometry_name(CacheGeometry{32768, 4, 64}), "32K_4W_64B");
  EXPECT_EQ(geometry_name(CacheGeometry{512, 1, 16}), "512B_1W_16B");
}

// configs() is precomputed at construction, deterministic, and preserves
// the historical size-major (size, assoc, line) scan order that exhaustive
// tie-breaking depends on.
TEST(ScaledSpace, ConfigsPrecomputedInScanOrder) {
  const ScaledSpace space = ScaledSpace::embedded_32k();
  const std::vector<CacheGeometry>& configs = space.configs();
  ASSERT_EQ(configs.size(), 64u);
  std::size_t i = 0;
  for (std::uint32_t s : space.sizes) {
    for (std::uint32_t a : space.assocs) {
      for (std::uint32_t l : space.lines) {
        const CacheGeometry g{s, a, l};
        if (!(g.valid() && g.num_sets() >= 1)) continue;
        EXPECT_EQ(configs[i], g) << "index " << i;
        ++i;
      }
    }
  }
  EXPECT_EQ(i, configs.size());
}

// valid() is membership in the precomputed list, not just geometric
// sanity: a well-formed geometry outside the parameter grid is rejected.
TEST(ScaledSpace, ValidIsMembership) {
  const ScaledSpace space = ScaledSpace::embedded_32k();
  EXPECT_TRUE(space.valid(CacheGeometry{8192, 2, 32}));
  EXPECT_FALSE(space.valid(CacheGeometry{2048, 1, 32}));   // size off-grid
  EXPECT_FALSE(space.valid(CacheGeometry{8192, 16, 32}));  // assoc off-grid
  EXPECT_FALSE(space.valid(CacheGeometry{8192, 2, 8}));    // line off-grid
  EXPECT_FALSE(space.valid(CacheGeometry{0, 1, 32}));      // degenerate
}

// prime() measures the whole space in one bank pass and memoizes energies
// identical to the on-demand per-config path.
TEST(ScaledSpace, PrimeMatchesOnDemandEnergies) {
  const Trace t = mixed_stream(11, 16 * 1024, 40'000);
  EnergyModel model;
  const ScaledSpace space = ScaledSpace::embedded_32k();

  ScaledEvaluator primed(t, model);
  primed.prime(space.configs());
  EXPECT_EQ(primed.evaluations(), space.total_configs());

  ScaledEvaluator on_demand(t, model);
  for (const CacheGeometry& g : space.configs()) {
    EXPECT_EQ(primed.energy(g), on_demand.energy(g)) << geometry_name(g);
  }
  // prime() on an already-primed evaluator is a no-op, not a re-measure.
  primed.prime(space.configs());
  EXPECT_EQ(primed.evaluations(), space.total_configs());
}

// The records constructor packs at construction; it must measure exactly
// what an evaluator over pack_stream of the same records measures.
TEST(ScaledSpace, RecordsAndPackedEvaluatorsAgree) {
  EnergyModel model;
  const ScaledSpace space = ScaledSpace::embedded_32k();
  const SplitTrace split = split_trace(capture_trace(find_workload("crc")));
  for (const Trace* stream : {&split.ifetch, &split.data}) {
    const std::vector<std::uint32_t> packed = pack_stream(*stream);
    ScaledEvaluator from_records(*stream, model);
    ScaledEvaluator from_packed(std::span<const std::uint32_t>(packed), model);
    for (const CacheGeometry& g : space.configs()) {
      EXPECT_EQ(from_records.energy(g), from_packed.energy(g))
          << geometry_name(g);
    }
    EXPECT_EQ(from_records.evaluations(), space.total_configs());
  }
}

// Geometries under 1 KB are distinct memo entries: a name-keyed memo once
// printed them all as "0K_..." and served the first one's energy for all.
TEST(ScaledTune, SubKilobyteGeometriesAreMemoizedSeparately) {
  Trace t;  // a 400-byte working set, read in a loop
  for (int rep = 0; rep < 200; ++rep)
    for (std::uint32_t a = 0; a < 400; a += 4)
      t.push_back({a, AccessKind::kRead});
  EnergyModel model;
  const ScaledSpace space{{256, 512, 1024}, {1}, {16}};
  const std::vector<CacheGeometry>& geoms = space.configs();
  ASSERT_EQ(geoms.size(), 3u);
  std::vector<double> truth;  // one fresh evaluator per geometry
  for (const CacheGeometry& g : geoms)
    truth.push_back(ScaledEvaluator(t, model).energy(g));
  ASSERT_LT(truth[1], truth[0]);  // 512 B holds the working set
  ASSERT_LT(truth[1], truth[2]);

  ScaledEvaluator eval(t, model);
  EXPECT_EQ(eval.energy(geoms[0]), truth[0]);
  EXPECT_EQ(eval.energy(geoms[1]), truth[1]);
  EXPECT_EQ(eval.evaluations(), 2u);

  ScaledEvaluator heur_eval(t, model);
  const ScaledSearchResult heur = tune_scaled(heur_eval, space);
  EXPECT_EQ(heur.best, geoms[1]);
  EXPECT_EQ(heur.best_energy, truth[1]);
  ScaledEvaluator ex_eval(t, model);
  const ScaledSearchResult ex = tune_scaled_exhaustive(ex_eval, space);
  EXPECT_EQ(ex.best, geoms[1]);
  EXPECT_EQ(ex.best_energy, truth[1]);
}

TEST(ScaledTune, ExaminesFarFewerThanExhaustive) {
  const Trace t = mixed_stream(1, 24 * 1024);
  EnergyModel model;
  ScaledEvaluator eval(t, model);
  const ScaledSpace space = ScaledSpace::embedded_32k();
  const ScaledSearchResult heur = tune_scaled(eval, space);
  // At most 1 + 3 + 3 + 3 = 10 for 4-value parameters.
  EXPECT_LE(heur.configs_examined, 10u);

  ScaledEvaluator eval2(t, model);
  const ScaledSearchResult ex = tune_scaled_exhaustive(eval2, space);
  EXPECT_EQ(ex.configs_examined, 64u);
  EXPECT_LE(ex.best_energy, heur.best_energy);
}

TEST(ScaledTune, NearOptimalOnWorkingSetSweep) {
  // Sweep working sets spanning the size range: the heuristic must stay
  // within 30% of optimal everywhere and usually be exact (the accuracy
  // question the paper left open).
  EnergyModel model;
  const ScaledSpace space = ScaledSpace::embedded_32k();
  unsigned exact = 0, total = 0;
  for (std::uint32_t ws : {4u * 1024, 12u * 1024, 28u * 1024, 60u * 1024}) {
    const Trace t = mixed_stream(ws, ws);
    ScaledEvaluator eval(t, model);
    const ScaledSearchResult heur = tune_scaled(eval, space);
    const ScaledSearchResult ex = tune_scaled_exhaustive(eval, space);
    EXPECT_LT(heur.best_energy, 1.30 * ex.best_energy) << "ws=" << ws;
    if (heur.best == ex.best) ++exact;
    ++total;
  }
  EXPECT_GE(exact, total / 2);
}

TEST(ScaledTune, PicksLargerCachesForLargerWorkingSets) {
  EnergyModel model;
  const ScaledSpace space = ScaledSpace::embedded_32k();

  const Trace small = mixed_stream(7, 2 * 1024);
  ScaledEvaluator eval_small(small, model);
  const auto r_small = tune_scaled(eval_small, space);

  const Trace large = mixed_stream(8, 30 * 1024);
  ScaledEvaluator eval_large(large, model);
  const auto r_large = tune_scaled(eval_large, space);

  EXPECT_LT(r_small.best.size_bytes, r_large.best.size_bytes);
}

TEST(ScaledTune, MemoizationCountsDistinctConfigs) {
  const Trace t = mixed_stream(9, 8 * 1024, 20'000);
  EnergyModel model;
  ScaledEvaluator eval(t, model);
  const ScaledSpace space = ScaledSpace::embedded_32k();
  tune_scaled(eval, space);
  const unsigned after_heur = eval.evaluations();
  tune_scaled(eval, space);  // identical walk: fully memoized
  EXPECT_EQ(eval.evaluations(), after_heur);
}

TEST(ScaledTune, EmptySpaceRejected) {
  const Trace t = mixed_stream(10, 4096, 1000);
  EnergyModel model;
  ScaledEvaluator eval(t, model);
  EXPECT_THROW(tune_scaled(eval, ScaledSpace{}), Error);
}

}  // namespace
}  // namespace stcache
