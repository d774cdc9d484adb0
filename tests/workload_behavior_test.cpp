// Characterization tests of the benchmark suite's cache behavior: the
// Table 1 results depend on the kernels exhibiting the working-set and
// locality diversity the paper's benchmarks had. These tests pin that
// diversity so a workload regression (e.g. an edit that shrinks a kernel's
// live code) fails loudly instead of silently flattening the experiments.
#include <gtest/gtest.h>

#include <map>

#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "reference_replay.hpp"
#include "trace/replay.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

const SplitTrace& traces_of(const std::string& name) {
  static std::map<std::string, SplitTrace> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, split_trace(capture_trace(find_workload(name)))).first;
  }
  return it->second;
}

double imiss(const std::string& workload, const char* cfg) {
  return lone_stats(CacheConfig::parse(cfg),
                    pack_stream(traces_of(workload).ifetch))
      .miss_rate();
}

double dmiss(const std::string& workload, const char* cfg) {
  return lone_stats(CacheConfig::parse(cfg),
                    pack_stream(traces_of(workload).data))
      .miss_rate();
}

// --- instruction-side working sets -----------------------------------------

TEST(WorkloadBehavior, TinyLoopKernelsFitTheSmallestCache) {
  // crc/bcnt/fir-class kernels: hot loop well under 2 KB.
  for (const char* name : {"crc", "bcnt", "fir", "pegwit"}) {
    EXPECT_LT(imiss(name, "2K_1W_16B"), 0.01) << name;
  }
}

TEST(WorkloadBehavior, LargeCodeKernelsNeedTheBiggestCache) {
  // padpcm/auto/g721: interleaved multi-KB live code — 2 KB thrashes, 8 KB
  // settles. This is the diversity that makes the size walk non-trivial.
  for (const char* name : {"padpcm", "auto", "g721"}) {
    EXPECT_GT(imiss(name, "2K_1W_16B"), 0.05) << name;
    EXPECT_LT(imiss(name, "8K_1W_16B"), 0.01) << name;
  }
}

TEST(WorkloadBehavior, JpegSitsInTheMiddle) {
  EXPECT_GT(imiss("jpeg", "2K_1W_16B"), 0.01);
  EXPECT_LT(imiss("jpeg", "4K_1W_16B"), 0.01);
}

// --- data-side locality classes --------------------------------------------

TEST(WorkloadBehavior, StreamingKernelsAreSizeInsensitive) {
  // blit/g3fax data sweeps exceed every configuration: growing the cache
  // cannot buy much, which is why their tuned D-caches stay small.
  for (const char* name : {"blit", "g3fax"}) {
    const double small = dmiss(name, "2K_1W_32B");
    const double large = dmiss(name, "8K_4W_32B");
    EXPECT_GT(small, 0.01) << name;
    EXPECT_GT(large, 0.6 * small) << name << " should not improve much";
  }
}

TEST(WorkloadBehavior, StreamingKernelsLoveLongLines) {
  for (const char* name : {"blit", "g3fax", "bcnt"}) {
    EXPECT_LT(dmiss(name, "2K_1W_64B"), 0.5 * dmiss(name, "2K_1W_16B")) << name;
  }
}

TEST(WorkloadBehavior, ReuseKernelsRewardCapacity) {
  // binary (16 KB sorted table) and ucbqsort (32 KB array + stack) keep
  // rewarding capacity through 8 KB.
  for (const char* name : {"binary", "ucbqsort"}) {
    EXPECT_LT(dmiss(name, "8K_1W_16B"), 0.8 * dmiss(name, "2K_1W_16B")) << name;
  }
}

TEST(WorkloadBehavior, EpicColumnPassesRewardAssociativity) {
  // The wavelet column stride maps many addresses to few sets, so extra
  // ways recover misses that extra capacity alone cannot: 2-way at 4 KB
  // beats 1-way at both 4 KB and 8 KB (measured: 0.250 vs 0.276 / 0.263).
  EXPECT_LT(dmiss("epic", "4K_2W_16B"), 0.95 * dmiss("epic", "4K_1W_16B"));
  EXPECT_LT(dmiss("epic", "4K_2W_16B"), dmiss("epic", "8K_1W_16B"));
}

TEST(WorkloadBehavior, PredictionAccuracyBands) {
  // MRU prediction: high on instruction streams (paper: ~90%).
  const CacheStats i = lone_stats(CacheConfig::parse("8K_4W_16B_P"),
                                  pack_stream(traces_of("jpeg").ifetch));
  EXPECT_GT(i.prediction_accuracy(), 0.80);
  // Data accuracy varies by kernel but stays meaningful.
  const CacheStats d = lone_stats(CacheConfig::parse("8K_4W_16B_P"),
                                  pack_stream(traces_of("ucbqsort").data));
  EXPECT_GT(d.prediction_accuracy(), 0.40);
  EXPECT_LT(d.prediction_accuracy(), 1.0);
}

// --- tuned-configuration diversity (the Table 1 premise) --------------------

TEST(WorkloadBehavior, TunedIConfigsSpanTheSizeRange) {
  EnergyModel model;
  std::map<CacheSizeKB, int> size_counts;
  for (const char* name : {"crc", "bcnt", "jpeg", "padpcm", "auto", "g721"}) {
    TraceEvaluator eval(traces_of(name).ifetch, model);
    size_counts[tune(eval).best.size_kb] += 1;
  }
  // At least two distinct sizes must appear among the six (actually three
  // with the default model; two keeps the test robust to recalibration).
  EXPECT_GE(size_counts.size(), 2u);
}

TEST(WorkloadBehavior, TunedDConfigsShowLineAndAssocDiversity) {
  EnergyModel model;
  std::map<LineBytes, int> lines;
  bool any_assoc = false;
  for (const char* name : {"crc", "binary", "mpeg2", "fir", "tv", "adpcm"}) {
    TraceEvaluator eval(traces_of(name).data, model);
    const CacheConfig best = tune(eval).best;
    lines[best.line] += 1;
    any_assoc = any_assoc || best.assoc != Assoc::w1;
  }
  EXPECT_GE(lines.size(), 2u);
  EXPECT_TRUE(any_assoc);
}

}  // namespace
}  // namespace stcache
