// Tests of trace capture, splitting, replay, and the synthetic generators.
#include <gtest/gtest.h>

#include "reference_replay.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace stcache {
namespace {

TEST(TracingMemory, RecordsInProgramOrder) {
  TracingMemory mem;
  mem.ifetch(0x0);
  mem.dread(0x100, 4);
  mem.ifetch(0x4);
  mem.dwrite(0x104, 4);
  const Trace& t = mem.trace();
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], (TraceRecord{0x0, AccessKind::kIFetch}));
  EXPECT_EQ(t[1], (TraceRecord{0x100, AccessKind::kRead}));
  EXPECT_EQ(t[2], (TraceRecord{0x4, AccessKind::kIFetch}));
  EXPECT_EQ(t[3], (TraceRecord{0x104, AccessKind::kWrite}));
}

TEST(TracingMemory, AccessesCostOneCycle) {
  TracingMemory mem;
  EXPECT_EQ(mem.ifetch(0), 1u);
  EXPECT_EQ(mem.dread(0, 4), 1u);
  EXPECT_EQ(mem.dwrite(0, 4), 1u);
}

TEST(SplitTrace, SeparatesStreams) {
  Trace t = {{0x0, AccessKind::kIFetch},
             {0x100, AccessKind::kRead},
             {0x4, AccessKind::kIFetch},
             {0x104, AccessKind::kWrite}};
  SplitTrace s = split_trace(t);
  EXPECT_EQ(s.ifetch.size(), 2u);
  EXPECT_EQ(s.data.size(), 2u);
  EXPECT_EQ(s.data[1].kind, AccessKind::kWrite);
}

TEST(Summarize, CountsKindsAndFootprint) {
  Trace t = {{0x0, AccessKind::kIFetch},
             {0x4, AccessKind::kIFetch},    // same 16 B block as 0x0
             {0x100, AccessKind::kRead},
             {0x200, AccessKind::kWrite}};
  TraceSummary s = summarize(t);
  EXPECT_EQ(s.accesses, 4u);
  EXPECT_EQ(s.ifetches, 2u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.unique_blocks, 3u);
}

TEST(Replay, MatchesDirectAccesses) {
  Trace t;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    t.push_back({static_cast<std::uint32_t>(rng.next_below(16384)) & ~3u,
                 rng.next_bool(0.3) ? AccessKind::kWrite : AccessKind::kRead});
  }
  ConfigurableCache direct(CacheConfig::parse("4K_2W_32B"));
  for (const TraceRecord& r : t) {
    direct.access(r.addr, r.kind == AccessKind::kWrite);
  }
  ConfigurableCache cache(CacheConfig::parse("4K_2W_32B"));
  const CacheStats replayed = replay(cache, t);
  EXPECT_EQ(replayed.misses, direct.stats().misses);
  EXPECT_EQ(replayed.cycles, direct.stats().cycles);
  EXPECT_EQ(replayed.writeback_bytes, direct.stats().writeback_bytes);
}

TEST(Replay, ReturnsDeltaNotAccumulated) {
  Trace t = {{0x0, AccessKind::kRead}, {0x0, AccessKind::kRead}};
  ConfigurableCache c(CacheConfig::parse("2K_1W_16B"));
  replay(c, t);
  const CacheStats second = replay(c, t);
  EXPECT_EQ(second.accesses, 2u);
  EXPECT_EQ(second.misses, 0u);  // warm now
}

TEST(Synthetic, LoopIfetchFootprint) {
  Trace t = gen_loop_ifetch(0x1000, 256, 10);
  EXPECT_EQ(t.size(), 64u * 10);
  const TraceSummary s = summarize(t);
  EXPECT_EQ(s.ifetches, t.size());
  EXPECT_EQ(s.unique_blocks, 16u);  // 256 B / 16 B
}

TEST(Synthetic, LoopFitsInTinyCache) {
  Trace t = gen_loop_ifetch(0, 1024, 50);
  const CacheStats s = reference_stats(CacheConfig::parse("2K_1W_16B"), t);
  EXPECT_LT(s.miss_rate(), 0.01);
}

TEST(Synthetic, StridedWriteFraction) {
  Rng rng(1);
  Trace t = gen_strided(0, 16, 10000, 0.5, rng);
  const TraceSummary s = summarize(t);
  EXPECT_NEAR(static_cast<double>(s.writes) / t.size(), 0.5, 0.05);
}

TEST(Synthetic, PointerChaseVisitsAllNodes) {
  Rng rng(2);
  Trace t = gen_pointer_chase(0, 1024, 32, 32, rng);
  const TraceSummary s = summarize(t);
  EXPECT_EQ(s.unique_blocks, 32u);  // 1024/32 nodes, each a distinct block start
}

TEST(Synthetic, UniformCoversWorkingSet) {
  Rng rng(3);
  Trace t = gen_uniform(0, 4096, 50000, 0.0, rng);
  const TraceSummary s = summarize(t);
  EXPECT_GT(s.unique_blocks, 200u);  // most of the 256 blocks touched
}

TEST(Synthetic, ParserLikeMissRateFallsThenFlattens) {
  // The Figure 2 premise: miss rate improves substantially through the
  // small-to-medium sizes and flattens once the dictionary fits.
  ParserLikeParams params;
  params.accesses = 400'000;
  Trace t = gen_parser_like(params);
  auto mr = [&](std::uint32_t size) {
    return reference_stats(CacheGeometry{size, 1, 32}, t).miss_rate();
  };
  const double m2k = mr(2 * 1024);
  const double m32k = mr(32 * 1024);
  const double m512k = mr(512 * 1024);
  const double m1m = mr(1024 * 1024);
  EXPECT_GT(m2k, 1.15 * m32k);         // early improvement
  EXPECT_GT(m32k, 2.0 * m512k);        // keeps improving into the 100s of KB
  EXPECT_LT(m512k - m1m, 0.01);        // flat at the top
}

TEST(Synthetic, GeneratorsAreDeterministic) {
  ParserLikeParams params;
  params.accesses = 10'000;
  Trace a = gen_parser_like(params);
  Trace b = gen_parser_like(params);
  EXPECT_EQ(a, b);
}

TEST(Synthetic, InvalidArgumentsThrow) {
  Rng rng(4);
  EXPECT_THROW(gen_loop_ifetch(0, 6, 1), Error);
  EXPECT_THROW(gen_uniform(0, 2, 1, 0.0, rng), Error);
  EXPECT_THROW(gen_pointer_chase(0, 32, 32, 1, rng), Error);
}

}  // namespace
}  // namespace stcache
