// Determinism and ground-truth tests for the phase-mixed trace composer
// (trace/phase_mix.hpp) and the named scenarios (phase/scenario.hpp).
//
// The composer is the foundation the whole phase subsystem is judged on:
// its segment list is the oracle for boundary detection and for the
// per-phase energy floor in bench_phase_adaptive, so it must tile the
// stream exactly, cycle sources with wrapping cursors (a recurring phase
// resumes, not restarts), and be byte-for-byte reproducible — including
// the seeded random interleave. The streamed scenario (PhaseScenarioStream,
// what stcache_tune --phases feeds its tuner) must be that same stream,
// tune to the same timeline, and hold only its sources in memory; each
// scenario's words are pinned by length and digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/config.hpp"
#include "energy/energy_model.hpp"
#include "phase/adaptive.hpp"
#include "phase/scenario.hpp"
#include "trace/phase_mix.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stcache {
namespace {

std::vector<std::span<const std::uint32_t>> as_spans(
    const std::vector<std::vector<std::uint32_t>>& owned) {
  return {owned.begin(), owned.end()};
}

// The tuner keeps a pointer to its model, so tests share one instance.
const EnergyModel& test_model() {
  static const EnergyModel model;
  return model;
}

std::uint64_t vm_hwm_kb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::uint64_t>(
          std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0;  // not Linux: the RSS assertion is skipped
}

// Streaming a scenario holds its sources and the tuner's window buffers,
// never the stream, so peak RSS must not grow with --scale: streaming
// squarewave at scale 8 (151 M words, ~600 MB materialized) stays within
// 32 MB of streaming it at scale 1. Both scenarios are captured before the
// baseline: the sources are the same at every scale, and under ASan the
// quarantine would keep a second capture's freed temporaries (~40 MB)
// resident. The tuner recycles its window buffers, so the feed itself
// frees almost nothing and the bound holds under ASan too. Defined first
// so a whole-binary run measures it before the tests below materialize
// scenarios and raise the high-water mark.
TEST(PhaseScenarioStream, ScaleEightStreamsInBoundedMemory) {
  const auto stream_through_tuner = [](const PhaseScenarioStream& stream) {
    PhaseAdaptiveTuner tuner(all_configs(), test_model());
    stream.for_each_slice(
        [&](std::span<const std::uint32_t> words) { tuner.feed(words); });
    tuner.finish();
    return tuner.words_seen();
  };
  const PhaseScenarioStream scale1("squarewave", 1);
  const PhaseScenarioStream scale8("squarewave", 8);
  EXPECT_EQ(scale8.total_words(), 8 * scale1.total_words());
  EXPECT_EQ(stream_through_tuner(scale1), scale1.total_words());
  const std::uint64_t hwm_before = vm_hwm_kb();
  EXPECT_EQ(stream_through_tuner(scale8), 8u * 24u * 768u * 1024u);
  const std::uint64_t hwm_after = vm_hwm_kb();
  if (hwm_before > 0 && hwm_after > 0) {
    EXPECT_LT(hwm_after - hwm_before, 32u * 1024u)
        << "peak RSS grew by " << hwm_after - hwm_before
        << " kB from scale 1 to scale 8";
  }
}

TEST(PhaseMix, SquareWavePlanAlternates) {
  const std::vector<PhaseSegmentSpec> plan = square_wave_plan(100, 5);
  ASSERT_EQ(plan.size(), 5u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].source, i % 2);
    EXPECT_EQ(plan[i].words, 100u);
  }
}

TEST(PhaseMix, CyclePlanRoundRobinsWithGlobalLengths) {
  const std::uint64_t lens[] = {10, 20};
  const std::vector<PhaseSegmentSpec> plan = cycle_plan(3, lens, 2);
  ASSERT_EQ(plan.size(), 6u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].source, i % 3);
    EXPECT_EQ(plan[i].words, lens[i % 2]);
  }
}

TEST(PhaseMix, ComposeTilesExactlyWithWrappingCursors) {
  const std::vector<std::vector<std::uint32_t>> owned = {{1, 2, 3}, {10, 11}};
  const std::vector<PhaseSegmentSpec> plan = {{0, 4}, {1, 3}, {0, 2}};
  const PhaseMixedStream mix = compose_phases(as_spans(owned), plan);
  // Source 0's cursor wraps 1,2,3,1 then *resumes* at 2 on the next visit.
  const std::vector<std::uint32_t> expect = {1, 2, 3, 1, 10, 11, 10, 2, 3};
  EXPECT_EQ(mix.words, expect);
  ASSERT_EQ(mix.segments.size(), 3u);
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(mix.segments[i].source, plan[i].source);
    EXPECT_EQ(mix.segments[i].begin, at);
    at += plan[i].words;
    EXPECT_EQ(mix.segments[i].end, at);
  }
  EXPECT_EQ(at, mix.words.size());
}

TEST(PhaseMix, ComposeRejectsBadInput) {
  const std::vector<std::vector<std::uint32_t>> owned = {{1, 2}, {}};
  const std::vector<PhaseSegmentSpec> good = {{0, 2}};
  EXPECT_THROW(compose_phases(as_spans(owned), {{{1, 2}}}), Error);
  EXPECT_THROW(compose_phases(as_spans(owned), {{{0, 0}}}), Error);
  EXPECT_THROW(compose_phases(as_spans(owned), {{{2, 2}}}), Error);
  EXPECT_NO_THROW(compose_phases(as_spans(owned), good));
}

// The walker validates the whole plan before it visits a slice, with
// compose_phases' errors: an invalid last entry leaves a streaming consumer
// untouched rather than fed a prefix.
TEST(PhaseMix, SliceWalkerValidatesBeforeVisiting) {
  const std::vector<std::vector<std::uint32_t>> owned = {{1, 2}, {}};
  const std::pair<PhaseSegmentSpec, std::string> cases[] = {
      {{1, 2}, "compose_phases: source 1 is empty"},
      {{0, 0}, "compose_phases: zero-length segment"},
      {{2, 2}, "compose_phases: plan references source 2 of 2"},
  };
  for (const auto& [bad, message] : cases) {
    const std::vector<PhaseSegmentSpec> plan = {{0, 3}, {0, 1}, bad};
    std::size_t visited = 0;
    std::string walk_error;
    try {
      for_each_phase_slice(as_spans(owned), plan,
                           [&](std::span<const std::uint32_t>) { ++visited; });
    } catch (const Error& e) {
      walk_error = e.what();
    }
    EXPECT_EQ(walk_error, message);
    EXPECT_EQ(visited, 0u) << message;
    EXPECT_THROW(phase_plan_words(as_spans(owned), plan), Error);
    EXPECT_THROW(compose_phases(as_spans(owned), plan), Error);
  }
}

TEST(PhaseMix, InterleavedPlanIsSeedDeterministic) {
  const auto a = interleaved_plan(4, 40, 100, 300, 0xABCDEF);
  const auto b = interleaved_plan(4, 40, 100, 300, 0xABCDEF);
  ASSERT_EQ(a.size(), 40u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].words, b[i].words);
    EXPECT_GE(a[i].words, 100u);
    EXPECT_LE(a[i].words, 300u);
    EXPECT_LT(a[i].source, 4u);
    if (i > 0) {
      EXPECT_NE(a[i].source, a[i - 1].source)
          << "segment " << i << " repeats its source: not a behavior change";
    }
  }
  // A different seed must not reproduce the same schedule.
  const auto c = interleaved_plan(4, 40, 100, 300, 0xABCDF0);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    differs = differs || a[i].source != c[i].source || a[i].words != c[i].words;
  EXPECT_TRUE(differs);
}

TEST(PhaseMix, ComposedInterleaveIsByteIdentical) {
  Rng rng(7);
  std::vector<std::vector<std::uint32_t>> owned;
  owned.push_back(pack_stream(gen_strided(0, 4, 5000, 0.0, rng)));
  owned.push_back(pack_stream(gen_uniform(1 << 20, 32 * 1024, 5000, 0.3, rng)));
  owned.push_back(pack_stream(gen_loop_ifetch(1 << 24, 1024, 64)));
  const auto plan = interleaved_plan(owned.size(), 20, 500, 2000, 42);
  const PhaseMixedStream x = compose_phases(as_spans(owned), plan);
  const PhaseMixedStream y = compose_phases(as_spans(owned), plan);
  EXPECT_EQ(x.words, y.words);
  EXPECT_EQ(x.segments, y.segments);
  EXPECT_EQ(x.segments.size(), plan.size());
  EXPECT_EQ(x.words.size(), x.segments.back().end);

  // Word-at-a-time reference of the wrapping cursors: the slices (each
  // plan entry split at its source's wraps) must concatenate to it.
  std::vector<std::uint32_t> expect;
  std::vector<std::size_t> cursor(owned.size(), 0);
  for (const PhaseSegmentSpec& spec : plan) {
    for (std::uint64_t k = 0; k < spec.words; ++k) {
      std::size_t& cur = cursor[spec.source];
      expect.push_back(owned[spec.source][cur]);
      cur = (cur + 1) % owned[spec.source].size();
    }
  }
  EXPECT_EQ(x.words, expect);
}

// The named scenarios bind real workload captures; same name + scale must
// reproduce byte-identically (the repro.sh cmp gates ride on this).
TEST(PhaseMix, ScenarioCatalogAndDeterminism) {
  ASSERT_GE(phase_scenarios().size(), 3u);
  EXPECT_EQ(find_phase_scenario("squarewave").name, "squarewave");
  EXPECT_THROW(find_phase_scenario("nope"), Error);
  EXPECT_THROW(build_phase_scenario("squarewave", 0), Error);
  const PhaseMixedStream a = build_phase_scenario("squarewave", 1);
  const PhaseMixedStream b = build_phase_scenario("squarewave", 1);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.segments, b.segments);
  ASSERT_FALSE(a.segments.empty());
  EXPECT_EQ(a.segments.back().end, a.words.size());
}

// FNV-1a (64-bit) over the words' little-endian bytes.
std::uint64_t fnv1a(std::span<const std::uint32_t> words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t w : words) {
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Every scenario's words are pinned, length and digest, as a build that
// captured its sources one after another made them. The sources are now
// captured concurrently and must still land in plan order; the test below
// compares the streamed scenario with the built one, so it cannot see a
// change both constructors share.
TEST(PhaseMix, ScenarioWordsArePinned) {
  const struct {
    const char* name;
    std::size_t words;
    std::uint64_t digest;
  } cases[] = {
      {"squarewave", 18'874'368u, 0xe1a4fd75169e3f19ULL},
      {"taskset", 10'223'616u, 0xac608e1b15950172ULL},
      {"datamix", 14'880'486u, 0x4cb050646d228301ULL},
  };
  for (const auto& c : cases) {
    const PhaseMixedStream mix = build_phase_scenario(c.name, 1);
    EXPECT_EQ(mix.words.size(), c.words) << c.name;
    EXPECT_EQ(fnv1a(mix.words), c.digest) << c.name;
  }
}

// The slices of a streamed scenario concatenate to the materialized
// scenario, and its word and segment counts come from the plan alone.
TEST(PhaseScenarioStream, SlicesConcatenateToTheBuiltScenario) {
  const std::pair<const char*, unsigned> cases[] = {
      {"squarewave", 1}, {"taskset", 1}, {"datamix", 1}, {"squarewave", 2}};
  for (const auto& [name, scale] : cases) {
    const std::string what = std::string(name) + " x" + std::to_string(scale);
    const PhaseScenarioStream stream(name, scale);
    const PhaseMixedStream mix = build_phase_scenario(name, scale);
    EXPECT_EQ(stream.scenario().name, name);
    EXPECT_EQ(stream.total_words(), mix.words.size()) << what;
    EXPECT_EQ(stream.planned_segments(), mix.segments.size()) << what;
    std::uint64_t at = 0;
    bool same = true;
    stream.for_each_slice([&](std::span<const std::uint32_t> slice) {
      same = same && slice.size() <= mix.words.size() - at &&
             std::equal(slice.begin(), slice.end(), mix.words.begin() + at);
      at += slice.size();
    });
    EXPECT_TRUE(same) << what;
    EXPECT_EQ(at, mix.words.size()) << what;
  }
}

// A tuner fed the streamed slices tunes exactly like one fed the
// materialized stream in 64 Ki-word chunks, the streaming pipeline's
// granularity: every PhaseRecord field and every counter, adaptive and
// naive.
TEST(PhaseScenarioStream, SlicedFeedMatchesMaterializedTimeline) {
  for (const char* name : {"squarewave", "datamix"}) {
    const PhaseScenarioStream stream(name);
    const PhaseMixedStream mix = build_phase_scenario(name);
    for (const bool mapping : {true, false}) {
      const std::string what =
          std::string(name) + (mapping ? " adaptive" : " naive");
      PhaseTunerParams params;
      params.distance_mapping = mapping;
      PhaseAdaptiveTuner sliced(all_configs(), test_model(), params);
      stream.for_each_slice(
          [&](std::span<const std::uint32_t> words) { sliced.feed(words); });
      PhaseAdaptiveTuner chunked(all_configs(), test_model(), params);
      std::span<const std::uint32_t> rest(mix.words);
      while (!rest.empty()) {
        const std::size_t take = std::min<std::size_t>(64 * 1024, rest.size());
        chunked.feed(rest.first(take));
        rest = rest.subspan(take);
      }
      const std::vector<PhaseRecord> a = sliced.finish();
      const std::vector<PhaseRecord> b = chunked.finish();
      ASSERT_EQ(a.size(), b.size()) << what;
      ASSERT_GE(a.size(), 2u) << what;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin) << what << " phase " << i;
        EXPECT_EQ(a[i].end, b[i].end) << what << " phase " << i;
        EXPECT_EQ(a[i].verdict, b[i].verdict) << what << " phase " << i;
        EXPECT_EQ(a[i].config, b[i].config) << what << " phase " << i;
        EXPECT_EQ(a[i].table_distance, b[i].table_distance)
            << what << " phase " << i;
        EXPECT_EQ(a[i].matched_phase, b[i].matched_phase)
            << what << " phase " << i;
        EXPECT_EQ(a[i].swept_words, b[i].swept_words)
            << what << " phase " << i;
        EXPECT_EQ(a[i].configs_examined, b[i].configs_examined)
            << what << " phase " << i;
      }
      EXPECT_EQ(sliced.sweeps(), chunked.sweeps()) << what;
      EXPECT_EQ(sliced.reuses(), chunked.reuses()) << what;
      EXPECT_EQ(sliced.boundaries(), chunked.boundaries()) << what;
      EXPECT_EQ(sliced.blips(), chunked.blips()) << what;
      EXPECT_EQ(sliced.swept_words(), chunked.swept_words()) << what;
      EXPECT_EQ(sliced.words_seen(), mix.words.size()) << what;
    }
  }
}

}  // namespace
}  // namespace stcache
