// Phase subsystem tests: classifier boundary detection against ground
// truth, slicing invariance, tuner timeline equivalence against the
// reference model, across --sweep-jobs values and between a live capture
// and its stored stream, phase-table lookup semantics, and the [phase]
// metrics gating convention.
//
// The determinism claims here are what repro.sh's `stcache_tune --phases`
// cmp gates rely on: window signatures depend only on the concatenation
// of the fed words (never the chunking), and bank stats are bit-identical
// to the reference model for any sweep_jobs, so the full tuning timeline —
// verdicts, configs, distances — must be exactly equal, double for double.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/config.hpp"
#include "cache/packed.hpp"
#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "energy/energy_model.hpp"
#include "phase/adaptive.hpp"
#include "phase/classifier.hpp"
#include "phase/scenario.hpp"
#include "phase/table.hpp"
#include "reference_replay.hpp"
#include "trace/phase_mix.hpp"
#include "trace/replay.hpp"
#include "trace/stream.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

constexpr std::uint64_t kWindow = 8192;  // small windows keep tests fast

// The tuner keeps a pointer to its model, so tests share one static
// instance rather than passing temporaries.
const EnergyModel& test_model() {
  static const EnergyModel model;
  return model;
}

PhaseClassifier::Params test_params() {
  PhaseClassifier::Params p;
  p.window_words = kWindow;
  return p;
}

// Two behaviorally distant packed sources: a tiny sequential fetch loop
// vs. uniform random traffic with writes. The random working set is kept
// small enough that one 8 Ki-word window saturates it — the footprint
// term compares a phase's accumulated bitmap against a single window's,
// so a working set no window can cover would read as perpetual drift.
const std::vector<std::uint32_t>& loop_source() {
  static const auto* src = new std::vector<std::uint32_t>(
      pack_stream(gen_loop_ifetch(0, 2048, 200)));
  return *src;
}

const std::vector<std::uint32_t>& random_source() {
  static const auto* src = new std::vector<std::uint32_t>([] {
    Rng rng(99);
    return pack_stream(gen_uniform(1 << 22, 8 * 1024, 100'000, 0.3, rng));
  }());
  return *src;
}

// An A/B square wave with segment boundaries on window boundaries.
PhaseMixedStream square_mix(unsigned segments,
                            std::uint64_t windows_per_segment) {
  const std::vector<std::span<const std::uint32_t>> sources = {
      loop_source(), random_source()};
  return compose_phases(
      sources, square_wave_plan(windows_per_segment * kWindow, segments));
}

struct WindowLog {
  std::vector<PhaseClassifier::Window> events;
  PhaseClassifier::Sink sink() {
    return [this](const PhaseClassifier::Window& ev) {
      events.push_back(ev);
    };
  }
};

TEST(PhaseSignature, DistanceSeparatesBehaviors) {
  SignatureAccum a, b, a2;
  std::uint32_t pa = SignatureAccum::kNoPrevBlock;
  std::uint32_t pb = SignatureAccum::kNoPrevBlock;
  std::uint32_t pa2 = SignatureAccum::kNoPrevBlock;
  a.add(std::span(loop_source()).first(4 * kWindow), 0, pa);
  a2.add(std::span(loop_source()).first(4 * kWindow), 0, pa2);
  b.add(std::span(random_source()).first(4 * kWindow), 0, pb);
  const PhaseSignature sa = a.snapshot();
  EXPECT_EQ(signature_distance(sa, a2.snapshot()), 0.0);
  const double d = signature_distance(sa, b.snapshot());
  EXPECT_EQ(d, signature_distance(b.snapshot(), sa));
  EXPECT_GT(d, 0.3);
  EXPECT_LE(d, 1.0);
  EXPECT_EQ(sa.words, 4 * kWindow);
  EXPECT_EQ(sa.samples, 4 * kWindow / SignatureAccum::kSampleStride);
}

void expect_same_signature(const PhaseSignature& a, const PhaseSignature& b,
                           const std::string& what) {
  EXPECT_EQ(a.words, b.words) << what;
  EXPECT_EQ(a.samples, b.samples) << what;
  EXPECT_EQ(a.writes, b.writes) << what;
  EXPECT_EQ(a.seq, b.seq) << what;
  EXPECT_EQ(a.rep, b.rep) << what;
  EXPECT_EQ(a.footprint, b.footprint) << what;
  EXPECT_EQ(a.buckets, b.buckets) << what;
}

// add() over words [begin, end) from a fresh chain: the signature as
// sampling those words afresh gives it.
PhaseSignature resampled(std::span<const std::uint32_t> words,
                         std::uint64_t begin, std::uint64_t end) {
  SignatureAccum acc;
  std::uint32_t prev = SignatureAccum::kNoPrevBlock;
  acc.add(words.subspan(begin, end - begin),
          static_cast<unsigned>(begin % SignatureAccum::kSampleStride), prev);
  return acc.snapshot();
}

std::uint64_t bucket_total(const PhaseSignature& s) {
  std::uint64_t n = 0;
  for (const std::uint32_t b : s.buckets) n += b;
  return n;
}

// Consecutive stretches sampled on one chain, as the classifier samples its
// windows, merge into exactly add() over their concatenation from a fresh
// chain when the first is merged as a chain start: its first sample's delta
// is the one whose predecessor lies outside the concatenation. The
// stretches are 37, 45 or 53 words, so their starts step by 5 mod 8 and
// take every offset mod 8; each is fed to add() in pieces of 1 to 7 words,
// so a stretch's first sample often arrives in a later add() call than its
// first word. The first sample of stretch k takes a delta of 0, +1, -1, a
// large forward or backward stride, or +5 from the sample before it, and
// stretch 0's first sample has no predecessor at all.
TEST(SignatureAccum, ChainStartMergeEqualsAddOverConcatenation) {
  constexpr unsigned kStretches = 24;
  constexpr unsigned kStride = SignatureAccum::kSampleStride;
  std::vector<std::uint64_t> bounds = {0};
  for (unsigned k = 0; k < kStretches; ++k)
    bounds.push_back(bounds.back() + 37 + 8 * (k % 3));
  Rng rng(5);
  std::vector<std::uint32_t> words(bounds.back());
  for (std::uint32_t& w : words)
    w = ((1u << 24) + static_cast<std::uint32_t>(rng.next_below(1u << 16))) |
        (rng.next_bool(0.3) ? 0x80000000u : 0u);
  const std::int32_t deltas[] = {0, 1, -1, 1 << 20, -(1 << 22), 5};
  for (unsigned k = 1; k < kStretches; ++k) {
    const std::uint64_t first = (bounds[k] + kStride - 1) / kStride * kStride;
    const std::uint32_t prev_block = words[first - kStride] & kPackedBlockMask;
    words[first] = (words[first] & 0x80000000u) |
                   static_cast<std::uint32_t>(
                       static_cast<std::int32_t>(prev_block) +
                       deltas[k % std::size(deltas)]);
  }

  std::vector<SignatureAccum> stretch(kStretches);
  std::uint32_t prev = SignatureAccum::kNoPrevBlock;
  unsigned piece = 0;
  for (unsigned k = 0; k < kStretches; ++k) {
    for (std::uint64_t at = bounds[k]; at < bounds[k + 1];) {
      const std::uint64_t take =
          std::min<std::uint64_t>(1 + (piece++ * 3) % 7, bounds[k + 1] - at);
      stretch[k].add(std::span<const std::uint32_t>(words).subspan(at, take),
                     static_cast<unsigned>(at % kStride), prev);
      at += take;
    }
  }

  for (unsigned a = 0; a < kStretches; ++a) {
    for (unsigned count = 1; count <= 3 && a + count <= kStretches; ++count) {
      const std::string what =
          "stretches " + std::to_string(a) + "+" + std::to_string(count);
      SignatureAccum chained, plain;
      for (unsigned k = a; k < a + count; ++k) {
        chained.merge(stretch[k], k == a);
        plain.merge(stretch[k]);
      }
      const PhaseSignature ref = resampled(words, bounds[a], bounds[a + count]);
      expect_same_signature(chained.snapshot(), ref, what);
      // A plain merge keeps that one delta, so the chain start is what
      // makes the two equal (stretch 0 has no delta to leave out).
      EXPECT_EQ(bucket_total(plain.snapshot()),
                bucket_total(ref) + (a > 0 ? 1 : 0))
          << what;
    }
  }
}

// Boundary oracle: on a square wave whose segments start on window
// boundaries, every detected boundary must land exactly on a ground-truth
// segment start, and every interior segment start must be detected.
TEST(PhaseClassifier, BoundaryOracleOnSquareWave) {
  const PhaseMixedStream mix = square_mix(6, 8);
  WindowLog log;
  PhaseClassifier cls(test_params(), log.sink());
  cls.feed(mix.words);
  cls.finish();
  EXPECT_EQ(cls.words_seen(), mix.words.size());
  EXPECT_EQ(cls.windows_completed(), mix.words.size() / kWindow);

  std::vector<std::uint64_t> detected;
  for (const auto& ev : log.events)
    if (ev.action == PhaseClassifier::Action::kBoundary)
      detected.push_back(ev.phase_begin);
  std::vector<std::uint64_t> truth;
  for (std::size_t i = 1; i < mix.segments.size(); ++i)
    truth.push_back(mix.segments[i].begin);
  EXPECT_EQ(detected, truth);
  EXPECT_EQ(cls.boundaries(), truth.size());
}

// Signatures and verdicts depend only on the concatenation of the fed
// words, never on how the stream was sliced into feed() calls.
TEST(PhaseClassifier, ChunkingInvariance) {
  const PhaseMixedStream mix = square_mix(5, 6);
  const auto run = [&](std::size_t chunk) {
    WindowLog log;
    PhaseClassifier cls(test_params(), log.sink());
    std::span<const std::uint32_t> rest(mix.words);
    while (!rest.empty()) {
      const std::size_t take = std::min(chunk, rest.size());
      cls.feed(rest.first(take));
      rest = rest.subspan(take);
    }
    cls.finish();
    return log.events;
  };
  const auto whole = run(mix.words.size());
  for (const std::size_t chunk : {std::size_t{12289}, std::size_t{3001},
                                  std::size_t{kWindow}}) {
    const auto sliced = run(chunk);
    ASSERT_EQ(sliced.size(), whole.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(sliced[i].begin, whole[i].begin);
      EXPECT_EQ(sliced[i].words, whole[i].words);
      EXPECT_EQ(sliced[i].action, whole[i].action);
      EXPECT_EQ(sliced[i].distance, whole[i].distance) << "window " << i;
      EXPECT_EQ(sliced[i].phase_begin, whole[i].phase_begin);
    }
  }
}

PhaseTunerParams tuner_params(bool distance_mapping = true,
                              unsigned sweep_jobs = 0) {
  PhaseTunerParams p;
  p.classifier = test_params();
  p.sweep_windows = 2;
  p.distance_mapping = distance_mapping;
  p.sweep_jobs = sweep_jobs;
  return p;
}

std::vector<PhaseRecord> run_tuner(const PhaseMixedStream& mix,
                                   const PhaseTunerParams& params,
                                   std::size_t chunk = 12289) {
  PhaseAdaptiveTuner tuner(all_configs(), test_model(), params);
  std::span<const std::uint32_t> rest(mix.words);
  while (!rest.empty()) {
    const std::size_t take = std::min(chunk, rest.size());
    tuner.feed(rest.first(take));
    rest = rest.subspan(take);
  }
  return tuner.finish();
}

void expect_same_timeline(const std::vector<PhaseRecord>& a,
                          const std::vector<PhaseRecord>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin) << what << " phase " << i;
    EXPECT_EQ(a[i].end, b[i].end) << what << " phase " << i;
    EXPECT_EQ(a[i].verdict, b[i].verdict) << what << " phase " << i;
    EXPECT_EQ(a[i].config, b[i].config) << what << " phase " << i;
    EXPECT_EQ(a[i].table_distance, b[i].table_distance)
        << what << " phase " << i;
    EXPECT_EQ(a[i].matched_phase, b[i].matched_phase) << what << " phase " << i;
    EXPECT_EQ(a[i].swept_words, b[i].swept_words) << what << " phase " << i;
    EXPECT_EQ(a[i].configs_examined, b[i].configs_examined)
        << what << " phase " << i;
  }
}

// The full timeline — verdicts, configs, distances — must be exactly
// equal across --sweep-jobs values and feed chunkings, and every swept
// phase's verdict must be the Fig. 6 walk over reference-model stats of
// the words its bank measured (the phase's first swept_words words).
TEST(PhaseAdaptiveTuner, TimelineEquivalenceAcrossEnginesAndJobs) {
  const PhaseMixedStream mix = square_mix(6, 6);
  const auto base = run_tuner(mix, tuner_params());
  ASSERT_FALSE(base.empty());
  for (const unsigned jobs : {1u, 3u}) {
    expect_same_timeline(base, run_tuner(mix, tuner_params(true, jobs)),
                         "sweep_jobs " + std::to_string(jobs));
  }
  expect_same_timeline(base, run_tuner(mix, tuner_params(), mix.words.size()),
                       "whole-stream feed");

  const std::vector<CacheConfig>& configs = all_configs();
  unsigned swept = 0;
  for (const PhaseRecord& r : base) {
    if (r.verdict != PhaseVerdict::kSwept) continue;
    ++swept;
    const auto words =
        std::span<const std::uint32_t>(mix.words).subspan(r.begin,
                                                          r.swept_words);
    std::vector<CacheStats> ref;
    for (const CacheConfig& cfg : configs) {
      ref.push_back(reference_stats(cfg, words));
    }
    TraceEvaluator eval(std::span<const std::uint32_t>{}, test_model());
    eval.prime_from(configs, ref);
    const SearchResult verdict = tune(eval);
    EXPECT_EQ(r.config, verdict.best) << "phase at " << r.begin;
    EXPECT_EQ(r.configs_examined, verdict.configs_examined)
        << "phase at " << r.begin;
  }
  EXPECT_GE(swept, 2u);
}

// The live path: a tuner fed the selected side of each stream_workload
// chunk, as the capture thread publishes it through the SPSC queue, tunes
// exactly like one fed the whole capture_packed stream.
TEST(PhaseAdaptiveTuner, LiveCaptureMatchesCapturedStream) {
  const std::pair<const char*, bool> cases[] = {{"crc", true},
                                                {"ucbqsort", false}};
  for (const auto& [name, instruction] : cases) {
    const std::string what =
        std::string(name) + (instruction ? " I" : " D");
    const Workload& w = find_workload(name);
    PhaseAdaptiveTuner live(all_configs(), test_model(), tuner_params());
    stream_workload(w, [&](const PackedChunk& chunk) {
      live.feed(instruction ? chunk.ifetch_words() : chunk.data_words());
    });
    const PackedCapture cap = capture_packed(w);
    const std::vector<std::uint32_t>& words =
        instruction ? cap.ifetch : cap.data;
    PhaseAdaptiveTuner whole(all_configs(), test_model(), tuner_params());
    whole.feed(words);
    const std::vector<PhaseRecord> live_tl = live.finish();
    expect_same_timeline(whole.finish(), live_tl, what);
    EXPECT_EQ(live.words_seen(), words.size()) << what;
    EXPECT_GT(live.sweeps(), 0u) << what;
    EXPECT_EQ(live.sweeps(), whole.sweeps()) << what;
    EXPECT_EQ(live.reuses(), whole.reuses()) << what;
    EXPECT_EQ(live.boundaries(), whole.boundaries()) << what;
  }
}

// Recurring behaviors must hit the phase table: with distance mapping the
// A/B square wave pays for two sweeps and reuses the rest; naive
// re-tuning sweeps every phase.
TEST(PhaseAdaptiveTuner, DistanceMappingReusesRecurringPhases) {
  const PhaseMixedStream mix = square_mix(8, 6);
  PhaseAdaptiveTuner adaptive(all_configs(), test_model(), tuner_params());
  adaptive.feed(mix.words);
  const std::vector<PhaseRecord> timeline = adaptive.finish();
  ASSERT_GE(timeline.size(), 6u);
  EXPECT_GE(adaptive.reuses(), 4u);
  EXPECT_LE(adaptive.sweeps(), 3u);
  EXPECT_EQ(adaptive.sweeps() + adaptive.reuses(), timeline.size());
  for (const PhaseRecord& r : timeline) {
    if (r.verdict != PhaseVerdict::kReused) continue;
    ASSERT_GE(r.matched_phase, 0);
    ASSERT_LT(static_cast<std::size_t>(r.matched_phase), timeline.size());
    // A reused phase wears exactly the config its table donor swept.
    EXPECT_EQ(r.config, timeline[r.matched_phase].config);
    EXPECT_EQ(r.configs_examined, 0u);
    EXPECT_EQ(r.swept_words, 0u);
  }

  PhaseAdaptiveTuner naive(all_configs(), test_model(),
                           tuner_params(false));
  naive.feed(mix.words);
  const std::vector<PhaseRecord> naive_tl = naive.finish();
  EXPECT_EQ(naive.reuses(), 0u);
  EXPECT_EQ(naive.sweeps(), naive_tl.size());
  EXPECT_GT(naive.sweeps(), adaptive.sweeps());
}

// The tuner builds its table keys from the classifier's window
// accumulators instead of sampling the words again. Each swept phase files
// two entries, its key (windows key_skip_windows + 1 .. + key_windows of
// the phase, or the whole phase when it ended before them) and then its
// whole-phase signature, and each must equal add() over those words from a
// fresh chain, field by field. The stream has a one-window blip, two
// boundaries, and ends in half a window of the other source: a final
// partial window still pending at finish(), which the tuner folds into the
// last phase.
TEST(PhaseAdaptiveTuner, TableKeysEqualResampledWindows) {
  const std::vector<std::span<const std::uint32_t>> sources = {
      loop_source(), random_source()};
  const std::vector<PhaseSegmentSpec> plan = {
      {0, 6 * kWindow}, {1, kWindow},     {0, 5 * kWindow},
      {1, 6 * kWindow}, {0, 6 * kWindow}, {1, kWindow / 2}};
  const PhaseMixedStream mix = compose_phases(sources, plan);
  const std::span<const std::uint32_t> words(mix.words);

  WindowLog log;
  PhaseClassifier cls(test_params(), log.sink());
  cls.feed(words);
  cls.finish();
  ASSERT_GE(cls.blips(), 1u);
  ASSERT_GE(cls.boundaries(), 2u);
  ASSERT_NE(words.size() % kWindow, 0u);
  ASSERT_EQ(log.events.back().action, PhaseClassifier::Action::kPending);

  for (const bool mapping : {true, false}) {
    for (const unsigned skip : {0u, 1u}) {
      PhaseTunerParams params = tuner_params(mapping);
      params.key_skip_windows = skip;
      PhaseAdaptiveTuner tuner(all_configs(), test_model(), params);
      std::span<const std::uint32_t> rest = words;
      while (!rest.empty()) {
        const std::size_t take = std::min<std::size_t>(3001, rest.size());
        tuner.feed(rest.first(take));
        rest = rest.subspan(take);
      }
      const std::vector<PhaseRecord> timeline = tuner.finish();
      const std::vector<PhaseTableEntry>& entries = tuner.table().entries();
      unsigned swept = 0;
      for (std::size_t i = 0; i < timeline.size(); ++i) {
        const PhaseRecord& r = timeline[i];
        if (r.verdict != PhaseVerdict::kSwept) continue;
        const std::string what = std::string(mapping ? "adaptive" : "naive") +
                                 " skip " + std::to_string(skip) + " phase " +
                                 std::to_string(i);
        std::vector<const PhaseTableEntry*> filed;
        for (const PhaseTableEntry& e : entries)
          if (e.phase == i) filed.push_back(&e);
        ASSERT_EQ(filed.size(), 2u) << what;
        const std::uint64_t key_begin = r.begin + skip * kWindow;
        const PhaseSignature key =
            key_begin < r.end
                ? resampled(words, key_begin,
                            std::min(r.end, key_begin +
                                                params.key_windows * kWindow))
                : resampled(words, r.begin, r.end);
        expect_same_signature(filed[0]->key, key, what + " key");
        expect_same_signature(filed[1]->key, resampled(words, r.begin, r.end),
                              what + " whole phase");
        ++swept;
      }
      EXPECT_EQ(entries.size(), 2u * swept);
      EXPECT_GE(swept, mapping ? 2u : 3u);
    }
  }
}

TEST(PhaseTable, NearestIsDeterministicAndReuseCounts) {
  SignatureAccum a, b;
  std::uint32_t pa = SignatureAccum::kNoPrevBlock;
  std::uint32_t pb = SignatureAccum::kNoPrevBlock;
  a.add(std::span(loop_source()).first(kWindow), 0, pa);
  b.add(std::span(random_source()).first(kWindow), 0, pb);
  PhaseTable table;
  EXPECT_FALSE(table.nearest(a.snapshot()).has_value());
  const std::size_t ea = table.insert(a.snapshot(), base_cache(), 0);
  const std::size_t eb =
      table.insert(b.snapshot(), CacheConfig::parse("2K_1W_16B"), 1);
  const auto ma = table.nearest(a.snapshot());
  ASSERT_TRUE(ma.has_value());
  EXPECT_EQ(ma->entry, ea);
  EXPECT_EQ(ma->distance, 0.0);
  const auto mb = table.nearest(b.snapshot());
  ASSERT_TRUE(mb.has_value());
  EXPECT_EQ(mb->entry, eb);
  // Duplicate keys tie; the earliest entry wins.
  table.insert(a.snapshot(), base_cache(), 2);
  EXPECT_EQ(table.nearest(a.snapshot())->entry, ea);
  table.note_reuse(ea);
  table.note_reuse(ea);
  EXPECT_EQ(table.entries()[ea].reuses, 2u);
  EXPECT_EQ(table.size(), 3u);
}

// The [phase] summary obeys the util/metrics convention: silent unless
// metrics are enabled (benches turn them on, tools leave them off).
TEST(PhaseAdaptiveTuner, MetricsLineRespectsGating) {
  const PhaseMixedStream mix = square_mix(2, 4);
  const bool was = metrics_enabled();
  set_metrics_enabled(false);
  {
    PhaseAdaptiveTuner tuner(all_configs(), test_model(), tuner_params());
    tuner.feed(mix.words);
    testing::internal::CaptureStderr();
    tuner.finish();
    EXPECT_EQ(testing::internal::GetCapturedStderr().find("[phase]"),
              std::string::npos);
  }
  set_metrics_enabled(true);
  {
    PhaseAdaptiveTuner tuner(all_configs(), test_model(), tuner_params());
    tuner.feed(mix.words);
    testing::internal::CaptureStderr();
    tuner.finish();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("[phase] windows="), std::string::npos) << err;
    EXPECT_NE(err.find("sweeps="), std::string::npos) << err;
  }
  set_metrics_enabled(was);
}

TEST(PhaseAdaptiveTuner, RejectsBadParamsAndDoubleFinish) {
  PhaseTunerParams bad = tuner_params();
  bad.classifier.window_words = SignatureAccum::kSampleStride + 1;
  EXPECT_THROW(PhaseAdaptiveTuner(all_configs(), test_model(), bad), Error);
  bad = tuner_params();
  bad.key_windows = 0;
  EXPECT_THROW(PhaseAdaptiveTuner(all_configs(), test_model(), bad), Error);
  PhaseAdaptiveTuner tuner(all_configs(), test_model(), tuner_params());
  tuner.feed(std::span(loop_source()).first(kWindow));
  tuner.finish();
  EXPECT_THROW(tuner.finish(), Error);
  EXPECT_THROW(tuner.feed(loop_source()), Error);
}

}  // namespace
}  // namespace stcache
