// Phase subsystem tests: classifier boundary detection against ground
// truth, slicing invariance, tuner timeline equivalence against the
// reference model and across --sweep-jobs values, phase-table lookup
// semantics, and the [phase] metrics gating convention.
//
// The determinism claims here are what repro.sh's `stcache_tune --phases`
// cmp gates rely on: window signatures depend only on the concatenation
// of the fed words (never the chunking), and bank stats are bit-identical
// to the reference model for any sweep_jobs, so the full tuning timeline —
// verdicts, configs, distances — must be exactly equal, double for double.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/config.hpp"
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
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

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
