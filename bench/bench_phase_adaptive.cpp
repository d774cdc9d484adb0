// ✦ Phase-adaptive tuning vs. static Fig. 6 vs. the per-phase oracle.
//
// Usage: bench_phase_adaptive [--reps N] [--out file.json] [--scale N]
//                             [common sweep flags: --jobs N --sweep-jobs N
//                              --metrics-out file.json]
//
// The paper tunes once per application (Fig. 6); Section 1 lists "whenever
// a program phase change is detected" as a deployment mode. This harness
// measures what that mode is worth on the canned phase-mixed scenarios
// (src/phase/scenario.hpp), for four tuning policies over each stream:
//
//   static    one Fig. 6 search over the whole stream; the winner serves
//             every phase (the paper's deployment).
//   adaptive  the phase-adaptive tuner (src/phase/): detect phases, reuse
//             the config of any tuned phase within the reuse threshold,
//             sweep only when no table entry is close (distance mapping).
//   naive     the same tuner with distance mapping disabled: every
//             detected phase pays for a fresh full-space sweep.
//   oracle    per ground-truth segment, the exhaustive best config — the
//             energy floor phase detection aims at (unrealizable online:
//             it knows the segment boundaries and sweeps every segment).
//
// Energy for a policy is the sum over its per-phase spans of the chosen
// configuration's Equation-1 energy on that span, so all four totals
// cover the identical words and compare directly. Bank stats are
// bit-identical across --sweep-jobs values, so the tables on stdout are
// byte-identical across them (repro.sh cmp-gates the timeline through
// stcache_tune --phases).
//
// The classifier-overhead section runs the streaming full-space sweep
// pipeline (27-config bank and classifier fed the same chunks) --reps
// times per scenario (default 9) and times the classifier's own feed and
// finish calls inside each pass. A pass's overhead is the classifier's
// seconds over the rest of the pass; the median over the passes (each
// pass's times summed over the scenarios) is gated at <= 5%. It measures
// the classifier's own time, not what its cache footprint costs the bank,
// because differencing whole passes with and without the classifier
// swung from -4.3% to +10.3% over 10 runs, and read +10.6% for taskset
// when neither pass ran the classifier.
//
// Wall-clock numbers go to stderr; stdout carries only deterministic
// tables. With --out, the gated values go to a bench::Snapshot
// (bench/common.hpp) — the committed BENCH_phase.json at the repo root is
// one. Every deterministic value is exact there: each scenario's words,
// phase, boundary, reuse and sweep counts and its four energies. The
// floors: adaptive beats static on >= 2 scenarios, is within 10% of the
// oracle on >= 2, issues >= 3x fewer full sweeps than naive, and the
// classifier costs <= 5%; the classifier rate is gated at a 20% bound.
// scripts/bench_check.py gates a fresh snapshot against the committed
// one.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/error.hpp"
#include "phase/adaptive.hpp"
#include "phase/classifier.hpp"
#include "phase/scenario.hpp"
#include "trace/phase_mix.hpp"

namespace stcache {
namespace {

constexpr std::size_t kChunk = 1u << 16;  // words per streamed chunk

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Equation-1 energy of one configuration over one span of the stream.
double config_energy(const CacheConfig& cfg,
                     std::span<const std::uint32_t> words,
                     const EnergyModel& model) {
  BankAccumulator bank(std::span<const CacheConfig>(&cfg, 1));
  bank.feed(words);
  return model.evaluate(cfg, bank.stats()[0]).total();
}

// Sum of the timeline's per-phase energies: each phase billed at the
// configuration the policy chose for it.
double timeline_energy(std::span<const PhaseRecord> timeline,
                       std::span<const std::uint32_t> words,
                       const EnergyModel& model) {
  double total = 0.0;
  for (const PhaseRecord& r : timeline) {
    total += config_energy(
        r.config, words.subspan(r.begin, r.end - r.begin), model);
  }
  return total;
}

PhaseAdaptiveTuner run_tuner(std::span<const CacheConfig> configs,
                             const EnergyModel& model,
                             std::span<const std::uint32_t> words,
                             bool distance_mapping) {
  PhaseTunerParams params;
  params.distance_mapping = distance_mapping;
  PhaseAdaptiveTuner tuner(configs, model, params);
  while (!words.empty()) {
    const std::size_t take = std::min(kChunk, words.size());
    tuner.feed(words.first(take));
    words = words.subspan(take);
  }
  return tuner;
}

// One pass of the streaming sweep pipeline over `words`: the 27-config
// oneshot bank and the classifier fed the same chunks. `classifier` is the
// time of the classifier's own feed and finish calls, timed one by one
// inside the pass.
struct PassTime {
  double pass = 0.0;
  double classifier = 0.0;
};

PassTime time_pipeline(std::span<const CacheConfig> configs,
                       std::span<const std::uint32_t> words) {
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  PassTime t;
  const auto t0 = Clock::now();
  BankAccumulator bank(configs, {}, 1);
  PhaseClassifier cls(PhaseClassifier::Params{});
  for (std::size_t i = 0; i < words.size(); i += kChunk) {
    const auto chunk = words.subspan(i, std::min(kChunk, words.size() - i));
    const auto c0 = Clock::now();
    cls.feed(chunk);
    t.classifier += since(c0);
    bank.feed(chunk);
  }
  const auto c0 = Clock::now();
  cls.finish();
  t.classifier += since(c0);
  if (bank.stats().size() != configs.size() || cls.words_seen() != words.size())
    fail("streaming pipeline dropped work");
  t.pass = since(t0);
  return t;
}

struct OverheadSample {
  // Per pass: the classifier's seconds and the rest of the pass's.
  std::vector<double> classifier, rest;
  double classifier_seconds = 0.0;  // best of the passes, classifier alone
};

// `passes` timed pipeline passes; after each, the classifier also runs
// alone over the same chunks for its scan rate.
OverheadSample time_overhead(std::span<const CacheConfig> configs,
                             std::span<const std::uint32_t> words,
                             unsigned passes) {
  OverheadSample s;
  for (unsigned r = 0; r < passes; ++r) {
    const PassTime t = time_pipeline(configs, words);
    s.classifier.push_back(t.classifier);
    s.rest.push_back(t.pass - t.classifier);

    const auto t0 = std::chrono::steady_clock::now();
    PhaseClassifier cls({});
    for (std::size_t i = 0; i < words.size(); i += kChunk)
      cls.feed(words.subspan(i, std::min(kChunk, words.size() - i)));
    cls.finish();
    if (cls.words_seen() != words.size()) fail("classifier dropped words");
    const double cls_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (r == 0 || cls_s < s.classifier_seconds) s.classifier_seconds = cls_s;
  }
  return s;
}

// The median over the passes of the classifier's seconds over the rest of
// the pass.
double median_overhead(const std::vector<double>& classifier,
                       const std::vector<double>& rest) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < classifier.size(); ++i)
    ratios.push_back(classifier[i] / rest[i]);
  std::sort(ratios.begin(), ratios.end());
  const std::size_t n = ratios.size();
  return n % 2 ? ratios[n / 2] : (ratios[n / 2 - 1] + ratios[n / 2]) / 2;
}

int run(int argc, char** argv) {
  // Local flags first (--reps/--out/--scale); everything else goes to the
  // common sweep parser, which exits with usage on anything it does not
  // know.
  unsigned reps = 9;  // timed pipeline passes per scenario
  unsigned scale = 1;
  std::string out;  // the snapshot is written only when --out is given
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 1, ~std::uint32_t{0}, v))
        return 2;
      reps = static_cast<unsigned>(v);
      ++i;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 1, ~std::uint32_t{0}, v))
        return 2;
      scale = static_cast<unsigned>(v);
      ++i;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bench::BenchOptions opts =
      bench::parse_bench_args(static_cast<int>(rest.size()), rest.data());
  (void)opts;
  bench::print_header(
      "Phase-adaptive tuning vs. static Fig. 6 vs. per-phase oracle",
      "Section 1 deployment modes, carried out per ROADMAP item 1");

  const EnergyModel model;
  const std::vector<CacheConfig>& configs = all_configs();

  bench::Snapshot snap("phase_adaptive");
  std::vector<std::string> vs_oracle_names;
  std::vector<double> pass_classifier(reps, 0.0), pass_rest(reps, 0.0);
  double cls_seconds = 0.0;
  std::uint64_t cls_words = 0;
  std::uint64_t naive_sweeps_total = 0, adaptive_sweeps_total = 0;
  unsigned beating_static = 0;

  for (const PhaseScenario& sc : phase_scenarios()) {
    const PhaseMixedStream mix = build_phase_scenario(sc.name, scale);
    const std::span<const std::uint32_t> words(mix.words);
    std::cout << "\n--- " << sc.name << " (" << words.size()
              << " words, " << mix.segments.size()
              << " ground-truth segments) ---\n";

    // Static: one Fig. 6 search over the whole stream.
    BankAccumulator whole(configs);
    whole.feed(words);
    const std::vector<CacheStats> whole_stats = whole.stats();
    TraceEvaluator eval(std::span<const std::uint32_t>{}, model);
    eval.prime_from(configs, whole_stats);
    const SearchResult static_r = tune(eval);
    const double static_energy = static_r.best_energy;

    // Adaptive and naive tuners over the same stream.
    PhaseAdaptiveTuner adaptive = run_tuner(configs, model, words, true);
    const std::vector<PhaseRecord> adaptive_tl = adaptive.finish();
    PhaseAdaptiveTuner naive = run_tuner(configs, model, words, false);
    const std::vector<PhaseRecord> naive_tl = naive.finish();
    const double adaptive_energy = timeline_energy(adaptive_tl, words, model);
    const double naive_energy = timeline_energy(naive_tl, words, model);

    // Oracle: exhaustive best per ground-truth segment.
    double oracle_energy = 0.0;
    for (const PhaseSegment& seg : mix.segments) {
      BankAccumulator bank(configs);
      bank.feed(words.subspan(seg.begin, seg.end - seg.begin));
      TraceEvaluator seg_eval(std::span<const std::uint32_t>{}, model);
      seg_eval.prime_from(configs, bank.stats());
      oracle_energy += tune_exhaustive(seg_eval).best_energy;
    }

    Table table({"policy", "energy", "vs oracle", "full sweeps", "evals"});
    const auto row = [&](const char* name, double energy,
                         std::uint64_t sweeps, std::uint64_t evals) {
      table.add_row({name, fmt_si_energy(energy),
                     fmt_percent(energy / oracle_energy - 1.0, 2),
                     std::to_string(sweeps), std::to_string(evals)});
    };
    std::uint64_t adaptive_evals = 0, naive_evals = 0;
    for (const PhaseRecord& r : adaptive_tl) adaptive_evals += r.configs_examined;
    for (const PhaseRecord& r : naive_tl) naive_evals += r.configs_examined;
    row("static", static_energy, 1, static_r.configs_examined);
    row("adaptive", adaptive_energy, adaptive.sweeps(), adaptive_evals);
    row("naive", naive_energy, naive.sweeps(), naive_evals);
    row("oracle", oracle_energy, mix.segments.size(),
        mix.segments.size() * configs.size());
    table.print(std::cout);
    std::cout << "adaptive vs static: "
              << fmt_percent(adaptive_energy / static_energy - 1.0, 2)
              << "; phases " << adaptive_tl.size() << " (boundaries "
              << adaptive.boundaries() << ", blips " << adaptive.blips()
              << "), reuses " << adaptive.reuses() << ", swept words "
              << adaptive.swept_words() << "/" << words.size() << "\n";

    // Classifier overhead on the streaming sweep pipeline (stderr; the
    // wall clock is not part of the deterministic stdout contract).
    const OverheadSample ovh = time_overhead(configs, words, reps);
    std::cerr << "[phase-bench] " << sc.name << ": classifier overhead "
              << fmt_percent(median_overhead(ovh.classifier, ovh.rest), 2)
              << " (median of " << reps << " passes), classifier alone "
              << fmt(static_cast<double>(words.size()) /
                     ovh.classifier_seconds)
              << " words/s\n";

    for (unsigned r = 0; r < reps; ++r) {
      pass_classifier[r] += ovh.classifier[r];
      pass_rest[r] += ovh.rest[r];
    }
    cls_seconds += ovh.classifier_seconds;
    cls_words += words.size();
    naive_sweeps_total += naive.sweeps();
    adaptive_sweeps_total += adaptive.sweeps();
    if (adaptive_energy < static_energy) ++beating_static;

    const auto exact = [&](const char* key, double value, const char* unit) {
      snap.exact(sc.name + "." + key, value, unit);
    };
    exact("words", static_cast<double>(words.size()), "words");
    exact("phases", static_cast<double>(adaptive_tl.size()), "phases");
    exact("boundaries", static_cast<double>(adaptive.boundaries()),
          "boundaries");
    exact("reuses", static_cast<double>(adaptive.reuses()), "reuses");
    exact("adaptive_sweeps", static_cast<double>(adaptive.sweeps()),
          "sweeps");
    exact("naive_sweeps", static_cast<double>(naive.sweeps()), "sweeps");
    exact("static_energy", static_energy, "J");
    exact("adaptive_energy", adaptive_energy, "J");
    exact("naive_energy", naive_energy, "J");
    exact("oracle_energy", oracle_energy, "J");
    exact("adaptive_vs_oracle", adaptive_energy / oracle_energy - 1.0,
          "frac");
    vs_oracle_names.push_back(sc.name + ".adaptive_vs_oracle");
  }

  const double overall_overhead =
      median_overhead(pass_classifier, pass_rest);
  const double sweep_ratio =
      static_cast<double>(naive_sweeps_total) /
      static_cast<double>(adaptive_sweeps_total);
  std::cout << "\nOverall: distance mapping issued "
            << std::to_string(adaptive_sweeps_total) << " full sweeps where "
            << "naive per-phase re-tuning issued "
            << std::to_string(naive_sweeps_total) << " ("
            << fmt_double(sweep_ratio, 2) << "x fewer); adaptive beat the "
            << "static Fig. 6 config on " << beating_static << "/"
            << phase_scenarios().size() << " scenarios.\n";
  std::cerr << "[phase-bench] overall classifier overhead "
            << fmt_percent(overall_overhead, 2) << " (median of " << reps
            << " passes); classifier "
            << fmt(static_cast<double>(cls_words) / cls_seconds)
            << " words/s\n";

  snap.exact("scenarios_beating_static", beating_static, "scenarios");
  snap.exact("sweep_ratio", sweep_ratio, "x");
  snap.ratio("overhead", overall_overhead, "frac", "lower");
  snap.rate("classifier.words_per_second",
            static_cast<double>(cls_words) / cls_seconds, "words/s");
  snap.floor({.metrics = {"scenarios_beating_static"}, .op = "min",
              .limit = 2.0});
  snap.floor({.metrics = vs_oracle_names, .op = "max", .limit = 0.10,
              .at_least = 2});
  snap.floor({.metrics = {"sweep_ratio"}, .op = "min", .limit = 3.0});
  snap.floor({.metrics = {"overhead"}, .op = "max", .limit = 0.05});
  return snap.write(out) ? 0 : 1;
}

}  // namespace
}  // namespace stcache

int main(int argc, char** argv) { return stcache::run(argc, argv); }
