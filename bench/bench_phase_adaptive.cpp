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
// The classifier-overhead section times the streaming full-space sweep
// pipeline (27-config bank fed chunk by chunk) with and without
// the classifier attached, best of --reps per scenario, and reports the
// paired slowdown. The classifier shares the pipeline's memory traffic,
// so its marginal cost is compute only — the PR gate is overhead <= 5%
// overall (scripts/bench_check.py --mode phase, with the energy-vs-oracle
// and sweep-reduction floors, on the --out JSON; default BENCH_phase.json,
// committed snapshot from this repo's development container). Wall-clock
// numbers go to stderr; stdout carries only deterministic tables.
#include <chrono>
#include <cstring>
#include <fstream>
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

struct OverheadSample {
  double bank_seconds = 0.0;      // best-of-reps, bank alone
  double combined_seconds = 0.0;  // best-of-reps, bank + classifier
  double classifier_seconds = 0.0;  // best-of-reps, classifier alone
};

// Paired streaming-pipeline timing: per rep, the 27-config oneshot bank
// alone, then bank + classifier on the same chunking, then the classifier
// alone. Best-of-reps per leg (the repo's timing convention); pairing the
// legs inside one rep keeps container noise from landing on only one side.
OverheadSample time_overhead(std::span<const CacheConfig> configs,
                             std::span<const std::uint32_t> words,
                             unsigned reps) {
  OverheadSample s;
  for (unsigned r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      BankAccumulator bank(configs, {}, 1);
      for (std::size_t i = 0; i < words.size(); i += kChunk)
        bank.feed(words.subspan(i, std::min(kChunk, words.size() - i)));
      if (bank.stats().size() != configs.size()) fail("bank dropped configs");
    }
    const auto t1 = std::chrono::steady_clock::now();
    {
      BankAccumulator bank(configs, {}, 1);
      PhaseClassifier cls({});
      for (std::size_t i = 0; i < words.size(); i += kChunk) {
        const auto chunk = words.subspan(i, std::min(kChunk, words.size() - i));
        cls.feed(chunk);
        bank.feed(chunk);
      }
      cls.finish();
      if (bank.stats().size() != configs.size() ||
          cls.words_seen() != words.size())
        fail("combined pipeline dropped work");
    }
    const auto t2 = std::chrono::steady_clock::now();
    {
      PhaseClassifier cls({});
      for (std::size_t i = 0; i < words.size(); i += kChunk)
        cls.feed(words.subspan(i, std::min(kChunk, words.size() - i)));
      cls.finish();
      if (cls.words_seen() != words.size()) fail("classifier dropped words");
    }
    const auto t3 = std::chrono::steady_clock::now();
    const double bank_s = std::chrono::duration<double>(t1 - t0).count();
    const double both_s = std::chrono::duration<double>(t2 - t1).count();
    const double cls_s = std::chrono::duration<double>(t3 - t2).count();
    if (r == 0 || bank_s < s.bank_seconds) s.bank_seconds = bank_s;
    if (r == 0 || both_s < s.combined_seconds) s.combined_seconds = both_s;
    if (r == 0 || cls_s < s.classifier_seconds) s.classifier_seconds = cls_s;
  }
  return s;
}

int run(int argc, char** argv) {
  // Local flags first (--reps/--out/--scale); everything else goes to the
  // common sweep parser, which exits with usage on anything it does not
  // know.
  unsigned reps = 5;
  unsigned scale = 1;
  std::string out = "BENCH_phase.json";
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

  std::string scenarios_json;
  double overhead_bank = 0.0, overhead_combined = 0.0;
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
    const double overhead =
        ovh.combined_seconds / ovh.bank_seconds - 1.0;
    std::cerr << "[phase-bench] " << sc.name << ": bank "
              << fmt(ovh.bank_seconds) << "s, +classifier "
              << fmt(ovh.combined_seconds) << "s (overhead "
              << fmt_percent(overhead, 2) << "), classifier alone "
              << fmt(static_cast<double>(words.size()) /
                     ovh.classifier_seconds)
              << " words/s\n";

    overhead_bank += ovh.bank_seconds;
    overhead_combined += ovh.combined_seconds;
    cls_seconds += ovh.classifier_seconds;
    cls_words += words.size();
    naive_sweeps_total += naive.sweeps();
    adaptive_sweeps_total += adaptive.sweeps();
    if (adaptive_energy < static_energy) ++beating_static;

    if (!scenarios_json.empty()) scenarios_json += ",\n";
    scenarios_json +=
        "    {\"name\": \"" + sc.name + "\", \"words\": " +
        std::to_string(words.size()) + ", \"segments\": " +
        std::to_string(mix.segments.size()) + ",\n     \"phases\": " +
        std::to_string(adaptive_tl.size()) + ", \"boundaries\": " +
        std::to_string(adaptive.boundaries()) + ", \"reuses\": " +
        std::to_string(adaptive.reuses()) + ", \"adaptive_sweeps\": " +
        std::to_string(adaptive.sweeps()) + ", \"naive_sweeps\": " +
        std::to_string(naive.sweeps()) + ",\n     \"static_energy\": " +
        fmt(static_energy) + ", \"adaptive_energy\": " +
        fmt(adaptive_energy) + ", \"naive_energy\": " + fmt(naive_energy) +
        ", \"oracle_energy\": " + fmt(oracle_energy) +
        ",\n     \"adaptive_vs_static\": " +
        fmt(adaptive_energy / static_energy - 1.0) +
        ", \"adaptive_vs_oracle\": " +
        fmt(adaptive_energy / oracle_energy - 1.0) +
        ",\n     \"bank_seconds\": " + fmt(ovh.bank_seconds) +
        ", \"combined_seconds\": " + fmt(ovh.combined_seconds) +
        ", \"overhead\": " + fmt(overhead) + "}";
  }

  const double overall_overhead = overhead_combined / overhead_bank - 1.0;
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
            << fmt_percent(overall_overhead, 2) << "; classifier "
            << fmt(static_cast<double>(cls_words) / cls_seconds)
            << " words/s\n";

  const std::string json =
      "{\n  \"bench\": \"phase_adaptive\", \"scale\": " +
      std::to_string(scale) + ", \"reps\": " + std::to_string(reps) +
      ", \"configs\": " + std::to_string(configs.size()) +
      ",\n  \"scenarios\": [\n" + scenarios_json + "\n  ],\n" +
      "  \"overall\": {\"naive_sweeps\": " +
      std::to_string(naive_sweeps_total) + ", \"adaptive_sweeps\": " +
      std::to_string(adaptive_sweeps_total) + ", \"sweep_ratio\": " +
      fmt(sweep_ratio) + ",\n    \"scenarios_beating_static\": " +
      std::to_string(beating_static) + ", \"overhead\": " +
      fmt(overall_overhead) + ",\n    \"classifier_words_per_second\": " +
      fmt(static_cast<double>(cls_words) / cls_seconds) + "}\n}\n";
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) {
      std::cerr << "error: cannot write '" << out << "'\n";
      return 1;
    }
    os << json;
  }
  return 0;
}

}  // namespace
}  // namespace stcache

int main(int argc, char** argv) { return stcache::run(argc, argv); }
