// Phase-adaptive tuning with phase-distance config reuse.
//
// Section 1 of the paper lists "whenever a program phase change is
// detected" among the ways the self-tuning hardware can be deployed. The
// phase subsystem (src/phase/, docs/phases.md) carries that out on long
// phase-mixed streams: a streaming classifier folds working-set
// signatures over the packed stream into phase boundaries, and a phase
// table maps each new phase's signature onto previously tuned phases —
// a phase within the reuse threshold of a tuned one *reuses* that
// phase's configuration instead of paying for a fresh Fig. 6 sweep
// (phase distance mapping, Adegbija/Gordon-Ross/Munir).
//
// This example runs the phase-adaptive tuner over one of the canned
// phase-mixed scenarios (src/phase/scenario.hpp), prints the per-phase
// tuning timeline, and then repeats the run with distance mapping
// disabled — the naive tuner that re-sweeps every phase — to show how
// much search work the phase table saves on recurring phases.
//
// Build & run:  ./build/examples/example_phase_adaptive [SCENARIO] [SCALE]
//               (scenarios: squarewave | taskset | datamix; SCALE is an
//               integer in 1..4294967295, default 1; a bad SCALE exits 2
//               with usage, an unknown scenario exits 1)
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "energy/energy_model.hpp"
#include "phase/adaptive.hpp"
#include "phase/scenario.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace stcache;

namespace {

int usage() {
  std::cerr << "usage: example_phase_adaptive [squarewave|taskset|datamix] "
               "[SCALE]\n";
  return 2;
}

int run(int argc, char** argv) {
  if (argc > 3) return usage();
  const std::string name = argc > 1 ? argv[1] : "squarewave";
  std::uint64_t scale = 1;
  if (argc > 2 && (!parse_u64(argv[2], scale) || scale == 0 ||
                   scale > ~std::uint32_t{0}))
    return usage();
  const PhaseScenarioStream stream(name, static_cast<unsigned>(scale));
  const PhaseScenario& sc = stream.scenario();
  std::cout << "Scenario: " << sc.name << " — " << sc.description << "\n";
  std::cout << "Stream: " << stream.total_words() << " packed words, "
            << stream.planned_segments() << " ground-truth segments\n\n";

  const EnergyModel model;
  const std::vector<CacheConfig>& configs = all_configs();

  // Feed the scenario slice by slice, straight from its captured sources,
  // the way a deployment rides a live stream; the timeline is invariant to
  // the slicing.
  const auto feed = [&](PhaseAdaptiveTuner& tuner) {
    stream.for_each_slice(
        [&](std::span<const std::uint32_t> words) { tuner.feed(words); });
  };

  PhaseTunerParams params;
  PhaseAdaptiveTuner adaptive(configs, model, params);
  feed(adaptive);
  const std::vector<PhaseRecord> timeline = adaptive.finish();
  print_phase_timeline(std::cout, timeline);
  std::cout << "\nPhase-adaptive: " << timeline.size() << " phases, "
            << adaptive.sweeps() << " full sweeps, " << adaptive.reuses()
            << " config reuses (" << adaptive.swept_words() << "/"
            << adaptive.words_seen() << " words swept)\n";

  params.distance_mapping = false;
  PhaseAdaptiveTuner naive(configs, model, params);
  feed(naive);
  const std::vector<PhaseRecord> naive_timeline = naive.finish();
  std::cout << "Naive re-tuning: " << naive_timeline.size() << " phases, "
            << naive.sweeps() << " full sweeps (" << naive.swept_words()
            << " words swept)\n";

  if (adaptive.sweeps() == 0 || naive.sweeps() <= adaptive.sweeps()) {
    std::cerr << "expected distance mapping to save sweeps\n";
    return 1;
  }
  const double ratio = static_cast<double>(naive.sweeps()) /
                       static_cast<double>(adaptive.sweeps());
  std::cout << "\nDistance mapping issued " << fmt_double(ratio, 1)
            << "x fewer full sweeps than naive per-phase re-tuning;\n"
            << "every reused phase skipped a " << configs.size()
            << "-configuration search entirely.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return 1;
  }
}
