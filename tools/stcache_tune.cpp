// stcache_tune — run the paper's tuning heuristic on a saved trace or on a
// workload captured in-process.
//
//   stcache_tune <file.stct> [I|D] [options]
//   stcache_tune --workload NAME [I|D] [options]
//   stcache_tune --phases SCENARIO [--naive] [--scale N] [options]
//
// options: [--exhaustive] [--space embedded|desktop] [--sweep-jobs N]
//          [--metrics-out file.json] [--metrics]
//
// Both modes tune the selected stream's cache (instruction by default)
// with the Figure 6 heuristic and print the decision; with --exhaustive
// the 27-point optimum and the heuristic's gap are printed as well. The
// file mode streams the trace through PackedTraceReader (64 Ki-record
// chunks read into one reused buffer and decoded into reused packed
// streams); the workload mode never touches disk: the fast interpreter
// runs on a capture thread and publishes packed chunks. Either way, each
// chunk is folded straight into one bank as it arrives (the 27 platform
// configs, or --space's geometries), so capture (or decoding) overlaps the
// sweep and a trace far larger than memory runs in a bounded footprint.
// The heuristic reads the same 27-config bank as --exhaustive: its walk
// looks up the 5-8 configs it visits, and its "configs examined" and
// Visited chain count the walk's steps, not what was measured. Stdout is
// byte-identical across file/workload modes and --sweep-jobs values for
// the same trace (--sweep-jobs runs the bank's line-size groups on
// threads, each group's result its serial result; see trace/replay.hpp).
// The default is the host's cores, clamped to the group count (3 for the
// platform bank, 4 for a scaled space): unlike the benches' --jobs pools
// and the daemon's workers, which keep the library's serial default, one
// tune is one sweep job, so no outer pool composes with the bank's
// threads. --sweep-jobs 1 runs serially.
//
// --phases SCENARIO runs the phase-adaptive tuner (src/phase) on a named
// phase-mixed scenario (squarewave|taskset|datamix, captured
// deterministically in-process) and prints the per-phase tuning timeline:
// each detected phase's word range, whether its configuration was reused
// from a close earlier phase (phase distance mapping) or freshly swept,
// and the Fig. 6 verdict. The composed stream is never built: the tuner is
// fed zero-copy slices of the scenario's captured sources, so memory is
// the sources' 6.4-11.6 MB at any --scale, not 4 B per stream word (the
// process peaks at 12.0-17.5 MB RSS over the three scenarios). --naive
// disables distance mapping (every phase re-sweeps) as the comparison
// baseline; --scale N multiplies every segment length. The timeline
// depends only on bank stats and fixed-offset window signatures, so stdout
// is byte-identical across --sweep-jobs values (repro.sh cmp-gates this).
//
// --space embedded|desktop switches from the paper's 27-point platform to
// a ScaledSpace (64 generic geometries): every configuration is measured
// in one streamed bank pass — one nested stack-distance traversal per
// line-size family — and both the ascending-greedy heuristic and the
// exhaustive optimum are reported from the same measured bank. The
// per-config table prints raw integer hit/miss/writeback counts, so a
// one-bit divergence between --sweep-jobs values breaks the byte-identity
// cmp.
//
// Numeric flags are parsed strictly (whole token, no sign): --scale takes
// a positive integer and --sweep-jobs 1..32; anything else exits 2, as
// does a flag the mode ignores (--naive or --scale without --phases; I, D,
// --exhaustive, --space or --metrics-out with it). Outside --phases, sweep
// metrics go to stderr, and to a JSON file with --metrics-out; the
// informational [sim]/[trace_io] lines appear only under --metrics (or
// STCACHE_METRICS=1).
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "core/report.hpp"
#include "core/scaled_space.hpp"
#include "core/sweep.hpp"
#include "phase/adaptive.hpp"
#include "phase/scenario.hpp"
#include "trace/replay.hpp"
#include "trace/stream.hpp"
#include "trace/trace_io.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

int usage() {
  std::cerr << "usage: stcache_tune <file.stct | --workload NAME | "
               "--phases SCENARIO> [I|D] "
               "[--exhaustive] [--space embedded|desktop] "
               "[--naive] [--scale N] [--sweep-jobs N (default: cores)] "
               "[--metrics-out file.json] [--metrics]\n";
  return 2;
}

// The --space report: a full per-config table (integer counts, so any
// --sweep-jobs divergence is visible to cmp), then the heuristic and
// exhaustive verdicts from the same measured bank.
void print_scaled_report(std::ostream& os, const std::string& space_name,
                         bool instruction, std::uint64_t accesses,
                         const ScaledSpace& space,
                         std::span<const CacheStats> measured,
                         const EnergyModel& model) {
  os << "Scaled-space tuning (" << space_name << ": "
     << space.total_configs() << " configs) of the "
     << (instruction ? "instruction" : "data") << " cache on " << accesses
     << " accesses...\n\n";

  Table table({"configuration", "hits", "misses", "writeback bytes",
               "energy"});
  const std::vector<CacheGeometry>& geoms = space.configs();
  for (std::size_t i = 0; i < geoms.size(); ++i) {
    table.add_row({geometry_name(geoms[i]), std::to_string(measured[i].hits),
                   std::to_string(measured[i].misses),
                   std::to_string(measured[i].writeback_bytes),
                   fmt_si_energy(
                       model.evaluate_generic(geoms[i], measured[i]).total())});
  }
  table.print(os);

  ScaledEvaluator eval(std::span<const std::uint32_t>{}, model);
  eval.prime_from(geoms, measured);
  const ScaledSearchResult heur = tune_scaled(eval, space);
  const ScaledSearchResult ex = tune_scaled_exhaustive(eval, space);
  const double base = eval.energy(geoms.front());

  os << "\n";
  Table verdict({"search", "configuration", "configs examined", "energy",
                 "savings vs " + geometry_name(geoms.front())});
  verdict.add_row(verdict_row("heuristic", geometry_name(heur.best),
                              heur.configs_examined, heur.best_energy, base));
  verdict.add_row(verdict_row("exhaustive", geometry_name(ex.best),
                              ex.configs_examined, ex.best_energy, base));
  verdict.print(os);
  os << "\nHeuristic vs optimum: "
     << (heur.best == ex.best
             ? std::string("found the optimum")
             : fmt_percent(heur.best_energy / ex.best_energy - 1.0, 2) +
                   " above")
     << "\n";
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  // One tune maps one job (below), so no outer pool composes with the
  // bank's threads: by default its line-size groups get the host's cores
  // (clamped to 1..32, then to the group count). --sweep-jobs overrides.
  set_default_sweep_jobs(std::thread::hardware_concurrency());
  std::string path;
  std::string workload_name;
  std::string phases_name;
  bool phases_naive = false;
  unsigned phases_scale = 1;
  std::string space_name;
  bool instruction = true;
  bool exhaustive = false;
  std::string metrics_out;
  // A flag that the selected mode would ignore exits 2: the first flag seen
  // that only --phases reads, and the first one that --phases ignores.
  const char* phases_flag = nullptr;
  const char* stream_flag = nullptr;
  int i = 1;
  if (argv[1][0] != '-') {
    path = argv[1];
    i = 2;
  }
  for (; i < argc; ++i) {
    const char* flag = argv[i];
    const auto is = [flag](const char* name) {
      return std::strcmp(flag, name) == 0;
    };
    std::uint64_t v = 0;
    if (is("D")) instruction = false;
    else if (is("I")) instruction = true;
    else if (is("--exhaustive")) exhaustive = true;
    else if (is("--metrics")) set_metrics_enabled(true);
    else if (is("--workload") && i + 1 < argc)
      workload_name = argv[++i];
    else if (is("--phases") && i + 1 < argc)
      phases_name = argv[++i];
    else if (is("--naive"))
      phases_naive = true;
    else if (is("--scale") && i + 1 < argc) {
      if (!parse_flag_u64(flag, argv[i + 1], 1, ~std::uint32_t{0}, v))
        return 2;
      phases_scale = static_cast<unsigned>(v);
      ++i;
    } else if (is("--space") && i + 1 < argc)
      space_name = argv[++i];
    else if (is("--sweep-jobs") && i + 1 < argc) {
      if (!parse_flag_u64(flag, argv[i + 1], 1, 32, v)) return 2;
      set_default_sweep_jobs(static_cast<unsigned>(v));
      ++i;
    } else if (is("--metrics-out") && i + 1 < argc)
      metrics_out = argv[++i];
    else {
      std::cerr << "unknown argument: " << flag << "\n";
      return 2;
    }
    if (!phases_flag && (is("--naive") || is("--scale"))) phases_flag = flag;
    if (!stream_flag && (is("I") || is("D") || is("--exhaustive") ||
                         is("--space") || is("--metrics-out")))
      stream_flag = flag;
  }
  if (!phases_name.empty()) {
    // Scenario mode stands alone: it builds its stream in-process.
    if (!path.empty() || !workload_name.empty()) return usage();
    if (stream_flag) {
      std::cerr << stream_flag << " does not apply to --phases\n";
      return 2;
    }
  } else if (path.empty() == workload_name.empty()) {
    return usage();  // exactly one of file / --workload
  } else if (phases_flag) {
    std::cerr << phases_flag << " applies only to --phases\n";
    return 2;
  }
  if (!space_name.empty() && space_name != "embedded" &&
      space_name != "desktop") {
    std::cerr << "unknown space '" << space_name
              << "' (expected embedded|desktop)\n";
    return 2;
  }

  const EnergyModel model;
  const std::vector<CacheConfig>& configs = all_configs();

  if (!phases_name.empty()) {
    const PhaseScenarioStream stream(phases_name, phases_scale);
    const PhaseScenario& sc = stream.scenario();
    PhaseTunerParams params;
    params.distance_mapping = !phases_naive;
    PhaseAdaptiveTuner tuner(configs, model, params);
    // Feed the scenario as borrowed slices of its sources; the timeline is
    // invariant to the slicing (tests/phase_test.cpp).
    stream.for_each_slice(
        [&](std::span<const std::uint32_t> words) { tuner.feed(words); });
    const std::vector<PhaseRecord> timeline = tuner.finish();
    const std::uint64_t words = stream.total_words();
    std::cout << "Phase-adaptive tuning on scenario '" << sc.name << "' ("
              << (sc.instruction ? "I" : "D") << " stream, " << words
              << " words, " << stream.planned_segments()
              << " planned segments"
              << (phases_naive ? ", naive re-tuning" : "") << ")...\n\n";
    print_phase_timeline(std::cout, timeline);
    std::cout << "\nPhases: " << timeline.size() << "; boundaries "
              << tuner.boundaries() << "; blips " << tuner.blips()
              << "; sweeps " << tuner.sweeps() << "; reuses "
              << tuner.reuses() << "; swept words " << tuner.swept_words()
              << "/" << words << "\n";
    return 0;
  }

  // Each mode maps one job, so the runner only times it and counts its
  // accesses; --sweep-jobs is what threads the bank inside that job.
  SweepRunner runner(SweepOptions{1});
  // --space replaces the platform bank with its own geometry bank.
  std::optional<ScaledSpace> space;
  if (!space_name.empty()) {
    space.emplace(space_name == "embedded" ? ScaledSpace::embedded_32k()
                                           : ScaledSpace::desktop_64k());
  }

  // The selected stream, packed (bit 31 = write, bits 30..0 = 16 B block),
  // chunk by chunk from the capture thread or the file reader. No
  // TraceRecord AoS is ever built in any mode.
  const Workload* workload =
      workload_name.empty() ? nullptr : &find_workload(workload_name);
  std::optional<PackedTraceReader> reader;
  if (!workload) reader.emplace(path);
  const auto for_each_chunk = [&](auto&& consume) {
    if (workload) {
      stream_workload(*workload, [&](const PackedChunk& chunk) {
        consume(instruction ? chunk.ifetch_words() : chunk.data_words());
      });
    } else {
      PackedSplitTrace chunk;
      while (reader->read_chunk(chunk)) {
        consume(instruction ? chunk.ifetch : chunk.data);
        chunk.ifetch.clear();
        chunk.data.clear();
      }
    }
  };

  // Every mode folds each chunk into its bank as it arrives (one sweep job,
  // overlapping the producer), so the stream is never materialized and only
  // its record count survives for the report. The modes differ only in the
  // bank: the 27 platform configs, which hold every config the Fig. 6 walk
  // and the exhaustive search can visit, or the space's geometries.
  std::uint64_t sel_count = 0;
  const std::vector<CacheStats> measured =
      runner
          .map<std::vector<CacheStats>>(
              1,
              [&](std::size_t) {
                BankAccumulator bank = space
                                           ? BankAccumulator(space->configs())
                                           : BankAccumulator(configs);
                for_each_chunk([&](std::span<const std::uint32_t> words) {
                  bank.feed(words);
                });
                sel_count = bank.words_fed();
                std::vector<CacheStats> stats = bank.stats();
                runner.add_accesses(sel_count * stats.size());
                return stats;
              },
              [&](std::size_t) {
                return (workload ? workload_name : path) + ": " +
                       (space ? space_name + " space" : "platform") +
                       " streamed sweep";
              })
          .front();

  if (sel_count == 0) {
    std::cerr << "error: the selected stream is empty\n";
    return 1;
  }

  runner.print_metrics(std::cerr);
  runner.write_metrics_json(metrics_out);
  // The measured bank covers every configuration either search visits, so
  // the renderers replay nothing, and stdout depends only on the measured
  // counts, which are bit-identical across thread counts. The walk's
  // "configs examined" and Visited chain come from the walk itself, not
  // from how much was measured. stcache_tunec renders the daemon's VERDICT
  // through print_exhaustive_report, the --exhaustive case of this render,
  // byte-identically.
  if (space) {
    print_scaled_report(std::cout, space_name, instruction, sel_count, *space,
                        measured, model);
    return 0;
  }
  TraceEvaluator eval(std::span<const std::uint32_t>{}, model);
  eval.prime_from(configs, measured);
  print_verdict(std::cout, instruction, sel_count, eval, exhaustive);
  return 0;
}

}  // namespace
}  // namespace stcache

int main(int argc, char** argv) {
  try {
    return stcache::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return 1;
  }
}
