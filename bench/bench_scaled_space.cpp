// Heuristic accuracy on larger caches (the paper's Section 3.4/5 future
// work, carried out) + throughput of the generalized oneshot sweep.
//
// Usage: bench_scaled_space [--reps N] [--out file.json]
//                           [common sweep flags: --jobs N --sweep-jobs N
//                            --metrics-out file.json]
//
// Accuracy section: the 27-point platform space of the paper is small
// enough that greedy search rarely strays far. Does the heuristic stay
// accurate when the space grows? We run it against 64-point spaces
// (4-32 KB and 8-64 KB, up to 8-way, 16-128 B lines) on every benchmark
// stream and report, per space: evaluations used, how often the heuristic
// finds the optimum, and the distribution of its energy gap. The
// exhaustive baseline is measured as one bank pass per stream
// (tune_scaled_exhaustive -> ScaledEvaluator::prime), which covers each
// line-size family with a single generalized nested stack-distance
// traversal (NestedSweepSim); --sweep-jobs runs the four families on up
// to four threads, exactly as the platform bank runs its three. Accuracy
// tables are byte-identical across --sweep-jobs values.
//
// Throughput section: for each workload and stream, the full 64-config
// embedded_32k sweep timed under (a) the generalized oneshot bank — one
// traversal per line-size family — and (b) one FastGeomSim per geometry,
// best of --reps, equality-asserted before timing. The per-workload
// oneshot/fast speedup is an acceptance metric (>= 5x on >= 2 workloads,
// gated by scripts/bench_check.py via the --out JSON, default
// BENCH_scaled.json; the committed snapshot at the repo root is the
// baseline it compares against).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>

#include "common.hpp"
#include "cache/nested_sweep.hpp"
#include "core/scaled_space.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace stcache {
namespace {

void run_space(const char* label, const ScaledSpace& space,
               const EnergyModel& model, SweepRunner& runner) {
  std::cout << "\n--- " << label << " (" << space.total_configs()
            << " configurations) ---\n";
  Table table({"Ben.", "stream", "heuristic", "evals", "optimal", "gap"});

  // One sweep job per (workload, stream): the job tunes heuristically and
  // exhaustively on its own memoized evaluator (the exhaustive pass primes
  // the whole space through one bank pass). Results come
  // back keyed by index, so the reduction below runs in the serial
  // program's order.
  const std::vector<std::string> names = bench::workload_names();
  const auto& traces = bench::all_split_traces();  // capture before timing
  struct JobResult {
    ScaledSearchResult heur;
    ScaledSearchResult ex;
  };
  const std::vector<JobResult> results = runner.map<JobResult>(
      names.size() * 2, [&](std::size_t j) {
        const SplitTrace& split = traces.at(names[j / 2]);
        const bool instruction = (j % 2) == 0;
        const Trace& stream = instruction ? split.ifetch : split.data;
        ScaledEvaluator eval(stream, model);
        JobResult r;
        r.heur = tune_scaled(eval, space);
        r.ex = tune_scaled_exhaustive(eval, space);
        runner.add_accesses(static_cast<std::uint64_t>(eval.evaluations()) *
                            stream.size());
        return r;
      });

  unsigned exact = 0, total = 0;
  RunningStats gaps, evals;
  for (std::size_t j = 0; j < results.size(); ++j) {
    const bool instruction = (j % 2) == 0;
    const ScaledSearchResult& heur = results[j].heur;
    const ScaledSearchResult& ex = results[j].ex;
    const double gap = heur.best_energy / ex.best_energy - 1.0;
    if (heur.best == ex.best) ++exact;
    ++total;
    gaps.add(gap);
    evals.add(heur.configs_examined);
    table.add_row({names[j / 2], instruction ? "I" : "D",
                   geometry_name(heur.best),
                   std::to_string(heur.configs_examined),
                   geometry_name(ex.best), fmt_percent(gap, 1)});
  }
  table.print(std::cout);
  std::cout << "Optimum found: " << exact << "/" << total
            << "; avg evaluations " << fmt_double(evals.mean(), 1) << "/"
            << space.total_configs() << "; gap mean "
            << fmt_percent(gaps.mean(), 1) << ", max "
            << fmt_percent(gaps.max(), 1) << "\n";
}

// --- throughput: generalized oneshot bank vs per-config fast sims ---------

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// The two sweeps of a packed stream over a geometry list: the production
// bank (serial, so the ratio compares kernels, not thread counts) and one
// FastGeomSim per geometry.
std::vector<CacheStats> oneshot_sweep(std::span<const CacheGeometry> geoms,
                                      std::span<const std::uint32_t> packed) {
  return measure_geometry_bank(geoms, packed, {}, 1);
}

std::vector<CacheStats> fast_sweep(std::span<const CacheGeometry> geoms,
                                   std::span<const std::uint32_t> packed) {
  std::vector<FastGeomSim> sims(geoms.begin(), geoms.end());
  std::vector<CacheStats> stats;
  for (FastGeomSim& sim : sims) {
    sim.replay(packed);
    stats.push_back(sim.stats());
  }
  return stats;
}

// Seconds for one full-space sweep, best of `reps`: construction + replay
// + stats.
template <typename Sweep>
double time_space_bank(std::span<const CacheGeometry> geoms,
                       std::span<const std::uint32_t> packed, unsigned reps,
                       Sweep&& sweep) {
  double best = 0.0;
  for (unsigned r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<CacheStats> stats = sweep(geoms, packed);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (stats.size() != geoms.size()) fail("scaled bank dropped configs");
    if (r == 0 || elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

// The two timed sweeps must agree before their rates mean anything.
void check_sweeps_agree(std::span<const CacheGeometry> geoms,
                        std::span<const std::uint32_t> packed,
                        const std::string& where) {
  const std::vector<CacheStats> a = oneshot_sweep(geoms, packed);
  const std::vector<CacheStats> b = fast_sweep(geoms, packed);
  for (std::size_t i = 0; i < geoms.size(); ++i) {
    if (a[i] != b[i]) {
      fail("scaled sweeps disagree on " + where + " at " +
           geometry_name(geoms[i]));
    }
  }
}

int run(int argc, char** argv) {
  // Local flags first (--reps/--out); everything else goes to the common
  // sweep parser, which exits with usage on anything it does not know.
  unsigned reps = 3;
  std::string out = "BENCH_scaled.json";
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out = argv[++i];
    else
      rest.push_back(argv[i]);
  }
  const bench::BenchOptions opts = bench::parse_bench_args(
      static_cast<int>(rest.size()), rest.data());
  bench::print_header(
      "Heuristic accuracy on larger configuration spaces (future-work "
      "analysis)",
      "Section 3.4 scaling discussion / Section 5 future work");

  const EnergyModel model;
  SweepRunner runner(opts.sweep);
  run_space("embedded 4-32 KB space", ScaledSpace::embedded_32k(), model,
            runner);
  run_space("desktop-ish 8-64 KB space", ScaledSpace::desktop_64k(), model,
            runner);

  std::cout << "\nConclusion for the paper's open question: the greedy\n"
            << "heuristic keeps its ~order-of-magnitude search reduction on\n"
            << "64-point spaces; its accuracy profile matches the 27-point\n"
            << "space (mostly optimal, with the occasional size/assoc\n"
            << "coupling miss).\n";

  // --- throughput: one traversal per line-size family vs 64 traversals ------
  const ScaledSpace space = ScaledSpace::embedded_32k();
  const std::vector<std::string> workload_set = {"crc", "bcnt", "ucbqsort"};
  const auto& traces = bench::all_split_traces();
  Table tp_table({"workload", "stream", "records", "fast rec/s",
                  "oneshot rec/s", "oneshot/fast"});
  std::string json = "{\n  \"reps\": " + std::to_string(reps) +
                     ",\n  \"space\": \"embedded_32k\", \"configs\": " +
                     std::to_string(space.total_configs()) +
                     ",\n  \"workloads\": [\n";
  double fast_total = 0.0, oneshot_total = 0.0;
  std::uint64_t total_records = 0;
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    const SplitTrace& split = traces.at(workload_set[wi]);
    double w_fast = 0.0, w_oneshot = 0.0;
    std::string stream_json;
    for (const bool instruction : {true, false}) {
      const Trace& stream = instruction ? split.ifetch : split.data;
      std::vector<std::uint32_t> packed;
      pack_stream(stream, packed);
      const std::string where =
          workload_set[wi] + (instruction ? " I" : " D");
      check_sweeps_agree(space.configs(), packed, where);
      const double fast_s =
          time_space_bank(space.configs(), packed, reps, fast_sweep);
      const double oneshot_s =
          time_space_bank(space.configs(), packed, reps, oneshot_sweep);
      const double recs = static_cast<double>(packed.size()) *
                          static_cast<double>(space.total_configs());
      tp_table.add_row({workload_set[wi], instruction ? "I" : "D",
                        std::to_string(packed.size()), fmt(recs / fast_s),
                        fmt(recs / oneshot_s), fmt(fast_s / oneshot_s)});
      w_fast += fast_s;
      w_oneshot += oneshot_s;
      total_records += packed.size() * space.total_configs();
      if (!stream_json.empty()) stream_json += ",\n";
      stream_json += "        {\"stream\": \"" +
                     std::string(instruction ? "I" : "D") +
                     "\", \"records\": " + std::to_string(packed.size()) +
                     ", \"fast_seconds\": " + fmt(fast_s) +
                     ", \"oneshot_seconds\": " + fmt(oneshot_s) +
                     ", \"speedup\": " + fmt(fast_s / oneshot_s) + "}";
    }
    fast_total += w_fast;
    oneshot_total += w_oneshot;
    json += "    {\"name\": \"" + workload_set[wi] +
            "\", \"fast_seconds\": " + fmt(w_fast) +
            ", \"oneshot_seconds\": " + fmt(w_oneshot) +
            ", \"speedup\": " + fmt(w_fast / w_oneshot) +
            ",\n     \"streams\": [\n" + stream_json + "\n     ]}" +
            (wi + 1 < workload_set.size() ? ",\n" : "\n");
  }
  // Measured rates are wall-clock, so they go to stderr: stdout must stay
  // byte-identical across --jobs/--sweep-jobs (the ✦ cmp contract). The JSON
  // snapshot in --out carries the same numbers for bench_check.py.
  const double recs_d = static_cast<double>(total_records);
  std::cerr << "\n--- generalized oneshot sweep vs per-config fast sims "
            << "(embedded_32k, " << space.total_configs()
            << " configs) ---\n";
  tp_table.print(std::cerr);
  std::cerr << "\nFull-space sweep: oneshot vs per-config fast "
            << fmt(fast_total / oneshot_total) << "x\n";

  json += "  ],\n  \"overall\": {\"fast_seconds\": " + fmt(fast_total) +
          ", \"oneshot_seconds\": " + fmt(oneshot_total) +
          ", \"oneshot_records_per_second\": " + fmt(recs_d / oneshot_total) +
          ", \"speedup\": " + fmt(fast_total / oneshot_total) + "}\n}\n";
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) {
      std::cerr << "error: cannot write '" << out << "'\n";
      return 1;
    }
    os << json;
  }

  bench::finish_sweep(runner, opts);
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
  }
}
