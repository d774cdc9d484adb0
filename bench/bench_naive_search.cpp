// The naive approach vs. the heuristic (Section 3.1).
//
// The paper motivates the heuristic by dismantling the naive alternative:
// exhaustively trying all 27 configurations in arbitrary order, flushing
// the cache between configurations to guarantee correctness. This harness
// quantifies all three costs of the naive search against the heuristic,
// per benchmark data stream:
//
//   * configurations examined (27 vs. ~5),
//   * cache flushes and the dirty write-back energy they force,
//   * total energy consumed DURING the search phase itself (the
//     application runs in mostly-wrong configurations for much longer).
//
// This harness walks ONE warm ConfigurableCache through flush+reconfigure
// cycles — the mid-stream reconfiguration cost is the thing being
// measured — so it is inherently a reference-model experiment: the cold
// fixed-config fast/oneshot replay engines do not apply here (see
// docs/performance.md on engine scope).
#include <iostream>

#include "common.hpp"
#include "cache/configurable_cache.hpp"
#include "util/stats.hpp"

namespace stcache {
namespace {

struct SearchPhaseCost {
  unsigned configs = 0;
  std::uint64_t flush_writebacks = 0;
  double energy = 0.0;  // Equation 1 over the whole search phase
  CacheConfig chosen;
};

// Naive: walk all 27 configurations in registry order, running one slice
// of the stream under each, flushing between configurations.
SearchPhaseCost naive_search(std::span<const TraceRecord> stream,
                             const EnergyModel& model) {
  SearchPhaseCost out;
  ConfigurableCache cache(all_configs().front());
  const std::size_t slice = stream.size() / all_configs().size();
  auto measure = [&](const CacheConfig& cfg) {
    if (out.configs > 0) {
      out.flush_writebacks += cache.flush();  // "to ensure correct behavior"
      cache.reconfigure(cfg);
    }
    const CacheStats before = cache.stats();
    const std::size_t begin = out.configs * slice;
    for (std::size_t i = begin; i < begin + slice; ++i) {
      cache.access(stream[i].addr, stream[i].kind == AccessKind::kWrite);
    }
    ++out.configs;
    const CacheStats delta = cache.stats() - before;
    const double e = model.evaluate(cfg, delta).total();
    out.energy += e;
    return e;
  };
  out.chosen = exhaustive_scan(platform_space(), measure).best;
  return out;
}

// Heuristic: the flush-free ascending walk over the same stream, slices
// consumed as measurement intervals.
SearchPhaseCost heuristic_search(std::span<const TraceRecord> stream,
                                 const EnergyModel& model) {
  SearchPhaseCost out;
  ConfigurableCache cache(CacheConfig::parse("2K_1W_16B"));
  const std::size_t slice = stream.size() / 27;  // same interval length
  std::size_t cursor = 0;

  auto measure = [&](const CacheConfig& cfg) {
    out.flush_writebacks += cache.reconfigure(cfg);  // flushless (counted anyway)
    const CacheStats before = cache.stats();
    for (std::size_t i = 0; i < slice; ++i) {
      const TraceRecord& r = stream[cursor];
      cache.access(r.addr, r.kind == AccessKind::kWrite);
      cursor = (cursor + 1) % stream.size();
    }
    ++out.configs;
    const CacheStats delta = cache.stats() - before;
    const double e = model.evaluate(cfg, delta).total();
    out.energy += e;
    return e;
  };
  out.chosen = greedy_walk(platform_space(), measure).best;
  return out;
}

int run(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv);
  bench::print_header(
      "The naive exhaustive-with-flush search vs. the heuristic: search "
      "length, forced flush write-backs, and search-phase energy",
      "Section 3.1 (problem overview)");

  const EnergyModel model;
  Table table({"Ben.", "naive cfgs", "heur cfgs", "naive flush WBs",
               "heur reconf WBs", "naive energy", "heur energy"});

  // Both searches on one benchmark are inherently sequential (each slice
  // runs on the state the previous one left behind), so the sweep shards
  // one job per workload; results are keyed by index and reduced in
  // Table 1 order below.
  const std::vector<std::string> names = bench::workload_names();
  const auto& traces = bench::all_split_traces();  // capture before timing
  struct JobResult {
    SearchPhaseCost naive;
    SearchPhaseCost heur;
  };
  SweepRunner runner(opts.sweep);
  const std::vector<JobResult> results = runner.map<JobResult>(
      names.size(), [&](std::size_t j) {
        const Trace& stream = traces.at(names[j]).data;
        JobResult r;
        r.naive = naive_search(stream, model);
        r.heur = heuristic_search(stream, model);
        const std::size_t slice = stream.size() / all_configs().size();
        runner.add_accesses(slice * (r.naive.configs + r.heur.configs));
        return r;
      });

  GeoMean energy_ratio;
  double flushes = 0;
  unsigned n = 0;
  for (std::size_t j = 0; j < names.size(); ++j) {
    const SearchPhaseCost& naive = results[j].naive;
    const SearchPhaseCost& heur = results[j].heur;
    energy_ratio.add(naive.energy / heur.energy);
    flushes += static_cast<double>(naive.flush_writebacks);
    ++n;
    table.add_row({names[j], std::to_string(naive.configs),
                   std::to_string(heur.configs),
                   std::to_string(naive.flush_writebacks),
                   std::to_string(heur.flush_writebacks),
                   fmt_si_energy(naive.energy), fmt_si_energy(heur.energy)});
  }
  table.print(std::cout);

  std::cout << "\nGeometric-mean search-phase energy: naive = "
            << fmt_double(energy_ratio.value(), 1)
            << "x the heuristic's.\nAverage dirty lines force-flushed by "
            << "the naive search: " << fmt_double(flushes / n, 0)
            << " per benchmark (the heuristic's flush-free walk writes\n"
            << "back only the handful of stranded lines shown above).\n";
  bench::finish_sweep(runner, opts);
  return 0;
}

}  // namespace
}  // namespace stcache

int main(int argc, char** argv) { return stcache::run(argc, argv); }
