#include "core/report.hpp"

#include <ostream>

#include "core/heuristic.hpp"
#include "util/table.hpp"

namespace stcache {

std::vector<std::string> verdict_row(const std::string& search,
                                     const std::string& config,
                                     unsigned examined, double energy,
                                     double base_energy) {
  return {search, config, std::to_string(examined), fmt_si_energy(energy),
          fmt_percent(1.0 - energy / base_energy, 1)};
}

void print_verdict(std::ostream& out, bool instruction, std::uint64_t accesses,
                   Evaluator& eval, bool exhaustive) {
  out << "Tuning the " << (instruction ? "instruction" : "data")
      << " cache on " << accesses << " accesses...\n\n";

  const SearchResult heur = tune(eval);
  const double base = eval.energy(base_cache());
  Table table({"search", "configuration", "configs examined", "energy",
               "savings vs 8K_4W_32B"});
  table.add_row(verdict_row("heuristic", heur.best.name(),
                            heur.configs_examined, heur.best_energy, base));
  if (exhaustive) {
    const SearchResult ex = tune_exhaustive(eval);
    table.add_row(verdict_row("exhaustive", ex.best.name(),
                              ex.configs_examined, ex.best_energy, base));
  }
  table.print(out);

  out << "\nVisited: ";
  for (std::size_t v = 0; v < heur.visited.size(); ++v) {
    out << (v ? " -> " : "") << heur.visited[v].name();
  }
  out << "\n";
}

void print_exhaustive_report(std::ostream& out, bool instruction,
                             std::uint64_t accesses,
                             std::span<const CacheConfig> configs,
                             std::span<const CacheStats> measured,
                             const EnergyModel& model) {
  // Both searches only ever visit registry configurations, all of which
  // are primed, so the empty packed span is never replayed.
  TraceEvaluator eval(std::span<const std::uint32_t>{}, model);
  eval.prime_from(configs, measured);
  print_verdict(out, instruction, accesses, eval, /*exhaustive=*/true);
}

}  // namespace stcache
