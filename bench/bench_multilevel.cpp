// Multi-level heuristic (Section 3.4).
//
// The paper sketches scaling the heuristic to a two-level hierarchy (16 KB
// 8-way L1 I/D with {8,16,32,64} B lines, 256 KB 8-way unified L2 with
// {64..512} B lines): the cross product is 64 configurations, the
// one-parameter-at-a-time heuristic examines at most 1 + 3 + 3 + 3 = 10
// (core/multilevel.hpp; the paper estimates 12-13). This harness
// runs both searches on combined (I+D) traces — the large media kernels
// plus the parser-like workload, which actually exercises the L2 — and
// reports search counts and the energy gap.
#include <iostream>

#include "common.hpp"
#include "core/multilevel.hpp"
#include "trace/synthetic.hpp"

namespace stcache {
namespace {

int run() {
  bench::print_header(
      "Two-level hierarchy tuning: heuristic (<=10 evaluations) vs. "
      "exhaustive (64)",
      "Section 3.4 (multi-level heuristic)");

  const EnergyModel model;
  Table table({"workload", "heuristic cfg", "evals", "optimal cfg", "evals",
               "gap"});

  auto add_row = [&](const std::string& name, const Trace& trace) {
    const TwoLevelSearchResult heur = tune_two_level(trace, model);
    const TwoLevelSearchResult ex = tune_two_level_exhaustive(trace, model);
    table.add_row({name, heur.best.name(),
                   std::to_string(heur.configs_examined), ex.best.name(),
                   std::to_string(ex.configs_examined),
                   fmt_percent(heur.best_energy / ex.best_energy - 1.0, 1)});
  };

  // Combined traces of the kernels with the largest footprints.
  for (const char* name : {"mpeg2", "epic", "g3fax", "blit"}) {
    const Workload& w = find_workload(name);
    add_row(name, capture_trace(w));
  }

  // The parser-like workload is the only one whose working set stresses a
  // 256 KB L2 (the embedded kernels fit the 16 KB L1s almost entirely).
  ParserLikeParams params;
  params.accesses = 1'000'000;
  add_row("parser-like", gen_parser_like(params));

  table.print(std::cout);

  std::cout << "\n(Paper: 4+4+4 = 12-13 combinations searched vs. the\n"
            << " 4*4*4 = 64 of brute force, with near-optimal results.)\n";
  return 0;
}

}  // namespace
}  // namespace stcache

int main() { return stcache::run(); }
