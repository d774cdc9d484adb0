// Figure 2: energy of the on-chip cache, the off-chip memory, and their
// total, for a parser-like workload as the cache grows from 1 KB to 1 MB.
//
// The paper's point: off-chip energy falls steeply up to a mid-range size
// and then flattens, while cache energy keeps growing, so total energy has
// an interior minimum — the per-application sweet spot the self-tuning
// architecture hunts for. The paper uses SPEC2000 `parser`; we use the
// parser-like synthetic workload documented in DESIGN.md.
#include <iostream>

#include "common.hpp"
#include "cache/cache_model.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"

namespace stcache {
namespace {

int run() {
  bench::print_header("Figure 2: energy vs. cache size, parser-like workload",
                      "Figure 2");

  ParserLikeParams params;  // 256 KB dictionary working set
  const std::vector<std::uint32_t> packed =
      pack_stream(gen_parser_like(params));
  const EnergyModel model;

  Table table({"cache size", "miss rate", "cache (on-chip)", "off-chip memory",
               "total"});

  double best_total = 0.0;
  std::uint32_t best_size = 0;
  for (std::uint32_t size = 1024; size <= (1u << 20); size *= 2) {
    const CacheGeometry g{size, 1, 32};
    BankAccumulator bank(std::span<const CacheGeometry>(&g, 1));
    bank.feed(packed);
    const CacheStats stats = bank.stats().front();
    const EnergyBreakdown e = model.evaluate_generic(g, stats);
    table.add_row({std::to_string(size / 1024) + "KB",
                   fmt_percent(stats.miss_rate(), 2),
                   fmt_si_energy(e.onchip_cache()),
                   fmt_si_energy(e.offchip_memory()),
                   fmt_si_energy(e.total())});
    if (best_size == 0 || e.total() < best_total) {
      best_total = e.total();
      best_size = size;
    }
  }
  table.print(std::cout);

  std::cout << "\nMinimum-energy size: " << best_size / 1024 << " KB\n"
            << "The reproduced claim is the SHAPE: off-chip energy falls\n"
            << "steeply while the miss rate improves, then flattens; cache\n"
            << "energy keeps growing with size; their sum has an interior\n"
            << "minimum. The paper's parser bottoms out at 16 KB; our\n"
            << "synthetic substitute's locality knee sits higher (see\n"
            << "EXPERIMENTS.md), so the minimum lands at a larger size.\n";
  return 0;
}

}  // namespace
}  // namespace stcache

int main() { return stcache::run(); }
