// Renderer of the `stcache_tune` verdict, factored out so the in-process
// tool, the stcache_tunec serving client, and the loopback tests all print
// THE SAME bytes from the same inputs: a measured 27-configuration stats
// bank plus the access count. repro.sh cmp's the tool against the daemon
// end to end on exactly this property.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "cache/stats.hpp"
#include "core/evaluator.hpp"
#include "energy/energy_model.hpp"

namespace stcache {

// One row of a verdict table: search, configuration, configs examined,
// energy, and savings against `base_energy`.
std::vector<std::string> verdict_row(const std::string& search,
                                     const std::string& config,
                                     unsigned examined, double energy,
                                     double base_energy);

// Print the verdict for the selected stream: header, the heuristic row
// (plus the 27-point optimum when `exhaustive`), and the heuristic's
// Visited chain, with energies from `eval`.
void print_verdict(std::ostream& out, bool instruction, std::uint64_t accesses,
                   Evaluator& eval, bool exhaustive);

// print_verdict with the optimum, from a measured bank. `measured[i]` must
// be the replay stats of `configs[i]`; both searches then run as pure memo
// lookups over a primed evaluator, deriving energies exactly as the
// measuring path does — which is what makes the output byte-identical to
// an in-process run.
void print_exhaustive_report(std::ostream& out, bool instruction,
                             std::uint64_t accesses,
                             std::span<const CacheConfig> configs,
                             std::span<const CacheStats> measured,
                             const EnergyModel& model);

}  // namespace stcache
