// Synthetic address-stream generators.
//
// The paper's Figure 2 uses SPEC2000 `parser`, whose multi-megabyte traces
// we cannot obtain; per DESIGN.md we substitute a generator that reproduces
// the property Figure 2 depends on — a miss rate that keeps improving as
// the cache grows through the tens-of-kilobytes range and then flattens, so
// that total energy has an interior minimum. The simpler generators are
// also used by unit and property tests to exercise caches with controlled
// locality.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace stcache {

// Sequential instruction-fetch loop: `iterations` passes over a loop body
// of `body_bytes` starting at `base` (4-byte fetches).
Trace gen_loop_ifetch(std::uint32_t base, std::uint32_t body_bytes,
                      std::uint32_t iterations);

// Strided data scan: `count` accesses with the given stride, starting at
// `base`, with `write_fraction` of them writes.
Trace gen_strided(std::uint32_t base, std::uint32_t stride, std::uint64_t count,
                  double write_fraction, Rng& rng);

// Uniform random accesses over a working set of `ws_bytes`.
Trace gen_uniform(std::uint32_t base, std::uint32_t ws_bytes, std::uint64_t count,
                  double write_fraction, Rng& rng);

// Pointer-chase: a random permutation cycle over `ws_bytes/stride` nodes,
// visited `count` times (perfect temporal reuse, no spatial locality).
Trace gen_pointer_chase(std::uint32_t base, std::uint32_t ws_bytes,
                        std::uint32_t stride, std::uint64_t count, Rng& rng);

// `parser`-like composite workload: a Zipf-weighted dictionary of
// `dict_bytes` (word frequency locality), a sequential input scan, and a
// pointer-chasing parse structure. Produces a data stream whose miss rate
// falls steadily until the cache covers a large fraction of `dict_bytes`.
struct ParserLikeParams {
  std::uint32_t dict_bytes = 64 * 1024;
  std::uint32_t input_bytes = 16 * 1024;
  std::uint64_t accesses = 2'000'000;
  double zipf_s = 1.3;       // Zipf exponent for dictionary accesses
  double dict_fraction = 0.75;
  double chase_fraction = 0.10;  // remainder is the sequential input scan
  std::uint64_t seed = 0x5eed;
};
Trace gen_parser_like(const ParserLikeParams& params);

// The same stream generated straight into pack_stream() format (bit 31 =
// write, bits 30..0 = 16 B block): word for word
// pack_stream(gen_parser_like(params)), without the TraceRecord vector.
std::vector<std::uint32_t> gen_parser_like_packed(
    const ParserLikeParams& params);

}  // namespace stcache
