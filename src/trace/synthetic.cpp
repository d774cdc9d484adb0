#include "trace/synthetic.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "cache/packed.hpp"
#include "util/error.hpp"

namespace stcache {

Trace gen_loop_ifetch(std::uint32_t base, std::uint32_t body_bytes,
                      std::uint32_t iterations) {
  if (body_bytes % 4 != 0) fail("gen_loop_ifetch: body must be word aligned");
  Trace t;
  t.reserve(static_cast<std::size_t>(body_bytes / 4) * iterations);
  for (std::uint32_t it = 0; it < iterations; ++it) {
    for (std::uint32_t off = 0; off < body_bytes; off += 4) {
      t.push_back({base + off, AccessKind::kIFetch});
    }
  }
  return t;
}

Trace gen_strided(std::uint32_t base, std::uint32_t stride, std::uint64_t count,
                  double write_fraction, Rng& rng) {
  Trace t;
  t.reserve(count);
  std::uint32_t addr = base;
  for (std::uint64_t i = 0; i < count; ++i) {
    const bool write = rng.next_bool(write_fraction);
    t.push_back({addr, write ? AccessKind::kWrite : AccessKind::kRead});
    addr += stride;
  }
  return t;
}

Trace gen_uniform(std::uint32_t base, std::uint32_t ws_bytes, std::uint64_t count,
                  double write_fraction, Rng& rng) {
  if (ws_bytes < 4) fail("gen_uniform: working set too small");
  Trace t;
  t.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto off = static_cast<std::uint32_t>(rng.next_below(ws_bytes / 4)) * 4;
    const bool write = rng.next_bool(write_fraction);
    t.push_back({base + off, write ? AccessKind::kWrite : AccessKind::kRead});
  }
  return t;
}

Trace gen_pointer_chase(std::uint32_t base, std::uint32_t ws_bytes,
                        std::uint32_t stride, std::uint64_t count, Rng& rng) {
  const std::uint32_t nodes = ws_bytes / stride;
  if (nodes < 2) fail("gen_pointer_chase: need at least two nodes");
  // Random cyclic permutation (Sattolo's algorithm) of node order.
  std::vector<std::uint32_t> order(nodes);
  std::iota(order.begin(), order.end(), 0u);
  for (std::uint32_t i = nodes - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(rng.next_below(i));
    std::swap(order[i], order[j]);
  }
  Trace t;
  t.reserve(count);
  std::uint32_t cursor = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    t.push_back({base + order[cursor] * stride, AccessKind::kRead});
    cursor = (cursor + 1) % nodes;
  }
  return t;
}

namespace {

// Sampler for a Zipf distribution over `n` ranks with exponent `s`, using
// inverse-CDF over precomputed cumulative weights. A guide table narrows
// each draw to one bucket of the CDF: the answer for u in
// [b/kBuckets, (b+1)/kBuckets) lies in [guide_[b], guide_[b+1]], because
// the full-CDF lower_bound is monotone in u. u * kBuckets is exact in
// binary floating point, so the bucket of u is exact too, and the bucketed
// search returns exactly the full search's index.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& v : cdf_) v /= acc;
    for (std::uint32_t b = 0; b <= kBuckets; ++b) {
      guide_[b] = static_cast<std::uint32_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(),
                           static_cast<double>(b) / kBuckets) -
          cdf_.begin());
    }
  }

  std::uint32_t sample(Rng& rng) const {
    const double u = rng.next_double();  // [0, 1)
    const auto b = static_cast<std::uint32_t>(u * kBuckets);
    auto it = std::lower_bound(cdf_.begin() + guide_[b],
                               cdf_.begin() + guide_[b + 1], u);
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  static constexpr std::uint32_t kBuckets = 4096;
  std::vector<double> cdf_;
  std::array<std::uint32_t, kBuckets + 1> guide_;
};

// Each input-scan access is followed by a parse-output write with this
// probability.
constexpr double kParserWriteProb = 0.2;

// The parser-like access sequence, one emit(addr, kind) per access.
template <typename Emit>
void parser_like_walk(const ParserLikeParams& p, Emit&& emit) {
  Rng rng(p.seed);

  // Packed address-space layout with small pads, as a real linker would
  // produce: the regions never overlap in index space for any cache at
  // least as large as the total footprint, and wrap uniformly in smaller
  // caches.
  const std::uint32_t dict_base = 0x0010'0000;
  const std::uint32_t input_base = dict_base + p.dict_bytes + 4160;
  const std::uint32_t write_base = input_base + p.input_bytes + 2112;
  const std::uint32_t chase_base = write_base + 4096 + 3136;

  // Dictionary entries are 64 B records; Zipf rank decides which record.
  const std::uint32_t dict_entries = p.dict_bytes / 64;
  ZipfSampler zipf(dict_entries, p.zipf_s);

  // Parse structure: pointer chase over a quarter of the dictionary size.
  const std::uint32_t chase_nodes = std::max(2u, p.dict_bytes / 4 / 32);
  std::vector<std::uint32_t> chase_order(chase_nodes);
  std::iota(chase_order.begin(), chase_order.end(), 0u);
  for (std::uint32_t i = chase_nodes - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(rng.next_below(i));
    std::swap(chase_order[i], chase_order[j]);
  }

  std::uint32_t input_cursor = 0;
  std::uint32_t chase_cursor = 0;
  for (std::uint64_t i = 0; i < p.accesses; ++i) {
    const double u = rng.next_double();
    if (u < p.dict_fraction) {
      const std::uint32_t entry = zipf.sample(rng);
      const auto word = static_cast<std::uint32_t>(rng.next_below(16)) * 4;
      emit(dict_base + entry * 64 + word, AccessKind::kRead);
    } else if (u < p.dict_fraction + p.chase_fraction) {
      emit(chase_base + chase_order[chase_cursor] * 32, AccessKind::kRead);
      chase_cursor = (chase_cursor + 1) % chase_nodes;
    } else {
      emit(input_base + input_cursor, AccessKind::kRead);
      input_cursor = (input_cursor + 4) % p.input_bytes;
      if (rng.next_bool(kParserWriteProb)) {
        // Occasional write of parse output next to the input stream.
        emit(write_base + (input_cursor % 4096), AccessKind::kWrite);
      }
    }
  }
}

}  // namespace

Trace gen_parser_like(const ParserLikeParams& p) {
  Trace t;
  t.reserve(p.accesses);
  parser_like_walk(p, [&](std::uint32_t addr, AccessKind kind) {
    t.push_back({addr, kind});
  });
  return t;
}

std::vector<std::uint32_t> gen_parser_like_packed(const ParserLikeParams& p) {
  // Room for the expected writes with a quarter to spare, so the vector
  // is allocated once.
  const double scan_fraction =
      std::max(0.0, 1.0 - p.dict_fraction - p.chase_fraction);
  std::vector<std::uint32_t> words;
  words.reserve(p.accesses +
                static_cast<std::uint64_t>(static_cast<double>(p.accesses) *
                                           scan_fraction * kParserWriteProb *
                                           1.25));
  parser_like_walk(p, [&](std::uint32_t addr, AccessKind kind) {
    words.push_back(pack_word(addr, kind == AccessKind::kWrite));
  });
  return words;
}

}  // namespace stcache
