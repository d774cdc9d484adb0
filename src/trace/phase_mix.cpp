#include "trace/phase_mix.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace stcache {

std::uint64_t phase_plan_words(
    std::span<const std::span<const std::uint32_t>> sources,
    std::span<const PhaseSegmentSpec> plan) {
  std::uint64_t total = 0;
  for (const PhaseSegmentSpec& spec : plan) {
    if (spec.source >= sources.size())
      fail("compose_phases: plan references source " +
           std::to_string(spec.source) + " of " +
           std::to_string(sources.size()));
    if (spec.words == 0) fail("compose_phases: zero-length segment");
    if (sources[spec.source].empty())
      fail("compose_phases: source " + std::to_string(spec.source) +
           " is empty");
    total += spec.words;
  }
  return total;
}

void for_each_phase_slice(
    std::span<const std::span<const std::uint32_t>> sources,
    std::span<const PhaseSegmentSpec> plan,
    const std::function<void(std::span<const std::uint32_t>)>& fn) {
  phase_plan_words(sources, plan);
  std::vector<std::size_t> cursor(sources.size(), 0);
  for (const PhaseSegmentSpec& spec : plan) {
    const std::span<const std::uint32_t> src = sources[spec.source];
    std::uint64_t remaining = spec.words;
    std::size_t& cur = cursor[spec.source];
    while (remaining > 0) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, src.size() - cur));
      fn(src.subspan(cur, take));
      cur += take;
      if (cur == src.size()) cur = 0;
      remaining -= take;
    }
  }
}

PhaseMixedStream compose_phases(
    std::span<const std::span<const std::uint32_t>> sources,
    std::span<const PhaseSegmentSpec> plan) {
  PhaseMixedStream out;
  out.words.reserve(phase_plan_words(sources, plan));
  for_each_phase_slice(sources, plan, [&](std::span<const std::uint32_t> s) {
    out.words.insert(out.words.end(), s.begin(), s.end());
  });
  out.segments.reserve(plan.size());
  std::uint64_t begin = 0;
  for (const PhaseSegmentSpec& spec : plan) {
    out.segments.push_back({spec.source, begin, begin + spec.words});
    begin += spec.words;
  }
  return out;
}

std::vector<PhaseSegmentSpec> square_wave_plan(std::uint64_t segment_words,
                                               unsigned segments) {
  std::vector<PhaseSegmentSpec> plan;
  plan.reserve(segments);
  for (unsigned i = 0; i < segments; ++i)
    plan.push_back({i % 2, segment_words});
  return plan;
}

std::vector<PhaseSegmentSpec> cycle_plan(
    std::size_t n_sources, std::span<const std::uint64_t> segment_words,
    unsigned rounds) {
  if (n_sources == 0 || segment_words.empty())
    fail("cycle_plan: need sources and segment lengths");
  std::vector<PhaseSegmentSpec> plan;
  plan.reserve(n_sources * rounds);
  std::size_t i = 0;
  for (unsigned r = 0; r < rounds; ++r)
    for (std::size_t s = 0; s < n_sources; ++s, ++i)
      plan.push_back({s, segment_words[i % segment_words.size()]});
  return plan;
}

std::vector<PhaseSegmentSpec> interleaved_plan(std::size_t n_sources,
                                               unsigned segments,
                                               std::uint64_t min_words,
                                               std::uint64_t max_words,
                                               std::uint64_t seed) {
  if (n_sources < 2) fail("interleaved_plan: need at least 2 sources");
  if (min_words == 0 || max_words < min_words)
    fail("interleaved_plan: bad word range");
  Rng rng(seed);
  std::vector<PhaseSegmentSpec> plan;
  plan.reserve(segments);
  std::size_t prev = n_sources;  // sentinel: first draw is unconstrained
  for (unsigned i = 0; i < segments; ++i) {
    std::size_t src;
    if (prev >= n_sources) {
      src = static_cast<std::size_t>(rng.next_below(n_sources));
    } else {
      // Draw from the n-1 sources that are not `prev`.
      src = static_cast<std::size_t>(rng.next_below(n_sources - 1));
      if (src >= prev) ++src;
    }
    const std::uint64_t words =
        min_words + rng.next_below(max_words - min_words + 1);
    plan.push_back({src, words});
    prev = src;
  }
  return plan;
}

}  // namespace stcache
