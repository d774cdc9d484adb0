// Phase-mixed mega-trace composition.
//
// The paper tunes once per application, but its Section 1 deployment story
// tunes "whenever a program phase change is detected". To exercise that
// mode we need traces that actually *have* phases: long packed streams
// stitched from the address behavior of several workloads, with a ground
// truth of where each behavior starts and ends. compose_phases() builds
// such a stream from any set of packed source streams (pack_stream format:
// bit 31 = write, bits 30..0 = 16 B block number) and a segment plan; the
// returned segment list is the oracle the phase classifier is judged
// against (tests/phase_mix_test.cpp, bench_phase_adaptive).
//
// Sources are cycled with a per-source wrapping cursor: a plan may demand
// far more words of a behavior than its source stream holds (kernel data
// streams are only tens of thousands of words), and a recurring phase must
// resume where it left off rather than restart, so repeated visits to the
// same source are not byte-identical copies of each other — closer to a
// task being rescheduled than to a looped recording.
//
// for_each_phase_slice() walks those cursors without building the stream:
// it hands out zero-copy spans of the sources, so a consumer that streams
// (the phase-adaptive tuner behind stcache_tune --phases) holds only the
// sources, whatever the plan's length. compose_phases() is the collector
// over that walk for callers that need the words in one vector.
//
// Everything here is deterministic: the same sources + plan (and, for the
// seeded plan builder, the same seed) produce byte-identical streams on
// every platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace stcache {

// One ground-truth segment: words [begin, end) of the composed stream were
// drawn from sources[source].
struct PhaseSegment {
  std::size_t source = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  friend bool operator==(const PhaseSegment&, const PhaseSegment&) = default;
};

// Plan entry: take `words` words from sources[source] next.
struct PhaseSegmentSpec {
  std::size_t source = 0;
  std::uint64_t words = 0;
};

struct PhaseMixedStream {
  std::vector<std::uint32_t> words;     // packed, pack_stream format
  std::vector<PhaseSegment> segments;   // tiles words[] exactly, in order
};

// The plan's total word count. Plan entries that name a missing or empty
// source, and zero-length entries, are rejected (fail()).
std::uint64_t phase_plan_words(
    std::span<const std::span<const std::uint32_t>> sources,
    std::span<const PhaseSegmentSpec> plan);

// Walk the composed stream without building it: validate the whole plan
// first (phase_plan_words), then call `fn` once per contiguous run of a
// source, in stream order — each plan entry's words, split where its
// source's wrapping cursor wraps. The spans borrow `sources`.
void for_each_phase_slice(
    std::span<const std::span<const std::uint32_t>> sources,
    std::span<const PhaseSegmentSpec> plan,
    const std::function<void(std::span<const std::uint32_t>)>& fn);

// Concatenate plan segments, slicing each from its source with a wrapping
// per-source cursor (for_each_phase_slice), and record the ground truth.
PhaseMixedStream compose_phases(
    std::span<const std::span<const std::uint32_t>> sources,
    std::span<const PhaseSegmentSpec> plan);

// A/B/A/B... square wave over sources 0 and 1: `segments` segments of
// `segment_words` words each.
std::vector<PhaseSegmentSpec> square_wave_plan(std::uint64_t segment_words,
                                               unsigned segments);

// Round-robin task schedule: `rounds` passes over sources 0..n_sources-1,
// segment i (globally) taking segment_words[i % segment_words.size()]
// words. Models a cyclic executive with per-task time slices.
std::vector<PhaseSegmentSpec> cycle_plan(
    std::size_t n_sources, std::span<const std::uint64_t> segment_words,
    unsigned rounds);

// Seeded random interleave: `segments` segments, each from a source drawn
// uniformly (never the same source twice in a row, so every plan boundary
// is a real behavior change) with a length drawn uniformly from
// [min_words, max_words]. Deterministic in `seed` (util/rng splitmix64).
std::vector<PhaseSegmentSpec> interleaved_plan(std::size_t n_sources,
                                               unsigned segments,
                                               std::uint64_t min_words,
                                               std::uint64_t max_words,
                                               std::uint64_t seed);

}  // namespace stcache
