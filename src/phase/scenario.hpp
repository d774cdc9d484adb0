// Named phase-mixed scenarios: deterministic mega-traces with ground truth.
//
// Each scenario captures a handful of the Table 1 kernels (plus the
// synthetic parser-like generator), picks one of the two split streams,
// and plans a long packed stream over them via trace/phase_mix.
// PhaseScenarioStream keeps just those sources and the plan and streams
// the scenario as zero-copy slices of the sources, so its footprint is the
// sources' (6.4-11.6 MB; a `stcache_tune --phases` process peaks at
// 12.3-18.1 MB RSS) at every scale. Each kernel source is captured alone
// (capture_stream), so the unused side is never stored, and all of a
// scenario's kernel sources are captured at once, one thread each, while
// the constructing thread plans the stream and generates datamix's
// parser-like source. The captures are joined in plan order: the build
// waits for its slowest source instead of their sum, the stream is the one
// a serial build makes (tests/phase_mix_test.cpp pins each scenario's
// digest), and a failed capture's exception leaves the constructor. Under
// metrics, the sources' [sim] lines arrive in completion order.
// build_phase_scenario() materializes the stream with its ground-truth
// segment list, which is what the oracle in bench_phase_adaptive and the
// boundary tests judge against.
//
// This lives in src/phase (not src/trace) because it binds the workload
// registry: stc_workloads links stc_trace, so the binding has to sit above
// both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "trace/phase_mix.hpp"
#include "trace/stream.hpp"

namespace stcache {

struct PhaseScenario {
  std::string name;
  std::string description;
  bool instruction = true;  // which split stream the scenario composes
};

// The scenario catalog, in fixed order.
const std::vector<PhaseScenario>& phase_scenarios();

// Look up by name; fail()s with the known names on a miss.
const PhaseScenario& find_phase_scenario(const std::string& name);

// A named scenario's source streams and segment plan: its stream, not
// yet composed. `scale` multiplies every segment length (1 = the
// calibrated default, minutes of simulated traffic) and leaves the
// sources as they are. Deterministic: same name + scale -> byte-identical
// stream. fail()s on an unknown name or a zero scale.
class PhaseScenarioStream {
 public:
  explicit PhaseScenarioStream(const std::string& name, unsigned scale = 1);

  const PhaseScenario& scenario() const { return *scenario_; }
  std::uint64_t total_words() const;
  std::size_t planned_segments() const { return plan_.size(); }

  // The stream in order, as spans borrowed from this object's sources
  // (trace/phase_mix.hpp for_each_phase_slice).
  void for_each_slice(
      const std::function<void(std::span<const std::uint32_t>)>& fn) const;

  // The stream materialized, with its ground-truth segments.
  PhaseMixedStream compose() const;

 private:
  std::vector<std::span<const std::uint32_t>> source_spans() const;

  const PhaseScenario* scenario_ = nullptr;
  // The sources in plan order: each kernel's selected stream, captured
  // alone, then datamix's parser-like stream.
  std::vector<PagedStream> captured_;
  std::vector<std::uint32_t> parser_like_;
  std::vector<PhaseSegmentSpec> plan_;
};

// PhaseScenarioStream(name, scale).compose(): the scenario's stream and
// ground truth in memory, for callers that slice it by segment.
PhaseMixedStream build_phase_scenario(const std::string& name,
                                      unsigned scale = 1);

}  // namespace stcache
