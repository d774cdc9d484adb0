#include "phase/scenario.hpp"

#include <future>
#include <initializer_list>

#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "workloads/workload.hpp"

namespace stcache {

const std::vector<PhaseScenario>& phase_scenarios() {
  static const std::vector<PhaseScenario> scenarios = {
      {"squarewave",
       "crc <-> padpcm instruction streams, 24 equal slices: the cleanest "
       "recurring two-phase pattern (small hot loop vs. large kernel)",
       true},
      {"taskset",
       "cyclic executive over crc/jpeg/ucbqsort/padpcm instruction "
       "streams, 3 rounds of uneven time slices",
       true},
      {"datamix",
       "seeded random interleave of five kernel data streams plus the "
       "synthetic parser-like generator",
       false},
  };
  return scenarios;
}

const PhaseScenario& find_phase_scenario(const std::string& name) {
  for (const PhaseScenario& s : phase_scenarios())
    if (s.name == name) return s;
  std::string known;
  for (const PhaseScenario& s : phase_scenarios())
    known += (known.empty() ? "" : ", ") + s.name;
  fail("unknown phase scenario '" + name + "' (known: " + known + ")");
}

PhaseScenarioStream::PhaseScenarioStream(const std::string& name,
                                         unsigned scale) {
  if (scale == 0) fail("phase scenario: scale must be > 0");
  scenario_ = &find_phase_scenario(name);
  const bool instruction = scenario_->instruction;
  constexpr std::uint64_t kKi = 1024;
  // Every kernel source is captured on its own thread, all at once, while
  // this thread plans the stream (and generates datamix's parser-like
  // source). Joining in plan order keeps the sources' order, makes the
  // build wait for its slowest capture instead of their sum, and lets a
  // failed capture's exception leave through get(); the futures left
  // unjoined then wait for their captures as they are destroyed.
  std::vector<std::future<PagedStream>> captures;
  const auto capture_kernels = [&](std::initializer_list<const char*> names) {
    for (const char* n : names)
      captures.push_back(std::async(std::launch::async, [n, instruction] {
        return capture_stream(find_workload(n), instruction);
      }));
  };
  if (scenario_->name == "squarewave") {
    capture_kernels({"crc", "padpcm"});
    plan_ = square_wave_plan(768 * kKi * scale, 24);
  } else if (scenario_->name == "taskset") {
    capture_kernels({"crc", "jpeg", "ucbqsort", "padpcm"});
    const std::uint64_t lens[] = {512 * kKi * scale, 768 * kKi * scale,
                                  640 * kKi * scale, 576 * kKi * scale};
    plan_ = cycle_plan(captures.size(), lens, 4);
  } else {  // datamix
    capture_kernels({"adpcm", "jpeg", "ucbqsort", "g3fax", "epic"});
    parser_like_ = gen_parser_like_packed({});
    plan_ = interleaved_plan(captures.size() + 1, 24, 384 * kKi * scale,
                             768 * kKi * scale, 0xC0FFEEULL);
  }
  for (std::future<PagedStream>& c : captures) captured_.push_back(c.get());
}

std::vector<std::span<const std::uint32_t>> PhaseScenarioStream::source_spans()
    const {
  std::vector<std::span<const std::uint32_t>> spans;
  for (const PagedStream& s : captured_) spans.push_back(s.words());
  if (!parser_like_.empty()) spans.push_back(parser_like_);
  return spans;
}

std::uint64_t PhaseScenarioStream::total_words() const {
  return phase_plan_words(source_spans(), plan_);
}

void PhaseScenarioStream::for_each_slice(
    const std::function<void(std::span<const std::uint32_t>)>& fn) const {
  for_each_phase_slice(source_spans(), plan_, fn);
}

PhaseMixedStream PhaseScenarioStream::compose() const {
  return compose_phases(source_spans(), plan_);
}

PhaseMixedStream build_phase_scenario(const std::string& name,
                                      unsigned scale) {
  return PhaseScenarioStream(name, scale).compose();
}

}  // namespace stcache
