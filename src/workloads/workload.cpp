#include "workloads/workload.hpp"

#include <cstdio>
#include <ctime>
#include <iterator>
#include <mutex>
#include <optional>

#include "isa/assembler.hpp"
#include "sim/fast_cpu.hpp"
#include "sim/memory_system.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace stcache {

// Factory functions, one translation unit per suite group.
Workload make_crc();
Workload make_bcnt();
Workload make_bilv();
Workload make_binary();
Workload make_blit();
Workload make_brev();
Workload make_fir();
Workload make_g3fax();
Workload make_ucbqsort();
Workload make_adpcm();
Workload make_padpcm();
Workload make_auto();
Workload make_tv();
Workload make_jpeg();
Workload make_pjpeg();
Workload make_epic();
Workload make_g721();
Workload make_pegwit();
Workload make_mpeg2();

namespace {

struct KernelEntry {
  const char* name;
  Workload (*make)();
};

// The registry in the paper's Table 1 order (each Workload's `suite` names
// its suite). Each name is the one its factory sets.
constexpr KernelEntry kKernels[] = {
    {"padpcm", make_padpcm},
    {"crc", make_crc},
    {"auto", make_auto},
    {"bcnt", make_bcnt},
    {"bilv", make_bilv},
    {"binary", make_binary},
    {"blit", make_blit},
    {"brev", make_brev},
    {"g3fax", make_g3fax},
    {"fir", make_fir},
    {"jpeg", make_jpeg},
    {"pjpeg", make_pjpeg},
    {"ucbqsort", make_ucbqsort},
    {"tv", make_tv},
    {"adpcm", make_adpcm},
    {"epic", make_epic},
    {"g721", make_g721},
    {"pegwit", make_pegwit},
    {"mpeg2", make_mpeg2},
};
constexpr std::size_t kKernelCount = std::size(kKernels);

// Kernel i, built (its source generated and its reference checksum
// computed) on the first request from any thread; later requests get the
// same object.
const Workload& kernel(std::size_t i) {
  struct Slot {
    std::once_flag once;
    std::optional<Workload> w;
  };
  static Slot slots[kKernelCount];
  Slot& s = slots[i];
  std::call_once(s.once, [&] { s.w.emplace(kKernels[i].make()); });
  return *s.w;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> w;
    w.reserve(kKernelCount);
    for (std::size_t i = 0; i < kKernelCount; ++i) w.push_back(kernel(i));
    return w;
  }();
  return kAll;
}

const Workload& find_workload(const std::string& name) {
  for (std::size_t i = 0; i < kKernelCount; ++i) {
    if (name == kKernels[i].name) return kernel(i);
  }
  fail("find_workload: unknown workload '" + name + "'");
}

namespace {

// Shared halt/checksum verification: both interpreters must run the kernel
// to completion and leave the reference checksum in v0 before any of its
// trace is trusted.
void check_run(const Workload& w, const RunResult& r, std::uint32_t v0) {
  if (!r.halted) {
    fail("workload '" + w.name + "' exceeded its instruction budget (" +
         std::to_string(w.max_instructions) + ")");
  }
  if (v0 != w.expected_checksum) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "checksum mismatch: got 0x%08x, expected 0x%08x", v0,
                  w.expected_checksum);
    fail("workload '" + w.name + "': " + buf);
  }
}

RunResult execute(const Workload& w, MemorySystem& mem) {
  const Program program = assemble(w.source, w.name);
  Cpu cpu(program, mem, w.mem_bytes);
  RunResult r = cpu.run(w.max_instructions);
  check_run(w, r, cpu.reg(kV0));
  return r;
}

// Simulator throughput on stderr (gated: util/metrics.hpp); stdout stays
// reserved for tables/figures.
void sim_metric(const Workload& w, const RunResult& r, double seconds) {
  if (!metrics_enabled()) return;
  std::fprintf(stderr,
               "[sim] %s: %llu instructions in %.3f s (%.3g instructions/s)\n",
               w.name.c_str(), static_cast<unsigned long long>(r.instructions),
               seconds, static_cast<double>(r.instructions) / seconds);
}

// CPU time of the calling thread. The [sim] line times the capture with
// it, so a streamed producer's waits for room in a full queue (the
// consumer's time, not the capture's) do not count.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Run the fast interpreter on `w` into `sink` on this thread and verify
// the checksum. The run and the check are what the [sim] line times.
RunResult fast_capture(const Workload& w, FastCpu& cpu, PackedSink& sink) {
  const double start = thread_cpu_seconds();
  const RunResult r = cpu.run(w.max_instructions, sink);
  check_run(w, r, cpu.reg(kV0));
  sim_metric(w, r, thread_cpu_seconds() - start);
  return r;
}

}  // namespace

RunResult run_functional(const Workload& w) {
  PerfectMemory mem;
  return execute(w, mem);
}

Trace capture_trace(const Workload& w) {
  TracingMemory mem;
  mem.reserve(static_cast<std::size_t>(w.max_instructions / 4));
  const double start = thread_cpu_seconds();
  const RunResult r = execute(w, mem);
  sim_metric(w, r, thread_cpu_seconds() - start);
  return mem.take();
}

PackedCapture capture_packed(const Workload& w) {
  const Program program = assemble(w.source, w.name);
  FastCpu cpu(program, w.mem_bytes);
  PackedBufferSink sink;
  PackedCapture out;
  out.run = fast_capture(w, cpu, sink);
  out.ifetch = sink.take_ifetch();
  out.data = sink.take_data();
  return out;
}

PagedStream capture_stream(const Workload& w, bool instruction) {
  const Program program = assemble(w.source, w.name);
  FastCpu cpu(program, w.mem_bytes);
  OneStreamSink sink(instruction);
  fast_capture(w, cpu, sink);
  return sink.take();
}

RunResult stream_workload(
    const Workload& w, const std::function<void(const PackedChunk&)>& consume) {
  const Program program = assemble(w.source, w.name);
  FastCpu cpu(program, w.mem_bytes);  // built here; touched only by the producer
  // The checksum is verified on the producer thread, before the tail chunk
  // is published: a failing run reaches the consumer as an error, never as
  // a complete-looking stream.
  return stream_capture(
      [&](PackedSink& sink) { return fast_capture(w, cpu, sink); }, consume);
}

}  // namespace stcache
