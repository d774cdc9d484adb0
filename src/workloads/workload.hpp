// Embedded benchmark kernels.
//
// The paper evaluates 13 Powerstone and 6 MediaBench benchmarks. The
// binaries and inputs of those suites are not redistributable, so (per the
// substitution policy in DESIGN.md) we implement the same kernels in the
// stcache assembly language, sized so that their instruction working sets
// and data locality span the range the paper's Table 1 exhibits — tiny
// bit-twiddling loops (bcnt, bilv), table-driven streaming codecs (crc,
// adpcm, g3fax), stencil and block-transform media kernels (tv, jpeg,
// epic, mpeg2), and pointer/recursion-heavy code (ucbqsort, binary).
//
// Every workload carries a C++ reference implementation of its checksum:
// after the ISS runs the kernel to completion, register v0 must equal the
// reference value. This validates the assembler, the ISS, and the kernel
// itself before any cache statistics are trusted.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/cpu.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"

namespace stcache {

struct Workload {
  std::string name;
  std::string suite;        // "powerstone" | "mediabench" | "synthetic"
  std::string description;
  std::string source;       // assembly text
  std::uint32_t mem_bytes = 1u << 21;
  std::uint64_t max_instructions = 80'000'000;
  // Expected value of v0 at halt (the kernel's self-checksum), computed by
  // an independent C++ reference implementation.
  std::uint32_t expected_checksum = 0;
};

// The 19 kernels, in the paper's Table 1 order (13 Powerstone, 6
// MediaBench). Building a kernel generates its source and computes its
// reference checksum, so the first call builds all 19.
const std::vector<Workload>& all_workloads();

// Look up one workload by name, building only that kernel, on its first
// lookup from any thread; every lookup of a name returns the same object.
// Throws stcache::Error if unknown (no kernel is built).
const Workload& find_workload(const std::string& name);

// Assemble and execute `w` against a perfect memory, verifying the
// checksum; returns the run result. Throws on checksum mismatch.
RunResult run_functional(const Workload& w);

// Assemble and execute `w`, capturing the full address trace. The checksum
// is verified. (Trace capture uses 1-cycle accesses; timing is applied at
// replay time.)
Trace capture_trace(const Workload& w);

// Fast-interpreter capture: the two split streams already in pack_stream()
// format (bit 31 = write, bits 30..0 = 16 B block). Checksum verified.
// Equivalent to split_trace(capture_trace(w)) + pack_stream on each half —
// the differential suite (tests/fast_cpu_test.cpp) proves it bit-identical
// — at several times the reference interpreter's throughput and without
// the TraceRecord AoS intermediate.
struct PackedCapture {
  std::vector<std::uint32_t> ifetch;
  std::vector<std::uint32_t> data;
  RunResult run;
};
PackedCapture capture_packed(const Workload& w);

// One side of capture_packed(w), word for word: the instruction-fetch
// stream, or else the data stream. The other side is dropped as it is
// produced, and the kept words are written once into pages the OS
// zero-fills on first touch (OneStreamSink), so nothing is copied or
// zero-filled ahead of the capture. Checksum verified.
PagedStream capture_stream(const Workload& w, bool instruction);

// Streaming capture: run the fast interpreter on a producer thread and
// fold each packed chunk into `consume` as it is published (in capture
// order; each chunk carries both split streams). The checksum is verified
// before the final chunk is released, so a consumer never folds a chunk
// of a run that later fails verification into durable state without the
// surrounding call throwing. Returns the run result.
RunResult stream_workload(const Workload& w,
                          const std::function<void(const PackedChunk&)>& consume);

// The deterministic 32-bit LCG all kernels use to self-generate input data
// (x <- x * 1103515245 + 12345). Reference implementations share it.
inline std::uint32_t lcg_next(std::uint32_t x) {
  return x * 1103515245u + 12345u;
}

}  // namespace stcache
