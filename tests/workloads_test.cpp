// Functional validation of the 19 embedded kernels: each must assemble,
// run to completion on the ISS, and produce the checksum computed by its
// independent C++ reference implementation. This is the trust anchor for
// every cache experiment: if these pass, the address traces come from
// correct executions of real programs.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "isa/assembler.hpp"
#include "util/error.hpp"

#include "workloads/workload.hpp"

namespace stcache {
namespace {

class WorkloadTest : public ::testing::TestWithParam<std::string> {
 protected:
  const Workload& workload() { return find_workload(GetParam()); }
};

TEST_P(WorkloadTest, RunsToCompletionWithCorrectChecksum) {
  // run_functional throws on budget overrun or checksum mismatch.
  const RunResult r = run_functional(workload());
  EXPECT_TRUE(r.halted);
  EXPECT_GT(r.instructions, 100'000u) << "kernel too small to be meaningful";
  EXPECT_LT(r.instructions, 20'000'000u) << "kernel unreasonably large";
}

TEST_P(WorkloadTest, TraceHasRealisticShape) {
  const Trace t = capture_trace(workload());
  const TraceSummary s = summarize(t);
  ASSERT_GT(s.accesses, 0u);
  // Embedded code: the instruction stream dominates, but every kernel
  // performs a meaningful amount of data traffic too.
  EXPECT_GT(s.ifetches, s.reads + s.writes);
  EXPECT_GT(s.reads + s.writes, s.accesses / 100);
  EXPECT_GT(s.writes, 0u);
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : all_workloads()) names.push_back(w.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, WorkloadTest,
                         ::testing::ValuesIn(workload_names()));

TEST(Workloads, NineteenKernelsLikeThePaper) {
  // 13 Powerstone + 6 MediaBench.
  unsigned powerstone = 0, mediabench = 0;
  for (const Workload& w : all_workloads()) {
    if (w.suite == "powerstone") ++powerstone;
    if (w.suite == "mediabench") ++mediabench;
  }
  EXPECT_EQ(powerstone, 13u);
  EXPECT_EQ(mediabench, 6u);
}

TEST(Workloads, NamesAreUnique) {
  std::set<std::string> names;
  for (const Workload& w : all_workloads()) names.insert(w.name);
  EXPECT_EQ(names.size(), all_workloads().size());
}

TEST(Workloads, LookupByName) {
  EXPECT_EQ(find_workload("crc").name, "crc");
  EXPECT_THROW(find_workload("nope"), Error);
}

TEST(Workloads, EveryRegisteredNameResolvesToOneKernel) {
  for (const Workload& w : all_workloads()) {
    const Workload& found = find_workload(w.name);
    EXPECT_EQ(found.name, w.name);
    EXPECT_EQ(found.expected_checksum, w.expected_checksum);
    EXPECT_EQ(&find_workload(w.name), &found) << w.name;
  }
}

TEST(Workloads, RacingFirstLookupsBuildOneKernel) {
  // ctest runs each test in its own process, so this is the kernel's first
  // lookup: eight threads race its one build (repro.sh also runs this case
  // under ThreadSanitizer).
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<const Workload*> found(kThreads, nullptr);
  std::vector<std::uint32_t> checksums(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      found[t] = &find_workload("mpeg2");
      checksums[t] = found[t]->expected_checksum;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(found[t], found[0]);
    EXPECT_EQ(checksums[t], checksums[0]);
  }
  EXPECT_EQ(found[0]->name, "mpeg2");
  EXPECT_NE(checksums[0], 0u);
}

TEST(Workloads, InstructionFootprintsAreDiverse) {
  // The kernels were designed so that text sizes span the 2/4/8 KB decision
  // range of the instruction cache (Table 1 diversity).
  std::uint32_t smallest = ~0u, largest = 0;
  for (const Workload& w : all_workloads()) {
    const Program p = assemble(w.source, w.name);
    std::uint32_t text = 0;
    for (const Segment& s : p.segments) {
      if (s.base < kDefaultDataBase) {
        text += static_cast<std::uint32_t>(s.bytes.size());
      }
    }
    smallest = std::min(smallest, text);
    largest = std::max(largest, text);
  }
  EXPECT_LT(smallest, 1024u);   // tiny loop kernels exist
  EXPECT_GT(largest, 4096u);    // multi-KB kernels exist
}

TEST(Workloads, ChecksumCatchesCorruption) {
  // Sanity-check the harness itself: a workload with the wrong expected
  // checksum must fail loudly.
  Workload w = find_workload("crc");
  w.expected_checksum ^= 1;
  EXPECT_THROW(run_functional(w), Error);
}

TEST(Workloads, TracesAreDeterministic) {
  const Workload& w = find_workload("bcnt");
  const Trace a = capture_trace(w);
  const Trace b = capture_trace(w);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace stcache
