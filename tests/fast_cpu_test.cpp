// Differential suite for the fast interpreter (sim/fast_cpu.hpp).
//
// FastCpu is only allowed to exist because it is observationally identical
// to the reference Cpu on the capture contract: same architectural state,
// same RunResult accounting, same trap messages, and bit-identical packed
// trace streams. Every test here runs both interpreters on the same
// program and compares everything observable — including the paths where
// the superblock machinery earns its keep (self-modifying code truncating
// the running block, budget cuts mid-block, poisoned slots) and the paths
// where it must not change behavior (traps, halt PC, register state).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/isa.hpp"
#include "sim/cpu.hpp"
#include "sim/fast_cpu.hpp"
#include "trace/replay.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

struct Side {
  RunResult run;
  std::vector<std::uint32_t> regs;  // all kNumRegs
  std::uint32_t pc = 0;
  std::string error;  // exception text, empty on clean exit
  std::vector<std::uint32_t> ifetch;  // packed, valid only if error is empty
  std::vector<std::uint32_t> data;
};

Side run_reference(const Program& p, std::uint64_t budget, std::uint32_t mem) {
  Side s;
  TracingMemory tm;
  Cpu cpu(p, tm, mem);
  try {
    s.run = cpu.run(budget);
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  for (std::uint8_t r = 0; r < kNumRegs; ++r) s.regs.push_back(cpu.reg(r));
  s.pc = cpu.pc();
  if (s.error.empty()) {
    const SplitTrace split = split_trace(tm.trace());
    s.ifetch = pack_stream(split.ifetch);
    s.data = pack_stream(split.data);
  }
  return s;
}

Side run_fast(const Program& p, std::uint64_t budget, std::uint32_t mem) {
  Side s;
  FastCpu cpu(p, mem);
  PackedBufferSink sink;
  try {
    s.run = cpu.run(budget, sink);
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  for (std::uint8_t r = 0; r < kNumRegs; ++r) s.regs.push_back(cpu.reg(r));
  s.pc = cpu.pc();
  if (s.error.empty()) {
    s.ifetch = sink.take_ifetch();
    s.data = sink.take_data();
  }
  return s;
}

// Run both interpreters and require every observable to match. Returns the
// reference side for any test-specific assertions on top.
Side expect_identical(const std::string& src, std::uint64_t budget = 1'000'000,
                      std::uint32_t mem = 1u << 17) {
  const Program p = assemble(src);
  const Side ref = run_reference(p, budget, mem);
  const Side fast = run_fast(p, budget, mem);
  EXPECT_EQ(ref.error, fast.error);
  EXPECT_EQ(ref.run.instructions, fast.run.instructions);
  EXPECT_EQ(ref.run.cycles, fast.run.cycles);
  EXPECT_EQ(ref.run.halted, fast.run.halted);
  EXPECT_EQ(ref.regs, fast.regs);
  EXPECT_EQ(ref.pc, fast.pc);
  if (ref.error.empty()) {
    EXPECT_TRUE(ref.ifetch == fast.ifetch)
        << "packed ifetch streams differ (" << ref.ifetch.size() << " vs "
        << fast.ifetch.size() << " words)";
    EXPECT_TRUE(ref.data == fast.data)
        << "packed data streams differ (" << ref.data.size() << " vs "
        << fast.data.size() << " words)";
  }
  return ref;
}

TEST(FastCpuDifferential, StraightLineArithmetic) {
  const Side ref = expect_identical(R"(
main:   li   t0, 7
        li   t1, -5
        add  t2, t0, t1
        sub  t3, t0, t1
        mul  t4, t0, t1
        div  t5, t1, t0
        rem  t6, t1, t0
        div  t7, t0, zero     # by-zero contract: 0
        sltu s0, t1, t0
        slt  s1, t1, t0
        sll  s2, t0, 4
        sra  s3, t1, 1
        xor  v0, t2, t3
        halt
)");
  EXPECT_TRUE(ref.run.halted);
}

TEST(FastCpuDifferential, LoadsStoresAndCycles) {
  const Side ref = expect_identical(R"(
main:   la   t0, buf
        li   t1, 0x11223344
        sw   t1, 0(t0)
        lw   t2, 0(t0)
        lbu  t3, 1(t0)
        lb   t4, 3(t0)
        sb   t1, 5(t0)
        lhu  t5, 4(t0)
        lh   t6, 4(t0)
        sh   t1, 8(t0)
        add  v0, t2, t3
        halt
        .data
buf:    .space 16
)");
  // Capture timing contract: one cycle per instruction plus one per access.
  EXPECT_EQ(ref.run.cycles,
            ref.run.instructions + ref.data.size());
}

TEST(FastCpuDifferential, ControlFlowAndLinkRegisters) {
  expect_identical(R"(
main:   li   s0, 0
        li   s1, 10
loop:   add  s0, s0, s1
        addi s1, s1, -1
        bnez s1, loop
        jal  f
        la   t0, g
        jalr t0               # link into ra, target from t0
        la   t1, h
        jalr t1, t1           # rd == rs: target read before link write
        move v0, s0
        halt
f:      addi s0, s0, 100
        jr   ra
g:      addi s0, s0, 1000
        jr   ra
h:      addi s0, s0, 10000
        jr   ra
)");
}

// SMC patching an instruction LATER in the same straight-line block: the
// superblock must truncate at the store, re-decode, and execute the patched
// word — and the bulk-emitted ifetch words for the unexecuted tail must be
// rolled back so the packed trace matches the reference exactly.
TEST(FastCpuDifferential, SmcPatchAheadInSameBlock) {
  expect_identical(R"(
main:   lw   t0, patch(zero)
        sw   t0, slot(zero)
        li   t1, 7
        li   t2, 5
slot:   add  v0, t1, t2
        halt
patch:  sub  v0, t1, t2
)");
}

// SMC patching an already-executed instruction, then looping back over it.
TEST(FastCpuDifferential, SmcPatchBackwardAndReexecute) {
  expect_identical(R"(
main:   li   s0, 0
        li   s1, 2
loop:
slot:   addi s0, s0, 1
        lw   t0, patch(zero)
        sw   t0, slot(zero)
        addi s1, s1, -1
        bnez s1, loop
        move v0, s0
        halt
patch:  addi s0, s0, 50
)");
}

// Scribbling garbage over a yet-to-be-fetched word traps with the
// reference's message only when the word is actually fetched.
TEST(FastCpuDifferential, SmcPoisonedSlotTrapsOnFetch) {
  const Side ref = expect_identical(R"(
main:   li   t0, -1
        sw   t0, next(zero)
next:   halt
)");
  // Both engines re-raise the overwritten word's decode error on fetch.
  EXPECT_NE(ref.error.find("decode: unknown instruction word"),
            std::string::npos);
}

TEST(FastCpuDifferential, TrapUnalignedLoad) {
  const Side ref = expect_identical(R"(
main:   li   t0, 0x10001
        lw   v0, 0(t0)
        halt
)");
  EXPECT_NE(ref.error.find("unaligned load"), std::string::npos);
}

TEST(FastCpuDifferential, TrapUnalignedStore) {
  expect_identical(R"(
main:   li   t0, 0x10002
        sw   t0, 0(t0)
        halt
)");
}

TEST(FastCpuDifferential, LoadOutOfRangeFails) {
  const Side ref = expect_identical(R"(
main:   li   t0, 0x7FFFFFF0
        lw   v0, 0(t0)
        halt
)");
  EXPECT_NE(ref.error.find("memory access out of range"), std::string::npos);
}

TEST(FastCpuDifferential, TrapStoreOutOfRange) {
  expect_identical(R"(
main:   li   t0, 0x7FFFFFF0
        sw   t0, 0(t0)
        halt
)");
}

TEST(FastCpuDifferential, TrapUnalignedFetchViaJr) {
  expect_identical(R"(
main:   li   t0, 2
        jr   t0
)");
}

TEST(FastCpuDifferential, TrapFetchOutsideText) {
  expect_identical(R"(
main:   li   t0, 0x20000
        jr   t0
)");
}

// Budget exhaustion mid-superblock: the run must cut exactly at the limit,
// leave the PC at the next unexecuted instruction, and resume cleanly.
TEST(FastCpuDifferential, BudgetCutMidBlockAndResume) {
  const std::string src = R"(
main:   li   s0, 0
loop:   addi s0, s0, 1
        addi s0, s0, 2
        addi s0, s0, 3
        addi s0, s0, 4
        j    loop
)";
  const Program p = assemble(src);
  for (const std::uint64_t budget : {1ull, 2ull, 3ull, 7ull, 100ull}) {
    TracingMemory tm;
    Cpu ref(p, tm, 1u << 17);
    const RunResult rr = ref.run(budget);
    FastCpu fast(p, 1u << 17);
    PackedBufferSink sink;
    const RunResult fr = fast.run(budget, sink);
    EXPECT_EQ(rr.instructions, budget);
    EXPECT_EQ(fr.instructions, rr.instructions);
    EXPECT_EQ(fr.cycles, rr.cycles);
    EXPECT_EQ(fr.halted, rr.halted);
    EXPECT_EQ(fast.pc(), ref.pc());
    EXPECT_EQ(fast.reg(16), ref.reg(16));  // s0
    // Resume both for another slice; state must continue to track.
    ref.run(5);
    fast.run(5, sink);
    EXPECT_EQ(fast.pc(), ref.pc());
    EXPECT_EQ(fast.reg(16), ref.reg(16));
    const SplitTrace split = split_trace(tm.trace());
    EXPECT_TRUE(pack_stream(split.ifetch) == sink.take_ifetch());
  }
}

TEST(FastCpuDifferential, HaltLeavesPcAtHaltInstruction) {
  const Side ref = expect_identical(R"(
main:   li   v0, 1
        halt
)");
  EXPECT_TRUE(ref.run.halted);
  EXPECT_EQ(ref.pc, 8u);  // li expands to two words; halt is the third
}

TEST(FastCpu, ConstructorValidatesLikeReference) {
  const Program p = assemble("main: halt\n");
  EXPECT_THROW(FastCpu(p, 1000), Error);      // not a power of two
  EXPECT_THROW(FastCpu(p, 1u << 10), Error);  // below 64 KB
  FastCpu cpu(p, 1u << 16);
  EXPECT_EQ(cpu.reg(kSp), (1u << 16) - 16);
  cpu.set_reg(kZero, 99);
  EXPECT_EQ(cpu.reg(kZero), 0u);
  EXPECT_THROW(cpu.reg(32), Error);
}

// Uncaptured runs (no sink) must account identically to captured ones.
TEST(FastCpu, UncapturedRunMatchesCapturedAccounting) {
  const Program p = assemble(R"(
main:   la   t0, buf
        lw   t1, 0(t0)
        sw   t1, 4(t0)
        halt
        .data
buf:    .space 16
)");
  FastCpu plain(p, 1u << 17);
  const RunResult a = plain.run();
  FastCpu captured(p, 1u << 17);
  PackedBufferSink sink;
  const RunResult b = captured.run(1ull << 32, sink);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.halted, b.halted);
  EXPECT_EQ(a.instructions, 5u);
  EXPECT_EQ(a.cycles, 5u + 2u);
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// The simulated memory is pages the OS zero-fills on first touch, so an
// interpreter faults in what its program touches, not all of mem_bytes:
// a 16 MB memory is 4,096 pages. The bound leaves room for the shadow
// pages an ASan build touches too.
TEST(FastCpu, ConstructionFaultsInUnderAQuarterOfItsMemory) {
  const Program p = assemble(R"(
main:   la   t0, buf
        lw   t1, 0(t0)
        halt
        .data
buf:    .word 7
)");
  constexpr std::uint32_t kMem = 16u << 20;
  const long before = minor_faults();
  FastCpu cpu(p, kMem);
  const long faults = minor_faults() - before;
  EXPECT_LT(faults, kMem / 4096 / 4) << faults << " minor faults";
  EXPECT_EQ(cpu.load_word(kMem - 4), 0u);  // untouched memory reads zero
  EXPECT_TRUE(cpu.run().halted);
  EXPECT_EQ(cpu.reg(kT1), 7u);
}

// A refill grows only the stream that ran out: bcnt's data stream (28 k
// words) stays in its initial buffer while the instruction stream
// (442 k words) doubles past it.
TEST(PackedBufferSink, RefillGrowsOnlyTheStreamThatRanOut) {
  constexpr std::size_t kInitialWords = std::size_t{1} << 16;  // the default
  const PackedCapture cap = capture_packed(find_workload("bcnt"));
  ASSERT_GT(cap.ifetch.size(), 4 * kInitialWords);
  EXPECT_LE(cap.data.capacity(), std::max(2 * cap.data.size(), kInitialWords));
  EXPECT_LE(cap.ifetch.capacity(),
            std::max(2 * cap.ifetch.size(), kInitialWords));
}

// --- whole-workload differential --------------------------------------------
//
// Every registered kernel, reference-captured and fast-captured, must agree
// on the RunResult and produce bit-identical packed split streams. This is
// the theorem the entire streaming pipeline rests on.
class WorkloadDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadDifferentialTest, PackedCaptureBitIdentical) {
  const Workload& w = find_workload(GetParam());
  const Program p = assemble(w.source);
  TracingMemory tm;
  Cpu ref(p, tm, w.mem_bytes);
  const RunResult rr = ref.run(w.max_instructions);
  ASSERT_TRUE(rr.halted);
  ASSERT_EQ(ref.reg(kV0), w.expected_checksum);

  const PackedCapture cap = capture_packed(w);  // checksum-verified inside
  EXPECT_EQ(cap.run.instructions, rr.instructions);
  EXPECT_EQ(cap.run.cycles, rr.cycles);
  EXPECT_EQ(cap.run.halted, rr.halted);

  const SplitTrace split = split_trace(tm.trace());
  EXPECT_TRUE(pack_stream(split.ifetch) == cap.ifetch)
      << w.name << ": packed ifetch stream differs";
  EXPECT_TRUE(pack_stream(split.data) == cap.data)
      << w.name << ": packed data stream differs";
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : all_workloads()) names.push_back(w.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDifferentialTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace stcache
