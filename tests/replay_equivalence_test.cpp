// Differential equivalence suite for the replay kernels.
//
// The single-pass sweep kernels (cache/stack_sweep.hpp,
// cache/nested_sweep.hpp) behind BankAccumulator are only allowed to exist
// because they are bit-identical to the behavioral references, for a full
// bank and for a configuration measured alone: for every legal
// configuration and every geometry of a scaled space, replaying the same
// stream must produce the exact same CacheStats — every counter, not just
// miss rates. This is the guarantee that lets every figure bench measure
// through the bank while the paper's numbers stay attributable to the
// reference model. (Write-through and victim buffers exist only on the
// reference model; write_policy_test, victim_buffer_test and system_test
// cover them.)
//
// Streams: bounded prefixes of three real captured workloads (instruction
// + data mix, so loads, stores, and fetches all appear) plus adversarial
// synthetics — a uniform-random stream whose working set exceeds the
// largest cache (eviction/write-back churn), a cache-line-stride write
// scan (pathological set conflicts), a pointer chase (temporal reuse with
// no spatial locality), and a tight fetch loop (the sweep kernel's repeat
// fast path and, at 32/64 B lines, its same-line step).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/config.hpp"
#include "core/scaled_space.hpp"
#include "reference_replay.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

// Kept modest so the whole suite stays fast under ASan/UBSan; equivalence
// over a 120k-record prefix exercises every kernel path (fills, evictions,
// rescues, mispredicts) thousands of times per configuration.
constexpr std::size_t kMaxRecords = 120'000;

std::span<const TraceRecord> workload_prefix(const std::string& name) {
  static std::map<std::string, Trace>* traces = new std::map<std::string, Trace>();
  auto it = traces->find(name);
  if (it == traces->end()) {
    it = traces->emplace(name, capture_trace(find_workload(name))).first;
  }
  const Trace& t = it->second;
  return std::span<const TraceRecord>(t.data(), std::min(t.size(), kMaxRecords));
}

std::span<const TraceRecord> synthetic_stream() {
  static const Trace t = [] {
    Rng rng(0xFA57CACE);
    // 64 KB working set (8x the largest cache), 30% writes.
    return gen_uniform(0x10000, 64 * 1024, kMaxRecords, 0.30, rng);
  }();
  return t;
}

// Adversarial streams for the bank/oneshot path: conflict-heavy strides,
// pure temporal reuse, and a tight loop that lives on the repeat fast path.
const std::vector<std::pair<std::string, Trace>>& adversarial_streams() {
  static const auto* streams = [] {
    auto* v = new std::vector<std::pair<std::string, Trace>>();
    Rng rng(0x5EED5EED);
    v->emplace_back("strided64",
                    gen_strided(0x2000, 64, kMaxRecords / 2, 0.5, rng));
    v->emplace_back("chase32k",
                    gen_pointer_chase(0x8000, 32 * 1024, 16, kMaxRecords / 2, rng));
    v->emplace_back("loop4k", gen_loop_ifetch(0x400, 4096, 100));
    return v;
  }();
  return *streams;
}

// Each configuration measured alone (a bank of one: a one-slot
// StackSweepSim, the path of an evaluator's memo miss) against
// ConfigurableCache.
void expect_identical(std::span<const TraceRecord> stream,
                      const std::string& stream_name) {
  const std::vector<std::uint32_t> packed = pack_stream(stream);
  for (const CacheConfig& cfg : all_configs()) {
    EXPECT_EQ(reference_stats(cfg, stream), lone_stats(cfg, packed))
        << stream_name << " x " << cfg.name();
  }
}

TEST(ReplayEquivalence, WorkloadCrc) { expect_identical(workload_prefix("crc"), "crc"); }

TEST(ReplayEquivalence, WorkloadBcnt) {
  expect_identical(workload_prefix("bcnt"), "bcnt");
}

TEST(ReplayEquivalence, WorkloadUcbqsort) {
  expect_identical(workload_prefix("ucbqsort"), "ucbqsort");
}

TEST(ReplayEquivalence, SyntheticUniformThrash) {
  expect_identical(synthetic_stream(), "uniform64k");
}

TEST(ReplayEquivalence, LoneConfigAdversarial) {
  for (const auto& [name, trace] : adversarial_streams()) {
    expect_identical(trace, name);
  }
}

TimingParams custom_timing() {
  TimingParams timing;
  timing.hit_cycles = 2;
  timing.mispredict_penalty = 3;
  timing.victim_hit_penalty = 5;
  timing.mem_latency = 41;
  timing.cycles_per_beat = 7;
  return timing;
}

// Non-default timing must flow through both models identically (the sweep
// kernel derives cycle and stall totals from its histogram at stats()
// time).
TEST(ReplayEquivalence, CustomTiming) {
  const TimingParams timing = custom_timing();
  const std::span<const TraceRecord> stream = workload_prefix("crc");
  const std::vector<std::uint32_t> packed = pack_stream(stream);
  for (const CacheConfig& cfg : all_configs()) {
    EXPECT_EQ(reference_stats(cfg, stream, timing),
              lone_stats(cfg, packed, timing))
        << "crc x " << cfg.name() << " custom timing";
  }
}

// The bank against per-configuration reference replay, fed whole on one
// thread and in uneven chunks on four: every grouping (full line-size
// groups and one-config groups) and every feed shape must reproduce the
// reference exactly.
void expect_bank_identical(std::span<const CacheConfig> configs,
                           std::span<const TraceRecord> stream,
                           const std::string& stream_name,
                           const TimingParams& timing = {}) {
  const std::vector<std::uint32_t> packed = pack_stream(stream);
  std::vector<CacheStats> ref;
  for (const CacheConfig& cfg : configs) {
    ref.push_back(reference_stats(cfg, stream, timing));
  }
  const std::vector<CacheStats> serial =
      feed_stats(BankAccumulator(configs, timing, 1), packed);
  const std::vector<CacheStats> sharded =
      feed_stats(BankAccumulator(configs, timing, 4), packed, 4097);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(sharded.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const std::string what = stream_name + " x " + configs[c].name();
    EXPECT_EQ(ref[c], serial[c]) << what;
    EXPECT_EQ(ref[c], sharded[c]) << what << " sharded, chunked";
  }
}

// Partial banks exercise the groupings the full space never forms: a
// singleton line size (a one-slot traversal) next to a swept group.
TEST(ReplayEquivalence, BankMatchesPerConfig) {
  const std::span<const TraceRecord> stream = workload_prefix("bcnt");
  expect_bank_identical(all_configs(), stream, "bcnt");
  const std::vector<CacheConfig> partial = {
      CacheConfig::parse("8K_4W_64B_P"), CacheConfig::parse("2K_1W_16B"),
      CacheConfig::parse("4K_2W_16B_P"), CacheConfig::parse("8K_1W_16B")};
  expect_bank_identical(partial, stream, "bcnt partial");
}

// The full-space bank must be bit-identical to the reference on real
// workloads and on the adversarial synthetics designed to break a
// shared-stack argument.
TEST(ReplayEquivalence, OneshotBankCrc) {
  expect_bank_identical(all_configs(), workload_prefix("crc"), "crc");
}

TEST(ReplayEquivalence, OneshotBankUcbqsort) {
  expect_bank_identical(all_configs(), workload_prefix("ucbqsort"),
                        "ucbqsort");
}

TEST(ReplayEquivalence, OneshotBankAdversarial) {
  expect_bank_identical(all_configs(), synthetic_stream(), "uniform64k");
  for (const auto& [name, trace] : adversarial_streams()) {
    expect_bank_identical(all_configs(), trace, name);
  }
}

// Non-default timing through the bank: the sweep kernel derives cycle and
// stall totals from its histogram at stats() time, which must match the
// reference's per-access accumulation for any TimingParams.
TEST(ReplayEquivalence, OneshotBankCustomTiming) {
  expect_bank_identical(all_configs(), workload_prefix("crc"), "crc",
                        custom_timing());
}

// The generalized geometry bank: a scaled space replayed through
// BankAccumulator (one NestedSweepSim traversal per line-size family,
// serial whole feed and sharded chunked feed) and each geometry measured
// as a bank of one (a one-member family — the path a scaled Fig. 6 walk
// takes) must be bit-identical to CacheModel replay per geometry — the
// same contract the platform bank keeps, extended to arbitrary generic
// geometries.
void expect_scaled_bank_identical(std::span<const CacheGeometry> geoms,
                                  std::span<const TraceRecord> stream,
                                  const std::string& stream_name) {
  const std::vector<std::uint32_t> packed = pack_stream(stream);
  const std::vector<CacheStats> serial =
      feed_stats(BankAccumulator(geoms, {}, 1), packed);
  const std::vector<CacheStats> sharded =
      feed_stats(BankAccumulator(geoms, {}, 3), packed, 4097);
  ASSERT_EQ(serial.size(), geoms.size());
  ASSERT_EQ(sharded.size(), geoms.size());
  for (std::size_t c = 0; c < geoms.size(); ++c) {
    const CacheStats ref = reference_stats(geoms[c], stream);
    const std::string what = stream_name + " x " + geometry_name(geoms[c]);
    EXPECT_EQ(ref, serial[c]) << what << " bank";
    EXPECT_EQ(ref, sharded[c]) << what << " bank, sharded, chunked";
    const std::vector<CacheStats> alone = feed_stats(
        BankAccumulator(geoms.subspan(c, 1), {}, 1), packed);
    EXPECT_EQ(ref, alone.front()) << what << " bank of one";
  }
}

void expect_scaled_bank_identical(std::span<const TraceRecord> stream,
                                  const std::string& stream_name) {
  const ScaledSpace space = ScaledSpace::embedded_32k();
  expect_scaled_bank_identical(space.configs(), stream, stream_name);
}

TEST(ReplayEquivalence, ScaledBankCrc) {
  expect_scaled_bank_identical(workload_prefix("crc"), "crc");
}

TEST(ReplayEquivalence, ScaledBankUcbqsort) {
  expect_scaled_bank_identical(workload_prefix("ucbqsort"), "ucbqsort");
}

TEST(ReplayEquivalence, ScaledBankAdversarial) {
  expect_scaled_bank_identical(synthetic_stream(), "uniform64k");
  for (const auto& [name, trace] : adversarial_streams()) {
    expect_scaled_bank_identical(trace, name);
  }
}

// A single-(size, ways) line family runs as a one-member nested traversal
// next to a swept family. A geometry bank refuses what no traversal can
// replay exactly, up front: sub-16 B lines (packed words are 16 B blocks,
// so two lines would alias per word) and more than 64 ways (the dirty
// masks are 64-bit), whether the geometry is alone or in a family.
TEST(ReplayEquivalence, ScaledBankSingletonFallbackAndSubLineRejection) {
  const std::vector<CacheGeometry> geoms = {
      CacheGeometry{4096, 1, 16},    // }
      CacheGeometry{8192, 2, 16},    // } 16 B family, nested traversal
      CacheGeometry{32768, 4, 128},  // 128 B singleton family
  };
  expect_scaled_bank_identical(geoms, workload_prefix("bcnt"), "bcnt");
  const std::vector<CacheGeometry> sub_line = {CacheGeometry{2048, 1, 8}};
  EXPECT_THROW(BankAccumulator{sub_line}, Error);
  std::vector<CacheGeometry> mixed = geoms;
  mixed.push_back(sub_line.front());
  EXPECT_THROW(BankAccumulator{mixed}, Error);

  const CacheGeometry wide{16384, 128, 16};  // 128 ways, 8 sets
  ASSERT_TRUE(wide.valid());
  const std::vector<CacheGeometry> lone_wide = {wide};
  EXPECT_THROW(BankAccumulator{lone_wide}, Error);
  std::vector<CacheGeometry> wide_member = geoms;
  wide_member.push_back(wide);
  EXPECT_THROW(BankAccumulator{wide_member}, Error);
}

}  // namespace
}  // namespace stcache
