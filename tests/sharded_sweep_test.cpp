// Determinism suite for the group-threaded bank (trace/replay.hpp,
// BankAccumulator sweep_jobs).
//
// A bank is one group per line size, and each group is one sweep
// traversal, whether it holds one configuration or nine. With
// sweep_jobs > 1, feed() runs the groups on min(sweep_jobs, groups)
// threads, and every group replays each chunk whole on exactly one
// thread. Groups share no state, so each group's result is its serial
// result whichever thread ran it: for any thread count and any feed
// chunking, stats() must be bit-identical, every CacheStats counter, to
// the serial bank of the same stream (which the equivalence suite pins to
// the reference models).
// These tests enforce that on real workload streams (instruction AND data
// sides), on adversarial synthetics (strided scans, pointer chases, tight
// loops), on scaled geometry banks, and on banks whose singleton groups
// run on threads, and they pin the effective thread count of each bank.
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
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

constexpr std::size_t kMaxRecords = 120'000;

// Packed split streams of a captured workload, cached across tests.
struct PackedWorkload {
  std::vector<std::uint32_t> ifetch;
  std::vector<std::uint32_t> data;
};

const PackedWorkload& packed_workload(const std::string& name) {
  static auto* cache = new std::map<std::string, PackedWorkload>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    Trace t = capture_trace(find_workload(name));
    if (t.size() > kMaxRecords) t.resize(kMaxRecords);
    const SplitTrace split = split_trace(t);
    PackedWorkload p;
    pack_stream(split.ifetch, p.ifetch);
    pack_stream(split.data, p.data);
    it = cache->emplace(name, std::move(p)).first;
  }
  return it->second;
}

std::vector<std::uint32_t> pack(const Trace& t) {
  std::vector<std::uint32_t> out;
  pack_stream(t, out);
  return out;
}

// Serial ground truth: one bank, jobs = 1, single feed.
std::vector<CacheStats> serial_stats(std::span<const std::uint32_t> packed) {
  BankAccumulator bank(all_configs(), {}, 1);
  bank.feed(packed);
  return bank.stats();
}

void expect_sharded_identical(std::span<const std::uint32_t> packed,
                              const std::string& stream_name) {
  const std::vector<CacheStats> serial = serial_stats(packed);
  // 2 leaves one thread two of the three groups; 4, 7 and 32 clamp to 3.
  for (const unsigned jobs : {2u, 4u, 7u, 32u}) {
    BankAccumulator bank(all_configs(), {}, jobs);
    bank.feed(packed);
    const std::vector<CacheStats> sharded = bank.stats();
    ASSERT_EQ(sharded.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i], serial[i])
          << stream_name << " x " << all_configs()[i].name() << " jobs="
          << jobs << " (effective " << bank.sweep_jobs() << ")";
    }
  }
}

// One thread per line-size group at most: three for the 27-config bank,
// four for the scaled spaces' four line sizes, and none beyond the caller
// for a bank of one (what every Fig. 6 walk measures).
TEST(ShardedSweep, JobsClampToLineSizeGroups) {
  const PackedWorkload& w = packed_workload("crc");
  const std::vector<CacheStats> serial = serial_stats(w.ifetch);
  for (const auto& [jobs, effective] :
       {std::pair{2u, 2u}, std::pair{4u, 3u}, std::pair{32u, 3u}}) {
    BankAccumulator bank(all_configs(), {}, jobs);
    EXPECT_EQ(bank.sweep_jobs(), effective) << "jobs=" << jobs;
    bank.feed(w.ifetch);
    const std::vector<CacheStats> threaded = bank.stats();
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(threaded[i], serial[i])
          << all_configs()[i].name() << " jobs=" << jobs;
    }
  }
  EXPECT_EQ(
      BankAccumulator(ScaledSpace::embedded_32k().configs(), {}, 32)
          .sweep_jobs(),
      4u);
  const CacheConfig one = all_configs().front();
  EXPECT_EQ(
      BankAccumulator(std::span<const CacheConfig>(&one, 1), {}, 4)
          .sweep_jobs(),
      1u);
}

TEST(ShardedSweep, DefaultIsSerial) {
  // set_default_sweep_jobs is not in play here, so a default-constructed
  // bank must not spawn a pool.
  BankAccumulator bank(all_configs());
  EXPECT_EQ(bank.sweep_jobs(), 1u);
}

TEST(ShardedSweep, SetDefaultSweepJobsIsPickedUp) {
  set_default_sweep_jobs(4);
  BankAccumulator bank(all_configs());
  EXPECT_EQ(bank.sweep_jobs(), 3u);  // the 27-config bank's three groups
  set_default_sweep_jobs(0);  // back to serial
  BankAccumulator serial(all_configs());
  EXPECT_EQ(serial.sweep_jobs(), 1u);
}

TEST(ShardedSweep, WorkloadIFetchStreams) {
  for (const std::string name : {"crc", "bcnt", "ucbqsort"}) {
    expect_sharded_identical(packed_workload(name).ifetch, name + " I");
  }
}

TEST(ShardedSweep, WorkloadDataStreams) {
  for (const std::string name : {"crc", "bcnt", "ucbqsort"}) {
    expect_sharded_identical(packed_workload(name).data, name + " D");
  }
}

// Streaming pipeline shape: many small uneven chunks, threaded, must equal
// one serial feed of the concatenation (chunk boundaries never align with
// line boundaries).
TEST(ShardedSweep, ChunkedFeedMatchesSingleFeed) {
  const PackedWorkload& w = packed_workload("ucbqsort");
  const std::span<const std::uint32_t> packed = w.ifetch;
  const std::vector<CacheStats> serial = serial_stats(packed);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{37},
                                  std::size_t{4096}, std::size_t{65'536}}) {
    BankAccumulator bank(all_configs(), {}, 4);
    for (std::size_t off = 0; off < packed.size(); off += chunk) {
      bank.feed(packed.subspan(off, std::min(chunk, packed.size() - off)));
    }
    EXPECT_EQ(bank.words_fed(), packed.size());
    const std::vector<CacheStats> sharded = bank.stats();
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i], serial[i])
          << "chunk=" << chunk << " x " << all_configs()[i].name();
    }
  }
}

TEST(ShardedSweep, AdversarialSynthetics) {
  Rng rng(0x5EED5EED);
  std::vector<std::pair<std::string, Trace>> streams;
  // Uniform thrash: working set 8x the largest cache, heavy write-backs.
  streams.emplace_back(
      "uniform64k", gen_uniform(0x10000, 64 * 1024, kMaxRecords, 0.30, rng));
  // 64 B-stride write scan: every access lands in a new line.
  streams.emplace_back("strided64",
                       gen_strided(0x2000, 64, kMaxRecords / 2, 0.5, rng));
  // Pointer chase: temporal reuse, no spatial locality.
  streams.emplace_back(
      "chase32k",
      gen_pointer_chase(0x8000, 32 * 1024, 16, kMaxRecords / 2, rng));
  // Tight fetch loop: lives on the repeat fast path.
  streams.emplace_back("loop4k", gen_loop_ifetch(0x400, 4096, 100));
  for (const auto& [name, trace] : streams) {
    expect_sharded_identical(pack(trace), name);
  }
}

// Scaled (generic-geometry) banks thread too: four line-size families, so
// any thread count must stay bit-identical to the serial generalized
// traversal — on both stream sides, with fewer threads than groups, and
// with chunked feeding.
TEST(ShardedSweep, ScaledBankShardsBitIdentical) {
  const ScaledSpace space = ScaledSpace::embedded_32k();
  const std::vector<CacheGeometry>& geoms = space.configs();
  for (const std::string name : {"crc", "ucbqsort"}) {
    const PackedWorkload& w = packed_workload(name);
    for (const auto* stream : {&w.ifetch, &w.data}) {
      const std::span<const std::uint32_t> packed = *stream;
      BankAccumulator serial_bank(geoms, {}, 1);
      serial_bank.feed(packed);
      const std::vector<CacheStats> serial = serial_bank.stats();
      for (const unsigned jobs : {2u, 3u, 4u}) {
        BankAccumulator bank(geoms, {}, jobs);
        // Chunked feed: boundaries never align with lines.
        const std::size_t chunk = 4097;
        for (std::size_t off = 0; off < packed.size(); off += chunk) {
          bank.feed(packed.subspan(off, std::min(chunk, packed.size() - off)));
        }
        const std::vector<CacheStats> sharded = bank.stats();
        ASSERT_EQ(sharded.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
          EXPECT_EQ(sharded[i], serial[i])
              << name << " x " << geometry_name(geoms[i]) << " jobs=" << jobs
              << " (effective " << bank.sweep_jobs() << ")";
        }
      }
    }
  }
}

// Degenerate feeds: empty, single record, fewer records than threads.
TEST(ShardedSweep, TinyStreams) {
  const std::vector<CacheConfig>& configs = all_configs();
  {
    BankAccumulator bank(configs, {}, 4);
    bank.feed({});
    const std::vector<CacheStats> stats = bank.stats();
    for (const CacheStats& s : stats) EXPECT_EQ(s.accesses, 0u);
  }
  std::vector<std::uint32_t> tiny;
  for (std::uint32_t i = 0; i < 9; ++i) {
    tiny.push_back(i * 5u);  // spread over several sets
  }
  for (std::size_t n : {std::size_t{1}, tiny.size()}) {
    const std::span<const std::uint32_t> s(tiny.data(), n);
    const std::vector<CacheStats> serial = serial_stats(s);
    BankAccumulator bank(configs, {}, 32);
    bank.feed(s);
    const std::vector<CacheStats> sharded = bank.stats();
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i], serial[i]) << "n=" << n;
    }
  }
}

// Singletons leave the caller thread too: banks whose other line sizes
// hold one configuration each run one-slot StackSweepSim groups (platform)
// or one-member NestedSweepSim groups (geometry) on pool threads, next to
// a full sweep group. Each configuration must match its reference-model
// replay and the serial bank.
TEST(ShardedSweep, SingletonGroupsRunOnThreads) {
  const PackedWorkload& w = packed_workload("ucbqsort");
  constexpr std::size_t kChunk = 4097;

  std::vector<CacheConfig> configs;
  for (const CacheConfig& c : all_configs()) {
    if (c.line_bytes() == 16) configs.push_back(c);
  }
  configs.push_back({CacheSizeKB::k4, Assoc::w2, LineBytes::b32, true});
  configs.push_back({CacheSizeKB::k8, Assoc::w1, LineBytes::b64, false});
  ASSERT_EQ(configs.size(), 11u);

  const ScaledSpace space = ScaledSpace::embedded_32k();
  std::vector<CacheGeometry> geoms;
  for (const CacheGeometry& g : space.configs()) {
    if (g.line_bytes == 16) geoms.push_back(g);
  }
  geoms.push_back({8192, 2, 128});

  for (const auto* stream : {&w.ifetch, &w.data}) {
    const std::span<const std::uint32_t> packed = *stream;
    {
      BankAccumulator bank(configs, {}, 3);
      ASSERT_EQ(bank.sweep_jobs(), 3u);
      const std::vector<CacheStats> threaded =
          feed_stats(std::move(bank), packed, kChunk);
      const std::vector<CacheStats> serial =
          feed_stats(BankAccumulator(configs, {}, 1), packed);
      for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(threaded[i], reference_stats(configs[i], packed))
            << configs[i].name();
        EXPECT_EQ(threaded[i], serial[i]) << configs[i].name();
      }
    }
    {
      BankAccumulator bank(geoms, {}, 3);
      ASSERT_EQ(bank.sweep_jobs(), 2u);
      const std::vector<CacheStats> threaded =
          feed_stats(std::move(bank), packed, kChunk);
      const std::vector<CacheStats> serial =
          feed_stats(BankAccumulator(geoms, {}, 1), packed);
      for (std::size_t i = 0; i < geoms.size(); ++i) {
        EXPECT_EQ(threaded[i], reference_stats(geoms[i], packed))
            << geometry_name(geoms[i]);
        EXPECT_EQ(threaded[i], serial[i]) << geometry_name(geoms[i]);
      }
    }
  }
}

// Moved-from/moved-to banks keep working (the pool moves too).
TEST(ShardedSweep, MoveSemantics) {
  const PackedWorkload& w = packed_workload("crc");
  const std::vector<CacheStats> serial = serial_stats(w.ifetch);
  BankAccumulator a(all_configs(), {}, 4);
  a.feed(std::span<const std::uint32_t>(w.ifetch.data(), w.ifetch.size() / 2));
  BankAccumulator b = std::move(a);
  b.feed(std::span<const std::uint32_t>(w.ifetch)
             .subspan(w.ifetch.size() / 2));
  const std::vector<CacheStats> moved = b.stats();
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(moved[i], serial[i]) << all_configs()[i].name();
  }
}

}  // namespace
}  // namespace stcache
