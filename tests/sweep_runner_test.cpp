// SweepRunner: the parallel design-space sweep must be indistinguishable
// from the serial reference — identical CacheStats and bit-identical
// energies for every (workload, configuration) cell, for any worker count —
// and its metrics must account the work done.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cache/config.hpp"
#include "energy/energy_model.hpp"
#include "reference_replay.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

// Two benchmarks with different personalities: a tiny bit-twiddling loop
// and a table-driven streaming codec. Captured once per process.
const std::vector<SplitTrace>& test_traces() {
  static const std::vector<SplitTrace> kTraces = [] {
    std::vector<SplitTrace> t;
    t.push_back(split_trace(capture_trace(find_workload("bcnt"))));
    t.push_back(split_trace(capture_trace(find_workload("crc"))));
    return t;
  }();
  return kTraces;
}

struct Cell {
  CacheStats stats;
  double energy = 0.0;
};

// The sweep grid: (workload, stream, configuration) over all 27 configs.
std::vector<Cell> sweep_all27(SweepRunner& runner) {
  const EnergyModel model;
  const auto& traces = test_traces();
  const auto& configs = all_configs();
  const std::size_t streams = traces.size() * 2;

  return runner.map<Cell>(
      streams * configs.size(), [&](std::size_t j) {
        const SplitTrace& split = traces[j / configs.size() / 2];
        const bool instruction = (j / configs.size()) % 2 == 0;
        const CacheConfig& cfg = configs[j % configs.size()];
        const Trace& stream = instruction ? split.ifetch : split.data;
        Cell cell;
        cell.stats = lone_stats(cfg, pack_stream(stream));
        cell.energy = model.evaluate(cfg, cell.stats).total();
        runner.add_accesses(stream.size());
        return cell;
      });
}

std::vector<Cell> sweep_all27(unsigned jobs) {
  SweepRunner runner(SweepOptions{jobs});
  return sweep_all27(runner);
}

TEST(SweepRunnerTest, ParallelMatchesSerialReferenceOnAll27Configs) {
  const EnergyModel model;
  const auto& traces = test_traces();
  const auto& configs = all_configs();

  // Serial reference, written as the plain double loop a bench would use.
  std::vector<Cell> reference;
  for (const SplitTrace& split : traces) {
    for (const Trace* stream : {&split.ifetch, &split.data}) {
      for (const CacheConfig& cfg : configs) {
        Cell cell;
        cell.stats = lone_stats(cfg, pack_stream(*stream));
        cell.energy = model.evaluate(cfg, cell.stats).total();
        reference.push_back(cell);
      }
    }
  }

  const std::vector<Cell> parallel = sweep_all27(/*jobs=*/8);
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(parallel[i].stats, reference[i].stats) << "cell " << i;
    // Bit-identical, not approximately equal: the parallel path must run
    // the exact same computation on the exact same inputs.
    EXPECT_EQ(parallel[i].energy, reference[i].energy) << "cell " << i;
  }
}

TEST(SweepRunnerTest, DeterministicAcrossJobCounts) {
  const std::vector<Cell> j1 = sweep_all27(1);
  const std::vector<Cell> j2 = sweep_all27(2);
  const std::vector<Cell> j8 = sweep_all27(8);
  ASSERT_EQ(j1.size(), j2.size());
  ASSERT_EQ(j1.size(), j8.size());
  for (std::size_t i = 0; i < j1.size(); ++i) {
    EXPECT_EQ(j1[i].stats, j2[i].stats) << "cell " << i;
    EXPECT_EQ(j1[i].stats, j8[i].stats) << "cell " << i;
    EXPECT_EQ(j1[i].energy, j2[i].energy) << "cell " << i;
    EXPECT_EQ(j1[i].energy, j8[i].energy) << "cell " << i;
  }
}

TEST(SweepRunnerTest, BankReplayMatchesPerConfigReplay) {
  const auto& configs = all_configs();
  for (const SplitTrace& split : test_traces()) {
    const std::vector<std::uint32_t> packed = pack_stream(split.ifetch);
    const std::vector<CacheStats> bank =
        feed_stats(BankAccumulator(configs), packed);
    ASSERT_EQ(bank.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
      EXPECT_EQ(bank[c], lone_stats(configs[c], packed)) << configs[c].name();
    }
  }
}

TEST(SweepRunnerTest, MetricsAccountTheWork) {
  SweepRunner runner(SweepOptions{2});
  const std::vector<Cell> cells = sweep_all27(runner);

  const auto& traces = test_traces();
  std::uint64_t expected_accesses = 0;
  for (const SplitTrace& split : traces) {
    expected_accesses += (split.ifetch.size() + split.data.size()) *
                         all_configs().size();
  }
  const SweepMetrics m = runner.metrics();
  EXPECT_EQ(m.workers, 2u);
  EXPECT_EQ(m.jobs_run, cells.size());
  EXPECT_EQ(m.simulated_accesses, expected_accesses);
  EXPECT_GT(m.wall_seconds, 0.0);

  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"jobs_run\": " + std::to_string(cells.size())),
            std::string::npos);
  EXPECT_NE(json.find("\"simulated_accesses\": " +
                      std::to_string(expected_accesses)),
            std::string::npos);
  EXPECT_NE(json.find("\"accesses_per_second\""), std::string::npos);
}

TEST(SweepRunnerTest, JobExceptionPropagatesInIndexOrder) {
  SweepRunner runner(SweepOptions{4});
  EXPECT_THROW(
      runner.map<int>(16,
                      [](std::size_t j) -> int {
                        if (j == 3) throw std::runtime_error("job 3 failed");
                        return static_cast<int>(j);
                      }),
      std::runtime_error);
}

TEST(SweepRunnerTest, JobExceptionCarriesIndexAndLabelContext) {
  // A failure deep inside a thousand-cell sweep must say WHICH cell died.
  SweepRunner runner(SweepOptions{4});
  try {
    runner.map<int>(
        16,
        [](std::size_t j) -> int {
          if (j == 3) throw std::runtime_error("disk on fire");
          return static_cast<int>(j);
        },
        [](std::size_t j) { return "crc x cfg" + std::to_string(j); });
    FAIL() << "map() swallowed the job exception";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep job 3/16"), std::string::npos) << what;
    EXPECT_NE(what.find("[crc x cfg3]"), std::string::npos) << what;
    EXPECT_NE(what.find("disk on fire"), std::string::npos) << what;
  }
}

TEST(SweepRunnerTest, JobExceptionContextWorksWithoutALabel) {
  SweepRunner runner(SweepOptions{1});  // serial path
  try {
    runner.map<int>(4, [](std::size_t j) -> int {
      if (j == 2) throw std::runtime_error("boom");
      return 0;
    });
    FAIL() << "map() swallowed the job exception";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep job 2/4: boom"), std::string::npos) << what;
  }
}

TEST(SweepRunnerTest, HardwareConcurrencyDefault) {
  SweepRunner runner;  // jobs = 0
  EXPECT_GE(runner.workers(), 1u);
  const std::vector<int> out =
      runner.map<int>(5, [](std::size_t j) { return static_cast<int>(j) * 3; });
  EXPECT_EQ(out, (std::vector<int>{0, 3, 6, 9, 12}));
}

}  // namespace
}  // namespace stcache
