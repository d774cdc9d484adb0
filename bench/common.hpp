// Shared helpers for the experiment harnesses in bench/.
//
// Each bench binary regenerates one table or figure of the paper. The
// helpers here capture workload traces once per process, parse the sweep
// CLI flags every full-space bench accepts (--jobs N, --metrics-out PATH),
// and provide the parallel (workload x configuration) sweep plumbing on top
// of core/sweep.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "core/sweep.hpp"
#include "energy/energy_model.hpp"
#include "trace/replay.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workloads/workload.hpp"

namespace stcache::bench {

// Captured and split traces for every workload, computed lazily and cached
// for the lifetime of the process.
//
// Thread safety: the function-local static is initialized under the C++11
// magic-static guard, so concurrent first calls block until one thread has
// captured everything. The capture path itself (all_workloads() ->
// assemble() -> Cpu::run with a TracingMemory) touches only locals plus
// const magic statics (the workload/config registries), so the guarded
// initializer is reentrancy-safe. Sweep benches still call this BEFORE
// starting the SweepRunner so that trace capture stays out of the timed
// region and workers never contend on the guard.
inline const std::map<std::string, SplitTrace>& all_split_traces() {
  static const std::map<std::string, SplitTrace> kTraces = [] {
    std::map<std::string, SplitTrace> m;
    for (const Workload& w : all_workloads()) {
      m.emplace(w.name, split_trace(capture_trace(w)));
    }
    return m;
  }();
  return kTraces;
}

// The split traces in deterministic (name-sorted) order, for index-keyed
// sweep jobs. Capturing happens here, before any timing starts.
struct NamedSplitTrace {
  const std::string* name;
  const SplitTrace* split;
};
inline std::vector<NamedSplitTrace> ordered_split_traces() {
  std::vector<NamedSplitTrace> out;
  for (const auto& [name, split] : all_split_traces()) {
    out.push_back({&name, &split});
  }
  return out;
}

// Workload names in the paper's Table 1 order.
inline std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : all_workloads()) names.push_back(w.name);
  return names;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "================================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << " of Zhang/Vahid/Lysecky, DATE'04)\n"
            << "================================================================\n";
}

// --- sweep CLI --------------------------------------------------------------

struct BenchOptions {
  SweepOptions sweep;       // --jobs N (0 = hardware_concurrency)
  std::string metrics_out;  // --metrics-out PATH (JSON)
  unsigned sweep_jobs = 0;  // --sweep-jobs N (0 = keep the process default)
};

// Parse the common sweep flags; exits with usage on anything unknown and
// with status 2 on a malformed number (--jobs 0..4096, --sweep-jobs
// 1..32). Benches are measurement binaries, so the informational
// [sim]/[trace_io] stderr metrics stay on by default here (tools default
// them off; see util/metrics.hpp).
inline BenchOptions parse_bench_args(int argc, char** argv) {
  set_metrics_enabled(true);
  BenchOptions opts;
  const auto value = [&](int& i, std::uint64_t min_value,
                         std::uint64_t max_value) {
    std::uint64_t v = 0;
    if (!parse_flag_u64(argv[i], argv[i + 1], min_value, max_value, v)) {
      std::exit(2);
    }
    ++i;
    return static_cast<unsigned>(v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      opts.sweep.jobs = value(i, 0, 4096);
    } else if (arg == "--sweep-jobs" && i + 1 < argc) {
      // Intra-bank threads, at most one per line-size group (each group's
      // result is its serial result — stdout stays byte-identical).
      // Composes with the workload-level --jobs pool: total threads ~=
      // jobs * sweep-jobs.
      opts.sweep_jobs = value(i, 1, 32);
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      opts.metrics_out = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--jobs N] [--sweep-jobs N] [--metrics-out file.json]\n";
      std::exit(2);
    }
  }
  if (opts.sweep_jobs != 0) set_default_sweep_jobs(opts.sweep_jobs);
  return opts;
}

// Print the sweep summary to stderr (stdout carries the table and must be
// byte-identical across --jobs values) and export JSON if requested. An
// unwritable metrics path is a clean exit(1), not an uncaught throw — the
// table has already been printed by this point.
inline void finish_sweep(const SweepRunner& runner, const BenchOptions& opts) {
  runner.print_metrics(std::cerr);
  try {
    runner.write_metrics_json(opts.metrics_out);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(1);
  }
}

// --- gated snapshots ---------------------------------------------------------
//
// The five gated benches (replay, serving, resilience, scaled, phase) write
// their --out file through Snapshot, in the shape of BENCHMARK.json:
//
//   {"bench": NAME, "cpus": N,
//    "metrics": {NAME: {"value": V, "unit": U,
//                       "better": "higher" | "lower" | "equal",
//                       "bound": B | null}, ...},
//    "floors": [{"metric": M | "metrics": [M, ...], "at_least": K,
//                "min": X | "max": X, "min_cpus": C}, ...]}
//
// scripts/bench_check.py compares a fresh snapshot with the committed one,
// taking every bound and floor from the committed file. A bound is the
// fraction a timed value may fall behind the committed one; bound 0 marks
// a deterministic value (a count, an energy) that must match exactly; null
// marks a value only floors read. Floors are checked on the fresh values;
// they are constants in each bench's source, so only a source change moves
// them. A bench writes its snapshot only when --out is given.

// The fraction a timed rate may fall behind its committed snapshot.
inline constexpr double kRateBound = 0.20;

struct Floor {
  std::vector<std::string> metrics;  // one metric, or a group
  const char* op;                    // "min" or "max"
  double limit;
  unsigned at_least = 0;  // a group: how many must hold (0 = all)
  unsigned min_cpus = 0;  // armed only when the run had this many cpus
};

class Snapshot {
 public:
  explicit Snapshot(std::string bench)
      : bench_(std::move(bench)),
        cpus_(std::max(1u, std::thread::hardware_concurrency())) {}

  unsigned cpus() const { return cpus_; }

  // A timed rate, gated at kRateBound behind the committed one.
  void rate(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit, "higher", kRateBound});
  }
  // A deterministic value: any difference from the committed one fails.
  void exact(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit, "equal", 0.0});
  }
  // A value that only floors read.
  void ratio(const std::string& name, double value, const char* unit,
             const char* better = "higher") {
    metrics_.push_back({name, value, unit, better, std::nullopt});
  }
  void floor(Floor f) { floors_.push_back(std::move(f)); }

  // Writes the snapshot to `path`; nothing when `path` is empty. Returns
  // false (after printing why) when the file cannot be written.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream os(path);
    os << "{\n  \"bench\": \"" << bench_ << "\",\n  \"cpus\": " << cpus_
       << ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      // Exact values keep every digit so the round trip compares equal.
      os << (i ? ",\n" : "\n") << "    \"" << m.name << "\": {\"value\": "
         << num(m.value, m.bound == 0.0 ? 17 : 6) << ", \"unit\": \""
         << m.unit << "\", \"better\": \"" << m.better << "\", \"bound\": "
         << (m.bound ? num(*m.bound, 6) : "null") << "}";
    }
    os << "\n  },\n  \"floors\": [";
    for (std::size_t i = 0; i < floors_.size(); ++i) {
      const Floor& f = floors_[i];
      os << (i ? ",\n" : "\n") << "    {";
      if (f.metrics.size() == 1) {
        os << "\"metric\": \"" << f.metrics[0] << "\"";
      } else {
        os << "\"metrics\": [";
        for (std::size_t j = 0; j < f.metrics.size(); ++j) {
          os << (j ? ", " : "") << "\"" << f.metrics[j] << "\"";
        }
        os << "]";
      }
      if (f.at_least != 0) os << ", \"at_least\": " << f.at_least;
      os << ", \"" << f.op << "\": " << num(f.limit, 6);
      if (f.min_cpus != 0) os << ", \"min_cpus\": " << f.min_cpus;
      os << "}";
    }
    os << "\n  ]\n}\n";
    if (!os.flush()) {
      std::cerr << "error: cannot write '" << path << "'\n";
      return false;
    }
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
    const char* better;
    std::optional<double> bound;
  };

  static std::string num(double v, int digits) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    return buf;
  }

  std::string bench_;
  unsigned cpus_;
  std::vector<Metric> metrics_;
  std::vector<Floor> floors_;
};

}  // namespace stcache::bench

namespace stcache::bench {

// The workloads in the same deterministic (name-sorted) order that
// ordered_split_traces() uses, for benches that capture per job instead of
// priming the process-wide trace cache. Keeping the order identical keeps
// every serial floating-point reduction — and therefore stdout — identical.
inline std::vector<const Workload*> ordered_workloads() {
  std::vector<const Workload*> out;
  for (const Workload& w : all_workloads()) out.push_back(&w);
  std::sort(out.begin(), out.end(),
            [](const Workload* a, const Workload* b) { return a->name < b->name; });
  return out;
}

// Shared implementation of Figures 3 and 4: sweep the 18 base
// configurations over all benchmarks' instruction or data streams,
// reporting average miss rate and average normalized energy (normalized
// per-benchmark to the 8 KB 4-way 32 B base, as the figures normalize
// fetch energy).
//
// The (workload x configuration) grid is evaluated by a SweepRunner with
// one BANK job per workload. Each job streams its workload from the fast
// interpreter directly in packed form — no TraceRecord AoS, no disk — and
// folds each chunk, as the capture thread produces it, into a
// BankAccumulator that covers a whole line-size group in a single
// stack-distance traversal. The averages are then reduced serially in
// workload-major (name-sorted) order, so the table is byte-identical for
// any --jobs and --sweep-jobs value (chunked and one-shot feeding are
// bit-identical by construction).
inline int run_config_space_figure(bool instruction_stream,
                                   const BenchOptions& opts) {
  const char* which = instruction_stream ? "instruction" : "data";
  print_header(std::string("Average ") + which +
                   " miss rate and normalized energy over the 18 "
                   "size/line/associativity configurations",
               instruction_stream ? "Figure 3" : "Figure 4");

  const EnergyModel model;
  const std::vector<const Workload*> workloads = ordered_workloads();
  const std::vector<CacheConfig>& cfgs = base_configs();

  // Index of the normalization base (8K_4W_32B) inside the swept grid, so
  // its measurement is shared rather than repeated.
  std::size_t base_idx = cfgs.size();
  for (std::size_t c = 0; c < cfgs.size(); ++c) {
    if (cfgs[c] == base_cache()) base_idx = c;
  }

  struct Cell {
    double miss_rate = 0.0;
    double energy = 0.0;
  };
  SweepRunner runner(opts.sweep);
  const std::vector<std::vector<Cell>> rows_by_workload =
      runner.map<std::vector<Cell>>(
          workloads.size(),
          [&](std::size_t w) {
            BankAccumulator bank(cfgs);
            stream_workload(*workloads[w], [&](const PackedChunk& chunk) {
              bank.feed(instruction_stream ? chunk.ifetch_words()
                                           : chunk.data_words());
            });
            const std::vector<CacheStats> stats = bank.stats();
            runner.add_accesses(bank.words_fed() * cfgs.size());
            std::vector<Cell> row(cfgs.size());
            for (std::size_t c = 0; c < cfgs.size(); ++c) {
              row[c] = Cell{stats[c].miss_rate(),
                            model.evaluate(cfgs[c], stats[c]).total()};
            }
            return row;
          },
          [&](std::size_t w) { return workloads[w]->name + " x all configs"; });
  std::vector<Cell> cells;
  cells.reserve(workloads.size() * cfgs.size());
  for (const std::vector<Cell>& row : rows_by_workload) {
    cells.insert(cells.end(), row.begin(), row.end());
  }

  Table table({"config", "avg miss rate", "avg normalized energy"});
  struct Row {
    CacheConfig cfg;
    double miss_sum = 0.0;
    double energy_sum = 0.0;
  };
  std::vector<Row> rows;
  for (const CacheConfig& cfg : cfgs) rows.push_back({cfg, 0, 0});

  const unsigned n = static_cast<unsigned>(workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const double base = cells[w * cfgs.size() + base_idx].energy;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
      const Cell& cell = cells[w * cfgs.size() + c];
      rows[c].miss_sum += cell.miss_rate;
      rows[c].energy_sum += cell.energy / base;
    }
  }

  for (const Row& row : rows) {
    table.add_row({row.cfg.name(), fmt_percent(row.miss_sum / n, 2),
                   fmt_double(row.energy_sum / n, 3)});
  }
  table.print(std::cout);

  // The figures' qualitative reading: size has the largest impact, line
  // size matters more for data than instructions, associativity the least.
  auto avg_over = [&](auto pred) {
    double sum = 0;
    unsigned count = 0;
    for (const Row& row : rows) {
      if (pred(row.cfg)) {
        sum += row.energy_sum / n;
        ++count;
      }
    }
    return sum / count;
  };
  std::cout << "\nAverage normalized energy by total size:\n";
  for (CacheSizeKB s : kCacheSizes) {
    std::cout << "  " << to_string(s) << "B-class: "
              << fmt_double(avg_over([&](const CacheConfig& c) {
                              return c.size_kb == s;
                            }),
                            3)
              << "\n";
  }
  std::cout << "Average normalized energy by line size:\n";
  for (LineBytes l : kLineSizes) {
    std::cout << "  " << to_string(l) << ": "
              << fmt_double(avg_over([&](const CacheConfig& c) {
                              return c.line == l;
                            }),
                            3)
              << "\n";
  }
  std::cout << "Average normalized energy by associativity:\n";
  for (Assoc a : kAssocs) {
    std::cout << "  " << to_string(a) << ": "
              << fmt_double(avg_over([&](const CacheConfig& c) {
                              return c.assoc == a;
                            }),
                            3)
              << "\n";
  }
  finish_sweep(runner, opts);
  return 0;
}

}  // namespace stcache::bench
