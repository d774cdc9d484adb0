// bench_replay_throughput — differential throughput of the three replay
// kernels on the exhaustive 27-configuration bank sweep (the reference
// ConfigurableCache, the per-configuration FastCacheSim, and the
// BankAccumulator's single-pass "oneshot" stack sweep), of the two
// interpreters on trace capture, and of the streaming pipeline against the
// capture-to-disk round trip.
//
// Usage: bench_replay_throughput [--reps N] [--max-records N]
//                                [--out file.json]
//
// Replay section: for each workload, the 27 legal configurations are
// grouped into specialization classes by (ways, way prediction) — 1W:9,
// 2W:6, 2W_P:6, 4W:3, 4W_P:3 — and each class's bank sweep is timed with
// all three kernels (best of --reps runs; default 3). The exhaustive row
// ("all") is timed DIRECTLY as one 27-configuration bank, not summed from
// the class rows: the oneshot sweep shares one stack-distance traversal
// per line size across every specialization class, so a class-major sum
// would charge it three traversals per class and understate the sharing.
// The stream is captured AND packed once per workload, outside the timed
// region: a rep times bank construction + feed + stats only, so the rows
// measure replay, not the pack pass they all share (capture cost has its
// own section below).
//
// Parallel section: the exhaustive 27-config bank with its line-size
// groups on threads (--sweep-jobs) against serial, reporting the aggregate
// simulated records/second. The bank is asked for min(cpus, 32) threads
// and runs at most one per group, three here; `jobs` records the count it
// actually ran, and the speedup is limited by the largest group's share of
// the serial work. bench_check.py arms the aggregate floor only when the
// snapshot reports cpus >= 2 — one core cannot outrun itself, and each
// group's result is its serial result either way.
//
// Capture section: each workload is captured end to end by the reference
// interpreter (Cpu + TracingMemory, the stcache_trace path) and by the
// fast interpreter (FastCpu + PackedBufferSink, the capture_packed path),
// reported in instructions/second. The fast/reference ratio is the PR's
// capture acceptance metric (>= 3x, gated by scripts/bench_check.py).
//
// End-to-end section: the full exhaustive-tune pipeline per workload,
// (a) the old round trip — reference capture, save_trace to disk,
// load_packed_trace back, 27-config bank sweep — against (b) the streaming
// pipeline — stream_workload folding chunks straight into a
// BankAccumulator, no trace ever materialized. The streaming/disk ratio is
// the second acceptance metric (>= 2x, also gated by bench_check.py).
//
// Results land on stdout as a table and in --out (default
// BENCH_replay.json) as JSON; the committed BENCH_replay.json at the repo
// root is a snapshot from the container this repo is developed in, and
// scripts/bench_check.py gates CI runs against it.
//
// Throughput here counts simulated records: a sweep over C configurations
// of an N-record stream processes N*C records.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cache/configurable_cache.hpp"
#include "cache/fast_cache.hpp"
#include "cache/packed.hpp"
#include "isa/assembler.hpp"
#include "sim/cpu.hpp"
#include "sim/fast_cpu.hpp"
#include "trace/replay.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

struct Options {
  unsigned reps = 3;
  std::size_t max_records = 200'000;
  std::string out = "BENCH_replay.json";
};

std::string class_name(const CacheConfig& cfg) {
  std::string s = std::to_string(static_cast<unsigned>(cfg.ways())) + "W";
  if (cfg.way_prediction) s += "_P";
  return s;
}

template <typename F>
double best_of(unsigned reps, F&& body) {
  double best = 0.0;
  for (unsigned r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

// The three bank sweeps over an already-packed stream. The reference
// interleaves every ConfigurableCache over one pass of the words (block
// << 4 restores a 16 B-aligned address, which no 16 B-or-wider geometry
// distinguishes from the original); the fast sweep replays one FastCacheSim
// per configuration; the oneshot sweep is the production BankAccumulator.
std::vector<CacheStats> reference_bank(const std::vector<CacheConfig>& configs,
                                       std::span<const std::uint32_t> packed) {
  std::vector<ConfigurableCache> bank;
  bank.reserve(configs.size());
  for (const CacheConfig& cfg : configs) bank.emplace_back(cfg);
  for (const std::uint32_t word : packed) {
    const std::uint32_t addr = (word & kPackedBlockMask) << 4;
    const bool write = (word & kPackedWriteBit) != 0;
    for (ConfigurableCache& cache : bank) cache.access(addr, write);
  }
  std::vector<CacheStats> stats;
  for (const ConfigurableCache& cache : bank) stats.push_back(cache.stats());
  return stats;
}

std::vector<CacheStats> fast_bank(const std::vector<CacheConfig>& configs,
                                  std::span<const std::uint32_t> packed) {
  std::vector<FastCacheSim> bank(configs.begin(), configs.end());
  std::vector<CacheStats> stats;
  for (FastCacheSim& sim : bank) {
    sim.replay(packed);
    stats.push_back(sim.stats());
  }
  return stats;
}

std::vector<CacheStats> oneshot_bank(const std::vector<CacheConfig>& configs,
                                     std::span<const std::uint32_t> packed) {
  BankAccumulator bank(configs);
  bank.feed(packed);
  return bank.stats();
}

// Seconds per bank sweep, best of `reps`: construction + replay + stats.
// Every kernel consumes the same packed words, so the rows compare replay
// kernels, not the shared pack pass (hoisted to the caller, outside all
// timing).
template <typename Sweep>
double time_bank(const std::vector<CacheConfig>& configs,
                 std::span<const std::uint32_t> packed, unsigned reps,
                 Sweep&& sweep) {
  return best_of(reps, [&] {
    if (sweep(configs, packed).size() != configs.size()) {
      fail("bank sweep dropped configs");
    }
  });
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// One timed sweep per kernel.
struct EngineTimes {
  double ref = 0.0, fast = 0.0, oneshot = 0.0;
};

EngineTimes time_all_engines(const std::vector<CacheConfig>& configs,
                             std::span<const std::uint32_t> packed,
                             unsigned reps) {
  EngineTimes t;
  t.ref = time_bank(configs, packed, reps, reference_bank);
  t.fast = time_bank(configs, packed, reps, fast_bank);
  t.oneshot = time_bank(configs, packed, reps, oneshot_bank);
  return t;
}

// --- parallel group-threaded sweep -------------------------------------------

// Exhaustive oneshot bank feed+stats with an explicit thread count; the
// bank (its sims) is constructed outside the timed region, the
// lazily-spawned worker pool is inside it (a real cost of the first feed,
// amortized in production by streaming many chunks).
double time_parallel_bank(const std::vector<CacheConfig>& configs,
                          std::span<const std::uint32_t> packed, unsigned jobs,
                          unsigned reps) {
  double best = 0.0;
  for (unsigned r = 0; r < reps; ++r) {
    BankAccumulator bank(configs, {}, jobs);
    const auto start = std::chrono::steady_clock::now();
    bank.feed(packed);
    const std::vector<CacheStats> stats = bank.stats();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (stats.size() != configs.size()) fail("bank sweep dropped configs");
    if (r == 0 || elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

std::string json_rates(const EngineTimes& t, double recs) {
  return "\"reference_records_per_second\": " + fmt(recs / t.ref) +
         ", \"fast_records_per_second\": " + fmt(recs / t.fast) +
         ", \"oneshot_records_per_second\": " + fmt(recs / t.oneshot) +
         ", \"fast_speedup\": " + fmt(t.ref / t.fast) +
         ", \"oneshot_speedup\": " + fmt(t.fast / t.oneshot);
}

// --- capture throughput ------------------------------------------------------

struct CaptureTimes {
  std::uint64_t instructions = 0;
  double ref = 0.0;   // reference interpreter, TraceRecord capture
  double fast = 0.0;  // fast interpreter, packed capture
};

// Times workload -> packed split streams, the product every replay path
// consumes, with assembly hoisted out. The reference route is the old
// round trip: Cpu + TracingMemory capture, split_trace, pack_stream on
// both halves. The fast route emits the packed split streams directly
// (FastCpu + PackedBufferSink) — interpreter construction including the
// predecode pass is inside the timed region.
CaptureTimes time_capture(const Workload& w, unsigned reps) {
  CaptureTimes t;
  const Program p = assemble(w.source);
  std::vector<std::uint32_t> iscratch, dscratch;
  t.ref = best_of(reps, [&] {
    TracingMemory tm;
    Cpu cpu(p, tm, w.mem_bytes);
    const RunResult r = cpu.run(w.max_instructions);
    if (!r.halted || cpu.reg(kV0) != w.expected_checksum) {
      fail("reference capture failed for " + w.name);
    }
    t.instructions = r.instructions;
    const SplitTrace split = split_trace(tm.trace());
    pack_stream(split.ifetch, iscratch);
    pack_stream(split.data, dscratch);
  });
  t.fast = best_of(reps, [&] {
    FastCpu cpu(p, w.mem_bytes);
    PackedBufferSink sink;
    const RunResult r = cpu.run(w.max_instructions, sink);
    if (!r.halted || cpu.reg(kV0) != w.expected_checksum ||
        r.instructions != t.instructions) {
      fail("fast capture diverged for " + w.name);
    }
  });
  return t;
}

// --- end-to-end exhaustive tune ----------------------------------------------

struct EndToEndTimes {
  double disk = 0.0;       // reference capture -> save -> load -> bank sweep
  double streaming = 0.0;  // stream_workload -> BankAccumulator, no trace
};

EndToEndTimes time_end_to_end(const Workload& w, unsigned reps,
                              const std::string& scratch_path) {
  EndToEndTimes t;
  const std::vector<CacheConfig>& configs = all_configs();
  t.disk = best_of(reps, [&] {
    const Program p = assemble(w.source);
    TracingMemory tm;
    Cpu cpu(p, tm, w.mem_bytes);
    const RunResult r = cpu.run(w.max_instructions);
    if (!r.halted || cpu.reg(kV0) != w.expected_checksum) {
      fail("reference capture failed for " + w.name);
    }
    save_trace(scratch_path, tm.trace());
    const PackedSplitTrace split = load_packed_trace(scratch_path);
    BankAccumulator bank(configs);
    bank.feed(split.ifetch);
    if (bank.stats().size() != configs.size()) fail("bank dropped configs");
  });
  t.streaming = best_of(reps, [&] {
    BankAccumulator bank(configs);
    stream_workload(w, [&](const PackedChunk& chunk) {
      bank.feed(chunk.ifetch_words());
    });
    if (bank.stats().size() != configs.size()) fail("bank dropped configs");
  });
  std::remove(scratch_path.c_str());
  return t;
}

int run(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 1, ~std::uint32_t{0}, v))
        return 2;
      opts.reps = static_cast<unsigned>(v);
      ++i;
    } else if (std::strcmp(argv[i], "--max-records") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 1, ~std::uint64_t{0}, v))
        return 2;
      opts.max_records = static_cast<std::size_t>(v);
      ++i;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--reps N] [--max-records N] [--out file.json]\n";
      return 2;
    }
  }

  // Group the 27 configurations by specialization class, preserving
  // registry order inside each class.
  std::map<std::string, std::vector<CacheConfig>> by_class;
  for (const CacheConfig& cfg : all_configs()) {
    by_class[class_name(cfg)].push_back(cfg);
  }

  const std::vector<std::string> workload_set = {"crc", "bcnt", "ucbqsort"};
  Table table({"workload", "class", "configs", "reference rec/s", "fast rec/s",
               "oneshot rec/s", "fast/ref", "oneshot/fast"});
  std::string json = "{\n  \"reps\": " + std::to_string(opts.reps) +
                     ",\n  \"workloads\": [\n";

  // Capture and pack each stream once, before any timing: the replay and
  // parallel sections consume the packed merged trace.
  std::vector<std::vector<std::uint32_t>> packed_streams(workload_set.size());
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    Trace stream = capture_trace(find_workload(workload_set[wi]));
    if (stream.size() > opts.max_records) stream.resize(opts.max_records);
    pack_stream(stream, packed_streams[wi]);
  }

  EngineTimes total;
  std::uint64_t total_records = 0;
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    const std::string& name = workload_set[wi];
    const std::span<const std::uint32_t> packed = packed_streams[wi];

    std::string class_json;
    for (const auto& [cls, cfgs] : by_class) {
      const EngineTimes t = time_all_engines(cfgs, packed, opts.reps);
      const double recs = static_cast<double>(packed.size()) *
                          static_cast<double>(cfgs.size());
      table.add_row({name, cls, std::to_string(cfgs.size()),
                     fmt(recs / t.ref), fmt(recs / t.fast),
                     fmt(recs / t.oneshot), fmt(t.ref / t.fast),
                     fmt(t.fast / t.oneshot)});
      if (!class_json.empty()) class_json += ",\n";
      class_json += "        {\"class\": \"" + cls +
                    "\", \"configs\": " + std::to_string(cfgs.size()) + ", " +
                    json_rates(t, recs) + "}";
    }

    // The exhaustive sweep, timed as one bank (this is where cross-class
    // traversal sharing shows up).
    const EngineTimes wl = time_all_engines(all_configs(), packed, opts.reps);
    const double wl_recs = static_cast<double>(packed.size()) * 27.0;
    table.add_row({name, "all", "27", fmt(wl_recs / wl.ref),
                   fmt(wl_recs / wl.fast), fmt(wl_recs / wl.oneshot),
                   fmt(wl.ref / wl.fast), fmt(wl.fast / wl.oneshot)});
    total.ref += wl.ref;
    total.fast += wl.fast;
    total.oneshot += wl.oneshot;
    total_records += packed.size() * 27;
    json += std::string("    {\"name\": \"") + name +
            "\", \"records\": " + std::to_string(packed.size()) + ",\n     " +
            json_rates(wl, wl_recs) + ",\n     \"classes\": [\n" + class_json +
            "\n     ]}" + (wi + 1 < workload_set.size() ? ",\n" : "\n");
  }

  const double recs = static_cast<double>(total_records);
  table.add_row({"OVERALL", "all", "27", fmt(recs / total.ref),
                 fmt(recs / total.fast), fmt(recs / total.oneshot),
                 fmt(total.ref / total.fast), fmt(total.fast / total.oneshot)});
  table.print(std::cout);
  std::cout << "\nExhaustive 27-config bank sweep: fast vs reference "
            << fmt(total.ref / total.fast) << "x, oneshot vs fast "
            << fmt(total.fast / total.oneshot) << "x\n";

  // --- parallel: group-threaded exhaustive sweep ----------------------------
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const unsigned par_jobs =
      BankAccumulator(all_configs(), {}, std::min(cpus, 32u)).sweep_jobs();
  Table par_table({"workload", "records", "serial rec/s", "parallel rec/s",
                   "speedup"});
  std::string par_json;
  double par_serial_total = 0.0, par_par_total = 0.0;
  std::uint64_t par_records = 0;
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    const std::span<const std::uint32_t> packed = packed_streams[wi];
    const double serial =
        time_parallel_bank(all_configs(), packed, 1, opts.reps);
    const double par =
        par_jobs > 1 ? time_parallel_bank(all_configs(), packed, par_jobs,
                                          opts.reps)
                     : serial;
    const double recs = static_cast<double>(packed.size()) * 27.0;
    par_table.add_row({workload_set[wi], std::to_string(packed.size()),
                       fmt(recs / serial), fmt(recs / par),
                       fmt(serial / par)});
    par_serial_total += serial;
    par_par_total += par;
    par_records += packed.size() * 27;
    if (!par_json.empty()) par_json += ",\n";
    par_json += "      {\"name\": \"" + workload_set[wi] +
                "\", \"records\": " + std::to_string(packed.size()) +
                ", \"serial_records_per_second\": " + fmt(recs / serial) +
                ", \"parallel_records_per_second\": " + fmt(recs / par) +
                ", \"speedup\": " + fmt(serial / par) + "}";
  }
  const double par_recs_d = static_cast<double>(par_records);
  std::cout << "\n";
  par_table.print(std::cout);
  std::cout << "\nParallel exhaustive sweep (" << par_jobs << " jobs on "
            << cpus << " cpus): aggregate "
            << fmt(par_recs_d / par_par_total) << " rec/s, "
            << fmt(par_serial_total / par_par_total) << "x vs serial\n";

  // --- capture throughput: reference vs fast interpreter --------------------
  Table cap_table({"workload", "instructions", "reference instr/s",
                   "fast instr/s", "fast/ref"});
  std::string cap_json;
  CaptureTimes cap_total;
  std::uint64_t cap_instr = 0;
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    const Workload& w = find_workload(workload_set[wi]);
    const CaptureTimes t = time_capture(w, opts.reps);
    const double instr = static_cast<double>(t.instructions);
    cap_table.add_row({w.name, std::to_string(t.instructions),
                       fmt(instr / t.ref), fmt(instr / t.fast),
                       fmt(t.ref / t.fast)});
    cap_total.ref += t.ref;
    cap_total.fast += t.fast;
    cap_instr += t.instructions;
    if (!cap_json.empty()) cap_json += ",\n";
    cap_json += "      {\"name\": \"" + w.name +
                "\", \"instructions\": " + std::to_string(t.instructions) +
                ", \"reference_instructions_per_second\": " +
                fmt(instr / t.ref) + ", \"fast_instructions_per_second\": " +
                fmt(instr / t.fast) + ", \"speedup\": " + fmt(t.ref / t.fast) +
                "}";
  }
  const double cap_instr_d = static_cast<double>(cap_instr);
  cap_table.add_row({"OVERALL", std::to_string(cap_instr),
                     fmt(cap_instr_d / cap_total.ref),
                     fmt(cap_instr_d / cap_total.fast),
                     fmt(cap_total.ref / cap_total.fast)});
  std::cout << "\n";
  cap_table.print(std::cout);
  std::cout << "\nTrace capture: fast interpreter vs reference "
            << fmt(cap_total.ref / cap_total.fast) << "x\n";

  // --- end-to-end exhaustive tune: streaming vs disk round trip -------------
  const std::string scratch_path = opts.out + ".e2e.stct";
  Table e2e_table({"workload", "disk round trip (s)", "streaming (s)",
                   "streaming/disk"});
  std::string e2e_json;
  EndToEndTimes e2e_total;
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    const Workload& w = find_workload(workload_set[wi]);
    const EndToEndTimes t = time_end_to_end(w, opts.reps, scratch_path);
    e2e_table.add_row({w.name, fmt(t.disk), fmt(t.streaming),
                       fmt(t.disk / t.streaming)});
    e2e_total.disk += t.disk;
    e2e_total.streaming += t.streaming;
    if (!e2e_json.empty()) e2e_json += ",\n";
    e2e_json += "      {\"name\": \"" + w.name + "\", \"disk_seconds\": " +
                fmt(t.disk) + ", \"streaming_seconds\": " + fmt(t.streaming) +
                ", \"speedup\": " + fmt(t.disk / t.streaming) + "}";
  }
  e2e_table.add_row({"OVERALL", fmt(e2e_total.disk), fmt(e2e_total.streaming),
                     fmt(e2e_total.disk / e2e_total.streaming)});
  std::cout << "\n";
  e2e_table.print(std::cout);
  std::cout << "\nExhaustive tune end to end: streaming vs capture-to-disk "
            << fmt(e2e_total.disk / e2e_total.streaming) << "x\n";

  json += "  ],\n  \"overall\": {" + json_rates(total, recs) + "},\n";
  json += "  \"parallel\": {\n    \"cpus\": " + std::to_string(cpus) +
          ",\n    \"jobs\": " + std::to_string(par_jobs) +
          ",\n    \"workloads\": [\n" + par_json + "\n    ],\n    \"overall\": {" +
          "\"serial_records_per_second\": " +
          fmt(par_recs_d / par_serial_total) +
          ", \"aggregate_records_per_second\": " +
          fmt(par_recs_d / par_par_total) +
          ", \"speedup\": " + fmt(par_serial_total / par_par_total) +
          "}\n  },\n";
  json += "  \"capture\": {\n    \"workloads\": [\n" + cap_json +
          "\n    ],\n    \"overall\": {\"instructions\": " +
          std::to_string(cap_instr) +
          ", \"reference_instructions_per_second\": " +
          fmt(cap_instr_d / cap_total.ref) +
          ", \"fast_instructions_per_second\": " +
          fmt(cap_instr_d / cap_total.fast) +
          ", \"speedup\": " + fmt(cap_total.ref / cap_total.fast) + "}\n  },\n";
  json += "  \"end_to_end\": {\n    \"workloads\": [\n" + e2e_json +
          "\n    ],\n    \"overall\": {\"disk_seconds\": " +
          fmt(e2e_total.disk) + ", \"streaming_seconds\": " +
          fmt(e2e_total.streaming) +
          ", \"speedup\": " + fmt(e2e_total.disk / e2e_total.streaming) +
          "}\n  }\n}\n";
  if (!opts.out.empty()) {
    std::ofstream os(opts.out);
    if (!os) {
      std::cerr << "error: cannot write '" << opts.out << "'\n";
      return 1;
    }
    os << json;
  }
  return 0;
}

}  // namespace
}  // namespace stcache

int main(int argc, char** argv) {
  try {
    return stcache::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
