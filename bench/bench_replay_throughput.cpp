// bench_replay_throughput — differential throughput of the two replay
// kernels on the exhaustive 27-configuration bank sweep (the reference
// ConfigurableCache and the BankAccumulator's single-pass "oneshot" stack
// sweep), of the two interpreters on trace capture, and of the streaming
// pipeline against the capture-to-disk round trip.
//
// Usage: bench_replay_throughput [--reps N] [--max-records N]
//                                [--out file.json]
//
// Replay section: for each workload, the 27 legal configurations are
// grouped into specialization classes by (ways, way prediction) — 1W:9,
// 2W:6, 2W_P:6, 4W:3, 4W_P:3 — and each class's bank sweep is timed with
// both kernels (best of --reps runs; default 3). The exhaustive row
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
// groups on threads (--sweep-jobs) against the same bank run serially,
// each fed the stream kParallelPasses times so one rep lasts tens of
// milliseconds. The bank is asked for min(cpus, 32) threads and runs at
// most one per group, three here; the speedup is limited by the largest
// group's share of the serial work. The parallel/serial ratio is gated
// at >= 2x on hosts with >= 2 cpus — one core cannot outrun itself, and
// each group's result is its serial result either way.
//
// Capture section: each workload is captured end to end by the reference
// interpreter (Cpu + TracingMemory, the stcache_trace path) and by the
// fast interpreter (FastCpu + PackedBufferSink, the capture_packed path),
// reported in instructions/second; the fast/reference ratio is gated at
// >= 3x.
//
// End-to-end section: the full exhaustive-tune pipeline per workload,
// (a) the old round trip — reference capture, save_trace to disk,
// load_packed_trace back, 27-config bank sweep — against (b) the streaming
// pipeline — stream_workload folding chunks straight into a
// BankAccumulator, no trace ever materialized. The streaming/disk ratio is
// gated at >= 2x.
//
// Results land on stdout as tables. With --out, the gated values go to a
// bench::Snapshot (bench/common.hpp) — the committed BENCH_replay.json at
// the repo root is one — with the rates at a 20% bound, the record and
// instruction counts exact, and the three ratio floors above; the floors
// live in this file, and scripts/bench_check.py gates a fresh snapshot
// against the committed one.
//
// Throughput here counts simulated records: a sweep over C configurations
// of an N-record stream processes N*C records.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "cache/configurable_cache.hpp"
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
  std::string out;  // the snapshot is written only when --out is given
};

// The parallel section's bank replays each stream kParallelPasses times,
// so a rep lasts tens of milliseconds rather than the 3-5 ms of a single
// pass, and keeps the best of kParallelReps interleaved serial/threaded
// reps: a threaded rep needs three cores at once, and on a shared host one
// of them is often busy.
constexpr unsigned kParallelPasses = 16;
constexpr unsigned kParallelReps = 7;

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

// The two bank sweeps over an already-packed stream. The reference
// interleaves every ConfigurableCache over one pass of the words (block
// << 4 restores a 16 B-aligned address, which no 16 B-or-wider geometry
// distinguishes from the original); the oneshot sweep is the production
// BankAccumulator.
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
  double ref = 0.0, oneshot = 0.0;
};

EngineTimes time_all_engines(const std::vector<CacheConfig>& configs,
                             std::span<const std::uint32_t> packed,
                             unsigned reps) {
  EngineTimes t;
  t.ref = time_bank(configs, packed, reps, reference_bank);
  t.oneshot = time_bank(configs, packed, reps, oneshot_bank);
  return t;
}

// --- parallel group-threaded sweep -------------------------------------------

// Exhaustive oneshot bank, kParallelPasses feeds of the stream + stats,
// with an explicit thread count; the bank (its sims) is constructed
// outside the timed region, the lazily-spawned worker pool is inside it (a
// real cost of the first feed, amortized here as in production by
// streaming many chunks).
double time_passes(const std::vector<CacheConfig>& configs,
                   std::span<const std::uint32_t> packed, unsigned jobs) {
  BankAccumulator bank(configs, {}, jobs);
  const auto start = std::chrono::steady_clock::now();
  for (unsigned pass = 0; pass < kParallelPasses; ++pass) bank.feed(packed);
  const std::vector<CacheStats> stats = bank.stats();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (stats.size() != configs.size()) fail("bank sweep dropped configs");
  return elapsed.count();
}

// The serial and threaded bank, interleaved rep by rep so both legs see
// the same host conditions; best of `reps` each.
struct ParallelTimes {
  double serial = 0.0, parallel = 0.0;
};

ParallelTimes time_parallel_bank(const std::vector<CacheConfig>& configs,
                                 std::span<const std::uint32_t> packed,
                                 unsigned jobs, unsigned reps) {
  ParallelTimes t;
  for (unsigned r = 0; r < reps; ++r) {
    const double serial = time_passes(configs, packed, 1);
    const double par = jobs > 1 ? time_passes(configs, packed, jobs) : serial;
    if (r == 0 || serial < t.serial) t.serial = serial;
    if (r == 0 || par < t.parallel) t.parallel = par;
  }
  return t;
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
  Table table({"workload", "class", "configs", "reference rec/s",
               "oneshot rec/s", "oneshot/ref"});

  // Capture and pack each stream once, before any timing: the replay and
  // parallel sections consume the packed merged trace.
  std::vector<std::vector<std::uint32_t>> packed_streams(workload_set.size());
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    Trace stream = capture_trace(find_workload(workload_set[wi]));
    if (stream.size() > opts.max_records) stream.resize(opts.max_records);
    pack_stream(stream, packed_streams[wi]);
  }

  EngineTimes total;
  std::uint64_t stream_records = 0;
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    const std::string& name = workload_set[wi];
    const std::span<const std::uint32_t> packed = packed_streams[wi];

    for (const auto& [cls, cfgs] : by_class) {
      const EngineTimes t = time_all_engines(cfgs, packed, opts.reps);
      const double recs = static_cast<double>(packed.size()) *
                          static_cast<double>(cfgs.size());
      table.add_row({name, cls, std::to_string(cfgs.size()),
                     fmt(recs / t.ref), fmt(recs / t.oneshot),
                     fmt(t.ref / t.oneshot)});
    }

    // The exhaustive sweep, timed as one bank (this is where cross-class
    // traversal sharing shows up).
    const EngineTimes wl = time_all_engines(all_configs(), packed, opts.reps);
    const double wl_recs = static_cast<double>(packed.size()) * 27.0;
    table.add_row({name, "all", "27", fmt(wl_recs / wl.ref),
                   fmt(wl_recs / wl.oneshot), fmt(wl.ref / wl.oneshot)});
    total.ref += wl.ref;
    total.oneshot += wl.oneshot;
    stream_records += packed.size();
  }

  const double recs = static_cast<double>(stream_records) * 27.0;
  table.add_row({"OVERALL", "all", "27", fmt(recs / total.ref),
                 fmt(recs / total.oneshot), fmt(total.ref / total.oneshot)});
  table.print(std::cout);

  // --- parallel: group-threaded exhaustive sweep ----------------------------
  bench::Snapshot snap("replay_throughput");
  const unsigned par_jobs =
      BankAccumulator(all_configs(), {}, std::min(snap.cpus(), 32u))
          .sweep_jobs();
  Table par_table({"workload", "records", "serial rec/s", "parallel rec/s",
                   "speedup"});
  double par_serial_total = 0.0, par_par_total = 0.0;
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    const std::span<const std::uint32_t> packed = packed_streams[wi];
    const auto [serial, par] =
        time_parallel_bank(all_configs(), packed, par_jobs, kParallelReps);
    const double recs = static_cast<double>(packed.size()) * 27.0 *
                        kParallelPasses;
    par_table.add_row({workload_set[wi], std::to_string(packed.size()),
                       fmt(recs / serial), fmt(recs / par),
                       fmt(serial / par)});
    par_serial_total += serial;
    par_par_total += par;
  }
  std::cout << "\n";
  par_table.print(std::cout);
  std::cout << "\nParallel exhaustive sweep (" << par_jobs << " jobs on "
            << snap.cpus() << " cpus, " << kParallelPasses
            << " passes per stream): aggregate "
            << fmt(recs * kParallelPasses / par_par_total) << " rec/s, "
            << fmt(par_serial_total / par_par_total) << "x vs serial\n";

  // --- capture throughput: reference vs fast interpreter --------------------
  Table cap_table({"workload", "instructions", "reference instr/s",
                   "fast instr/s", "fast/ref"});
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
  char tmpl[] = "/tmp/stcrepXXXXXX";
  const char* dir = mkdtemp(tmpl);
  STC_ASSERT(dir != nullptr, "mkdtemp failed");
  const std::string scratch_path = std::string(dir) + "/e2e.stct";
  Table e2e_table({"workload", "disk round trip (s)", "streaming (s)",
                   "streaming/disk"});
  EndToEndTimes e2e_total;
  for (std::size_t wi = 0; wi < workload_set.size(); ++wi) {
    const Workload& w = find_workload(workload_set[wi]);
    const EndToEndTimes t = time_end_to_end(w, opts.reps, scratch_path);
    e2e_table.add_row({w.name, fmt(t.disk), fmt(t.streaming),
                       fmt(t.disk / t.streaming)});
    e2e_total.disk += t.disk;
    e2e_total.streaming += t.streaming;
  }
  ::rmdir(dir);
  e2e_table.add_row({"OVERALL", fmt(e2e_total.disk), fmt(e2e_total.streaming),
                     fmt(e2e_total.disk / e2e_total.streaming)});
  std::cout << "\n";
  e2e_table.print(std::cout);
  std::cout << "\nExhaustive tune end to end: streaming vs capture-to-disk "
            << fmt(e2e_total.disk / e2e_total.streaming) << "x\n";

  snap.exact("records", static_cast<double>(stream_records), "records");
  snap.rate("reference_records_per_second", recs / total.ref, "rec/s");
  snap.rate("oneshot_records_per_second", recs / total.oneshot, "rec/s");
  snap.ratio("parallel.speedup", par_serial_total / par_par_total, "x");
  snap.exact("capture.instructions", cap_instr_d, "instructions");
  snap.rate("capture.fast_instructions_per_second",
            cap_instr_d / cap_total.fast, "instr/s");
  snap.ratio("capture.speedup", cap_total.ref / cap_total.fast, "x");
  snap.ratio("end_to_end.speedup", e2e_total.disk / e2e_total.streaming, "x");
  snap.floor({.metrics = {"parallel.speedup"}, .op = "min", .limit = 2.0,
              .min_cpus = 2});
  snap.floor({.metrics = {"capture.speedup"}, .op = "min", .limit = 3.0});
  snap.floor({.metrics = {"end_to_end.speedup"}, .op = "min", .limit = 2.0});
  return snap.write(opts.out) ? 0 : 1;
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
