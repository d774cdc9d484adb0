// bench_serving_resilience — clean-tenant throughput of the tuning
// service while a misbehaving neighbor injects every wire fault class.
//
//   bench_serving_resilience [--reps N] [--seed N] [--out file.json]
//
// Two timed phases against one live server:
//
//   clean   one client streams the packed crc instruction trace --reps
//           times back to back, nothing else connected; words/second.
//   chaos   the same loop, while a ChaosEndpoint neighbor hammers the
//           server with back-to-back seeded fault sessions (corrupt,
//           truncate, disconnect, stall, duplicate) until the clean
//           client finishes.
//
// The two legs alternate kRounds times; each keeps its best round.
//
// The chaos/clean ratio is the isolation factor, gated at >= 0.8: a
// neighbor burning its own sessions with wire faults may not cost a clean
// tenant more than 20% throughput. On one core the neighbor steals real
// CPU from the clean tenant, so the floor carries min_cpus 2. Every clean
// verdict in both phases is checked bit-identical to the in-process bank,
// so the number only exists if correctness held under fire.
//
// Results land on stdout as a table. With --out, the gated values go to a
// bench::Snapshot (bench/common.hpp) — the committed
// BENCH_serving_resilience.json at the repo root is one — and
// scripts/bench_check.py gates a fresh snapshot against the committed one.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/replay.hpp"
#include "util/error.hpp"

namespace stcache {
namespace {

// The clean and chaos legs alternate kRounds times and each keeps its
// best round, so a burst of host noise costs one round rather than
// deciding the ratio: with one 8-session round per leg the ratio swung
// from 0.78x to 1.46x between runs.
constexpr unsigned kRounds = 3;

struct Options {
  unsigned reps = 12;  // sessions per timed leg
  std::uint64_t seed = 0xbadcafe;
  std::string out;  // the snapshot is written only when --out is given
};

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 1, ~std::uint32_t{0}, v))
        std::exit(2);
      opts.reps = static_cast<unsigned>(v);
      ++i;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 0, ~std::uint64_t{0}, v))
        std::exit(2);
      opts.seed = v;
      ++i;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--reps N] [--seed N] [--out file.json]\n";
      std::exit(2);
    }
  }
  return opts;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int run(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  bench::Snapshot snap("serving_resilience");
  const unsigned cpus = snap.cpus();

  bench::print_header(
      "Tuning-service isolation: clean-tenant throughput with a "
      "fault-injecting neighbor",
      "the exhaustive sweep");

  const std::vector<std::uint32_t> sel =
      capture_packed(find_workload("crc")).ifetch;
  BankAccumulator bank(all_configs());
  bank.feed(sel);
  const std::vector<CacheStats> baseline = bank.stats();

  serve::ServerOptions server_opts;
  char tmpl[] = "/tmp/stcresbXXXXXX";
  const char* dir = mkdtemp(tmpl);
  STC_ASSERT(dir != nullptr, "mkdtemp failed");
  server_opts.socket_path = std::string(dir) + "/b.sock";
  server_opts.workers = 2;
  server_opts.pool_chunks = 64;
  // Generous deadlines: the bench measures isolation, not timeouts — a
  // sub-deadline stall from the neighbor must be absorbed, not shot.
  server_opts.idle_timeout_ms = 10'000;
  serve::TuningServer server(server_opts);
  server.start();

  // A clean pass: --reps verdicts, each checked bit-identical.
  const auto clean_pass = [&] {
    for (unsigned r = 0; r < opts.reps; ++r) {
      const serve::Verdict v =
          serve::tune_remote(server_opts.socket_path, true, sel);
      STC_ASSERT(v.accesses == sel.size() && v.stats == baseline,
                 "clean verdict diverged from the in-process bank");
    }
  };

  clean_pass();  // warmup, untimed

  // The neighbor: back-to-back seeded fault sessions until told to stop.
  // High fault rates keep its sessions short and abusive — mostly error
  // paths, which is exactly the machinery whose cost is being measured.
  FaultPlan plan;
  plan.seed = opts.seed;
  plan.wire_corrupt = 0.2;
  plan.wire_truncate = 0.2;
  plan.wire_disconnect = 0.2;
  plan.wire_stall = 0.1;
  plan.wire_stall_ms = 5;
  plan.wire_duplicate = 0.1;
  std::uint64_t chaos_sessions = 0;
  std::uint64_t faults_injected = 0;
  const auto neighbor_loop = [&](std::stop_token stop) {
    const std::span<const std::uint32_t> small(sel.data(),
                                               std::min<std::size_t>(
                                                   sel.size(), 4096));
    while (!stop.stop_requested()) {
      ++chaos_sessions;
      ChaosEndpoint chaos(plan.reseeded(chaos_sessions),
                          /*response_timeout_ms=*/10'000);
      const ChaosReport report =
          chaos.run(server_opts.socket_path, true, small, 512);
      faults_injected += report.counts.total();
      // Pace the neighbor: the gate measures the server's fault-handling
      // overhead on a clean tenant, not fair-share scheduling against a
      // busy-loop — which a single-core host could never win anyway.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };

  // Each round: the clean tenant alone, then the same loop with the
  // neighbor misbehaving the whole time.
  double clean_secs = 0.0, chaos_secs = 0.0;
  for (unsigned round = 0; round < kRounds; ++round) {
    const auto t_clean = std::chrono::steady_clock::now();
    clean_pass();
    const double clean = seconds_since(t_clean);

    double chaos = 0.0;
    {
      std::jthread neighbor(neighbor_loop);  // stopped and joined at `}`
      const auto t_chaos = std::chrono::steady_clock::now();
      clean_pass();
      chaos = seconds_since(t_chaos);
    }

    if (round == 0 || clean < clean_secs) clean_secs = clean;
    if (round == 0 || chaos < chaos_secs) chaos_secs = chaos;
  }
  const double words = static_cast<double>(sel.size()) * opts.reps;
  const double clean_rate = words / clean_secs;
  const double chaos_rate = words / chaos_secs;
  const double ratio = chaos_rate / clean_rate;

  server.stop();
  ::rmdir(dir);

  Table table({"phase", "sessions", "words", "seconds", "words/s"});
  table.add_row({"clean", std::to_string(opts.reps),
                 std::to_string(static_cast<std::uint64_t>(words)),
                 fmt_double(clean_secs, 3), fmt_double(clean_rate, 0)});
  table.add_row({"under chaos", std::to_string(opts.reps),
                 std::to_string(static_cast<std::uint64_t>(words)),
                 fmt_double(chaos_secs, 3), fmt_double(chaos_rate, 0)});
  table.print(std::cout);
  std::cout << "\nClean-tenant throughput under chaos: " << fmt_double(ratio, 2)
            << "x of the quiet baseline, best of " << kRounds
            << " rounds (" << chaos_sessions
            << " chaos sessions, " << faults_injected
            << " faults injected) on " << cpus << " cpu(s)\n";

  snap.exact("stream_words", static_cast<double>(sel.size()), "words");
  snap.rate("clean.words_per_second", clean_rate, "words/s");
  snap.rate("chaos.words_per_second", chaos_rate, "words/s");
  snap.ratio("ratio", ratio, "x");
  snap.floor({.metrics = {"ratio"}, .op = "min", .limit = 0.8,
              .min_cpus = 2});
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
