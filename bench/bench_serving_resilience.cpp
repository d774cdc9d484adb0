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
// The chaos/clean ratio is the isolation factor the ISSUE gates at
// >= 0.8: a neighbor burning its own sessions with wire faults may not
// cost a clean tenant more than 20% throughput. Every clean verdict in
// both phases is checked bit-identical to the in-process bank, so the
// number only exists if correctness held under fire.
//
// Results land on stdout as a table and in --out (default
// BENCH_serving_resilience.json) as JSON; the committed copy at the repo
// root is the baseline snapshot scripts/bench_check.py --mode resilience
// compares against.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
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

struct Options {
  unsigned reps = 8;  // long enough a window that the ratio is stable
  std::uint64_t seed = 0xbadcafe;
  std::string out = "BENCH_serving_resilience.json";
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
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());

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

  // Phase 1: the clean tenant alone.
  const auto t_clean = std::chrono::steady_clock::now();
  clean_pass();
  const double clean_secs = seconds_since(t_clean);
  const double words = static_cast<double>(sel.size()) * opts.reps;
  const double clean_rate = words / clean_secs;

  // Phase 2: same loop, with the neighbor misbehaving the whole time.
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

  std::atomic<bool> stop_chaos{false};
  std::uint64_t chaos_sessions = 0;
  std::uint64_t faults_injected = 0;
  std::thread neighbor([&] {
    const std::span<const std::uint32_t> small(sel.data(),
                                               std::min<std::size_t>(
                                                   sel.size(), 4096));
    for (std::uint64_t s = 1; !stop_chaos; ++s) {
      ChaosEndpoint chaos(plan.reseeded(s), /*response_timeout_ms=*/10'000);
      const ChaosReport report =
          chaos.run(server_opts.socket_path, true, small, 512);
      ++chaos_sessions;
      faults_injected += report.counts.total();
      // Pace the neighbor: the gate measures the server's fault-handling
      // overhead on a clean tenant, not fair-share scheduling against a
      // busy-loop — which a single-core host could never win anyway.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  const auto t_chaos = std::chrono::steady_clock::now();
  clean_pass();
  const double chaos_secs = seconds_since(t_chaos);
  stop_chaos = true;
  neighbor.join();
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
            << "x of the quiet baseline (" << chaos_sessions
            << " chaos sessions, " << faults_injected
            << " faults injected) on " << cpus << " cpu(s)\n";

  std::ofstream out(opts.out);
  if (!out) {
    std::cerr << "error: cannot write " << opts.out << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"serving_resilience\",\n"
      << "  \"cpus\": " << cpus << ",\n"
      << "  \"workers\": " << server.workers() << ",\n"
      << "  \"reps\": " << opts.reps << ",\n"
      << "  \"stream_words\": " << sel.size() << ",\n"
      << "  \"clean\": {\"seconds\": " << clean_secs
      << ", \"words_per_second\": " << clean_rate << "},\n"
      << "  \"chaos\": {\"seconds\": " << chaos_secs
      << ", \"words_per_second\": " << chaos_rate
      << ", \"sessions\": " << chaos_sessions
      << ", \"faults_injected\": " << faults_injected << "},\n"
      << "  \"ratio\": " << ratio << "\n"
      << "}\n";
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
