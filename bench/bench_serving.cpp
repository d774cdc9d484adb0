// bench_serving — throughput of the tuning service (stcache_tuned's
// TuningServer) over a loopback unix-domain socket.
//
//   bench_serving [--clients N] [--reps N] [--workers N] [--out file.json]
//
// Two timed phases, both end-to-end (HELLO -> CHUNK stream -> FIN ->
// VERDICT) against one live server:
//
//   single  one client streams the packed crc instruction trace --reps
//           times back to back; words/second of the lone session.
//   multi   --clients clients do the same concurrently; aggregate
//           words/second across all sessions.
//
// The two phases alternate kRounds (3) times; each keeps its best round.
// The default 20 reps keep the single-client phase a few hundred
// milliseconds long; at 3 reps in one round it lasted 26-35 ms and the
// scaling ratio swung from 1.7x to 3.0x between runs.
//
// The aggregate/single ratio is the serving scaling factor, gated at
// >= 2x — ONLY meaningful on a multi-core host, since one CPU cannot run
// two sweep workers faster than one, so the floor carries min_cpus 2 and
// is skipped on a single-core host (the absolute rates still gate).
//
// Results land on stdout as a table. With --out, the gated values go to a
// bench::Snapshot (bench/common.hpp) — the committed BENCH_serving.json at
// the repo root is one — and scripts/bench_check.py gates a fresh
// snapshot against the committed one.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/replay.hpp"
#include "util/error.hpp"

namespace stcache {
namespace {

// The single and multi phases alternate kRounds times and each keeps its
// best round, so a burst of host noise costs one round rather than
// deciding the scaling ratio.
constexpr unsigned kRounds = 3;

struct Options {
  unsigned clients = 4;
  unsigned reps = 20;
  unsigned workers = 0;  // 0 = hardware_concurrency
  std::string out;       // the snapshot is written only when --out is given
};

Options parse_args(int argc, char** argv) {
  Options opts;
  // Exits 2 unless argv[i + 1] is an integer in [lo, hi].
  const auto value = [&](int& i, std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t v = 0;
    if (!parse_flag_u64(argv[i], argv[i + 1], lo, hi, v)) std::exit(2);
    ++i;
    return static_cast<unsigned>(v);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc)
      opts.clients = value(i, 1, 4096);
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      opts.reps = value(i, 1, ~std::uint32_t{0});
    else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
      opts.workers = value(i, 0, 4096);  // the daemon's --workers limit
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      opts.out = argv[++i];
    else {
      std::cerr << "usage: " << argv[0]
                << " [--clients N] [--reps N] [--workers N] [--out file.json]\n";
      std::exit(2);
    }
  }
  return opts;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One full session: stream `sel` in kDefaultChunkWords chunks, wait for
// the verdict. Returns the verdict so callers can sanity-check it.
serve::Verdict one_session(const std::string& socket_path,
                           std::span<const std::uint32_t> sel) {
  return serve::tune_remote(socket_path, /*instruction=*/true, sel);
}

int run(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  bench::Snapshot snap("serving_throughput");
  const unsigned cpus = snap.cpus();

  bench::print_header(
      "Tuning-service throughput: single client vs " +
          std::to_string(opts.clients) + " concurrent clients",
      "the exhaustive sweep");

  // The workload stream is captured once, outside every timed region: the
  // bench measures serving (wire + sharded queues + sweep workers), not
  // trace capture.
  const std::vector<std::uint32_t> sel =
      capture_packed(find_workload("crc")).ifetch;

  serve::ServerOptions server_opts;
  char tmpl[] = "/tmp/stcbenXXXXXX";
  const char* dir = mkdtemp(tmpl);
  STC_ASSERT(dir != nullptr, "mkdtemp failed");
  server_opts.socket_path = std::string(dir) + "/b.sock";
  server_opts.workers = opts.workers;
  // Enough pooled chunks that clients are never throttled by the buffer
  // pool itself — the bench measures worker scaling, not pool sizing.
  server_opts.pool_chunks = std::max<std::size_t>(64, 8 * opts.clients);
  serve::TuningServer server(server_opts);
  server.start();

  // Warmup + correctness guard: the served verdict must be bit-identical
  // to the in-process bank before any number is worth reporting.
  {
    const serve::Verdict v = one_session(server_opts.socket_path, sel);
    BankAccumulator bank(all_configs());
    bank.feed(sel);
    STC_ASSERT(v.accesses == sel.size() && v.stats == bank.stats(),
               "served verdict diverged from the in-process bank");
  }

  // The two phases alternate kRounds times; each keeps its best round.
  // Phase 1: one client, sessions back to back.
  const auto single_phase = [&] {
    for (unsigned r = 0; r < opts.reps; ++r) {
      one_session(server_opts.socket_path, sel);
    }
  };
  // Phase 2: N clients at once, each the same --reps sessions.
  const auto multi_phase = [&] {
    std::vector<std::jthread> clients;  // joined when the phase returns
    for (unsigned c = 0; c < opts.clients; ++c) {
      clients.emplace_back(single_phase);
    }
  };
  double single_secs = 0.0, multi_secs = 0.0;
  for (unsigned round = 0; round < kRounds; ++round) {
    const auto t_single = std::chrono::steady_clock::now();
    single_phase();
    const double single = seconds_since(t_single);
    const auto t_multi = std::chrono::steady_clock::now();
    multi_phase();
    const double multi = seconds_since(t_multi);
    if (round == 0 || single < single_secs) single_secs = single;
    if (round == 0 || multi < multi_secs) multi_secs = multi;
  }
  const double single_words = static_cast<double>(sel.size()) * opts.reps;
  const double single_rate = single_words / single_secs;
  const double multi_words = single_words * opts.clients;
  const double multi_rate = multi_words / multi_secs;
  const double scaling = multi_rate / single_rate;

  server.stop();
  std::string rmdir_cmd = dir;  // best-effort cleanup of the socket dir
  ::rmdir(rmdir_cmd.c_str());

  Table table({"mode", "sessions", "words", "seconds", "words/s"});
  table.add_row({"single-client", std::to_string(opts.reps),
                 std::to_string(static_cast<std::uint64_t>(single_words)),
                 fmt_double(single_secs, 3), fmt_double(single_rate, 0)});
  table.add_row({std::to_string(opts.clients) + "-client aggregate",
                 std::to_string(opts.reps * opts.clients),
                 std::to_string(static_cast<std::uint64_t>(multi_words)),
                 fmt_double(multi_secs, 3), fmt_double(multi_rate, 0)});
  table.print(std::cout);
  std::cout << "\nAggregate scaling over single client: "
            << fmt_double(scaling, 2) << "x, best of " << kRounds
            << " rounds, on " << cpus
            << " cpu(s), workers=" << server.workers() << "\n";
  if (cpus < 2) {
    std::cout << "(single-core host: the >= 2x scaling floor does not "
                 "apply; see scripts/bench_check.py)\n";
  }

  snap.exact("stream_words", static_cast<double>(sel.size()), "words");
  snap.rate("single.words_per_second", single_rate, "words/s");
  snap.rate("multi.aggregate_words_per_second", multi_rate, "words/s");
  snap.ratio("scaling", scaling, "x");
  snap.floor({.metrics = {"scaling"}, .op = "min", .limit = 2.0,
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
