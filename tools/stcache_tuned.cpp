// stcache_tuned — the tuning-as-a-service daemon: accepts packed trace
// streams from many concurrent clients over a unix-domain socket and
// answers each session with the exhaustive 27-configuration sweep verdict.
//
//   stcache_tuned --socket PATH [--workers N] [--pool-chunks N]
//                 [--chunk-words N] [--session-budget N]
//                 [--sweep-jobs N]
//                 [--max-sessions N]
//                 [--idle-timeout-ms N] [--session-timeout-ms N]
//                 [--max-inflight N] [--shed-pool-min N]
//                 [--retry-after-ms N] [--drain-timeout-ms N]
//
// Prints one `listening on ...` line to stdout once the socket is bound
// (scripts use it as the readiness signal), then serves until SIGINT /
// SIGTERM — or until --max-sessions sessions have been answered, which is
// how the integration tests get a deterministic shutdown. Both signals
// drain gracefully: new HELLOs are refused with `ERROR overload
// "draining"` + retry-after, in-flight sessions finish (bounded by
// --drain-timeout-ms), then the daemon exits with a shutdown summary:
//
//   served N sessions (P poisoned, S shed, T timed out)
//
// Verdicts are computed by the same BankAccumulator the in-process
// pipeline uses, so a client's rendered report is byte-identical to
// `stcache_tune --exhaustive` on the same stream (repro.sh cmp's the
// two). A malformed session (bad frame, CRC mismatch, blown deadline) is
// answered with a typed ERROR and poisoned; concurrent sessions and the
// worker pool are untouched. docs/serving.md documents the protocol, the
// architecture, and the resilience knobs (§6).
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "trace/replay.hpp"
#include "util/parse.hpp"

namespace stcache {
namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int usage() {
  std::cerr << "usage: stcache_tuned --socket PATH [--workers N] "
               "[--pool-chunks N] [--chunk-words N] [--session-budget N] "
               "[--sweep-jobs N] "
               "[--max-sessions N] "
               "[--idle-timeout-ms N] [--session-timeout-ms N] "
               "[--max-inflight N] [--shed-pool-min N] [--retry-after-ms N] "
               "[--drain-timeout-ms N]\n";
  return 2;
}

int run(int argc, char** argv) {
  serve::ServerOptions opts;
  std::uint64_t max_sessions = 0;       // 0 = serve until a signal arrives
  std::uint64_t drain_timeout_ms = 5'000;
  for (int i = 1; i < argc; ++i) {
    const auto take_u64 = [&](std::uint64_t& out, std::uint64_t min_value,
                              std::uint64_t max_value) -> int {
      ++i;
      return parse_flag_u64(argv[i - 1], argv[i], min_value, max_value, out)
                 ? 0
                 : 2;
    };
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      opts.socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      if (int rc = take_u64(v, 1, 4096)) return rc;
      opts.workers = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--pool-chunks") == 0 && i + 1 < argc) {
      if (int rc = take_u64(v, 1, std::uint64_t{1} << 24)) return rc;
      opts.pool_chunks = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--chunk-words") == 0 && i + 1 < argc) {
      if (int rc = take_u64(v, 16, serve::kMaxChunkWords)) return rc;
      opts.chunk_words = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--session-budget") == 0 && i + 1 < argc) {
      if (int rc = take_u64(v, 1, std::uint64_t{1} << 24)) return rc;
      opts.session_budget = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--sweep-jobs") == 0 && i + 1 < argc) {
      // Runs each session's bank line-size groups on up to N threads (3
      // for the 27-config bank). The daemon's first axis of parallelism is
      // sessions across --workers; this multiplies threads per in-flight
      // session (worker pools spawn lazily inside each session's
      // BankAccumulator), so size the product workers * sweep-jobs to the
      // machine.
      if (int rc = take_u64(v, 1, 32)) return rc;
      set_default_sweep_jobs(static_cast<unsigned>(v));
    } else if (std::strcmp(argv[i], "--max-sessions") == 0 && i + 1 < argc) {
      if (int rc = take_u64(max_sessions, 0, ~std::uint64_t{0})) return rc;
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0 && i + 1 < argc) {
      if (int rc = take_u64(v, 0, ~std::uint32_t{0})) return rc;
      opts.idle_timeout_ms = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(argv[i], "--session-timeout-ms") == 0 &&
               i + 1 < argc) {
      if (int rc = take_u64(v, 0, ~std::uint32_t{0})) return rc;
      opts.session_timeout_ms = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(argv[i], "--max-inflight") == 0 && i + 1 < argc) {
      if (int rc = take_u64(v, 0, std::uint64_t{1} << 32)) return rc;
      opts.max_inflight_sessions = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--shed-pool-min") == 0 && i + 1 < argc) {
      if (int rc = take_u64(v, 0, std::uint64_t{1} << 32)) return rc;
      opts.shed_pool_min = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--retry-after-ms") == 0 && i + 1 < argc) {
      if (int rc = take_u64(v, 0, 65'535)) return rc;
      opts.retry_after_ms = static_cast<std::uint16_t>(v);
    } else if (std::strcmp(argv[i], "--drain-timeout-ms") == 0 &&
               i + 1 < argc) {
      if (int rc = take_u64(drain_timeout_ms, 0, ~std::uint32_t{0})) return rc;
    } else {
      std::cerr << "unknown argument: " << argv[i] << "\n";
      return 2;
    }
  }
  if (opts.socket_path.empty()) return usage();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  serve::TuningServer server(opts);
  server.start();
  std::cout << "listening on " << server.socket_path()
            << " (workers=" << server.workers() << ")" << std::endl;

  while (!g_stop &&
         (max_sessions == 0 || server.sessions_served() < max_sessions)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Graceful drain for signals and for the --max-sessions cutoff alike:
  // refuse new work, let in-flight sessions finish (bounded), then stop.
  const bool drained =
      server.drain(static_cast<std::uint32_t>(drain_timeout_ms));
  std::cout << "served " << server.sessions_served() << " sessions ("
            << server.sessions_poisoned() << " poisoned, "
            << server.sessions_shed() << " shed, "
            << server.sessions_timed_out() << " timed out)"
            << (drained ? "" : " [drain deadline hit]") << "\n";
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
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return 1;
  }
}
