// stcache_tunec — serving client of stcache_tuned: streams a packed trace
// to the daemon and renders the exhaustive tuning report from the VERDICT.
//
//   stcache_tunec --socket PATH <file.stct> [I|D] [options]
//   stcache_tunec --socket PATH --workload NAME [I|D] [options]
//
// options: [--chunk-words N] [--timeout MS] [--retries N] [--backoff MS]
//
// The workload mode captures on a producer thread and ships each packed
// chunk over the socket as it is produced — capture, network, and the
// daemon's sweep all overlap, and no full trace is ever materialized on
// either side. The file mode collects the whole file first
// (load_packed_trace: the STCT reader run to its end, CRC footer
// included), so a corrupt file fails before anything is sent, then sends
// the selected stream in chunks. Because the daemon folds chunks with the
// same BankAccumulator the in-process pipeline uses, and both sides render
// through print_exhaustive_report, stdout is byte-identical to
// `stcache_tune --exhaustive` on the same stream (repro.sh cmp's the two).
//
// Resilience: sessions are idempotent (a verdict is a pure function of the
// stream), so --retries N replays the whole session up to N extra times on
// any retryable failure — daemon restart, overload shed, timeout, dropped
// connection — with seeded exponential backoff (base --backoff MS,
// honoring the server's retry-after hint). --timeout MS bounds every
// frame write and the verdict wait, so a wedged daemon yields a typed
// error instead of a hung client.
//
// Exit codes: 0 success; 1 runtime failure (one `error:` line, including
// mid-session disconnects); 2 usage; 3 could not connect (daemon down /
// wrong socket path) — scripts can tell "never reached the daemon" from
// "the daemon turned me down".
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "serve/client.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

int usage() {
  std::cerr << "usage: stcache_tunec --socket PATH "
               "(<file.stct> | --workload NAME | --probe empty|bad-crc) "
               "[I|D] [--chunk-words N] [--timeout MS] [--retries N] "
               "[--backoff MS]\n";
  return 2;
}

// Health probe: deliberately misbehave and verify the daemon answers with
// the expected typed ERROR instead of dying or hanging — a scriptable
// check of the failure-isolation contract (exit 0 iff the daemon behaved).
// Every read is deadline-bounded so a wedged daemon fails the probe
// instead of hanging it.
int run_probe(const std::string& socket_path, const std::string& probe,
              bool instruction, std::uint32_t timeout_ms) {
  const serve::WireDeadline deadline = serve::wire_deadline_after(timeout_ms);
  const int fd = serve::unix_connect(socket_path);
  serve::write_frame(fd, serve::FrameType::kHello,
                     serve::encode_hello(instruction), deadline);
  if (probe == "bad-crc") {
    const std::uint32_t words[4] = {1, 2, 3, 4};
    std::vector<std::uint8_t> payload =
        serve::encode_chunk(std::span<const std::uint32_t>(words, 4));
    payload[8] ^= 0xff;  // flip a word byte: the declared CRC is now wrong
    serve::write_frame(fd, serve::FrameType::kChunk, payload, deadline);
  } else {
    serve::write_frame(fd, serve::FrameType::kFin, {}, deadline);  // empty
  }
  serve::Frame frame;
  const bool got =
      serve::read_frame(fd, frame, serve::kMaxFramePayload, deadline);
  ::close(fd);
  if (!got) fail("probe: server closed without a response");
  if (frame.type != serve::FrameType::kError) {
    fail("probe: expected an ERROR frame, got type " +
         std::to_string(static_cast<unsigned>(frame.type)));
  }
  const serve::WireError err = serve::decode_error(frame.payload);
  const char* expected = probe == "bad-crc" ? "chunk-crc" : "empty-stream";
  if (std::string(serve::to_string(err.code)) != expected) {
    fail(std::string("probe: expected ") + expected + ", server answered " +
         serve::to_string(err.code));
  }
  std::cout << "probe " << probe << ": server answered "
            << serve::to_string(err.code) << "\n";
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string socket_path;
  std::string path;
  std::string workload_name;
  std::string probe;
  bool instruction = true;
  serve::ClientOptions copts;
  serve::RetryPolicy policy;
  policy.max_attempts = 1;  // --retries N => N extra attempts
  std::uint64_t timeout_ms = 0;  // 0 = library defaults
  int i = 1;
  if (argv[1][0] != '-') {
    path = argv[1];
    i = 2;
  }
  for (; i < argc; ++i) {
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "D") == 0) instruction = false;
    else if (std::strcmp(argv[i], "I") == 0) instruction = true;
    else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc)
      socket_path = argv[++i];
    else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc)
      workload_name = argv[++i];
    else if (std::strcmp(argv[i], "--probe") == 0 && i + 1 < argc)
      probe = argv[++i];
    else if (std::strcmp(argv[i], "--chunk-words") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 1, serve::kMaxChunkWords, v))
        return 2;
      copts.chunk_words = static_cast<std::size_t>(v);
      ++i;
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 0, ~std::uint32_t{0}, v))
        return 2;
      timeout_ms = v;
      ++i;
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 0, 100, v)) return 2;
      policy.max_attempts = static_cast<std::uint32_t>(v) + 1;
      ++i;
    } else if (std::strcmp(argv[i], "--backoff") == 0 && i + 1 < argc) {
      if (!parse_flag_u64(argv[i], argv[i + 1], 1, 60'000, v)) return 2;
      policy.backoff_ms = static_cast<std::uint32_t>(v);
      ++i;
    } else if (argv[i][0] != '-' && path.empty() && workload_name.empty())
      path = argv[i];
    else {
      std::cerr << "unknown argument: " << argv[i] << "\n";
      return 2;
    }
  }
  if (socket_path.empty()) return usage();
  if (timeout_ms != 0) {
    copts.io_timeout_ms = static_cast<std::uint32_t>(timeout_ms);
    copts.verdict_timeout_ms = static_cast<std::uint32_t>(timeout_ms);
  }
  if (!probe.empty()) {
    if (probe != "empty" && probe != "bad-crc") return usage();
    if (!path.empty() || !workload_name.empty()) return usage();
    return run_probe(socket_path, probe, instruction, copts.io_timeout_ms);
  }
  if (path.empty() == workload_name.empty()) return usage();  // exactly one

  serve::Verdict verdict;
  if (!workload_name.empty()) {
    // Chunks go straight from the capture thread's queue onto the wire.
    // The retry loop re-captures the workload per attempt — capture is
    // deterministic, so a replayed session streams the identical bytes.
    const Workload& w = find_workload(workload_name);
    serve::RetryBackoff backoff(policy);
    for (std::uint32_t attempt = 0;; ++attempt) {
      try {
        serve::TuneClient client(socket_path, instruction, copts);
        stream_workload(w, [&](const PackedChunk& chunk) {
          client.send(instruction ? chunk.ifetch_words() : chunk.data_words());
        });
        verdict = client.finish();
        break;
      } catch (const serve::TuneError& e) {
        if (!e.retryable() || attempt + 1 >= policy.max_attempts) throw;
        const std::uint32_t delay = backoff.next_delay_ms(e.retry_after_ms());
        std::cerr << "retrying in " << delay << " ms after "
                  << to_string(e.kind()) << " (attempt " << (attempt + 2)
                  << "/" << policy.max_attempts << ")\n";
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }
  } else {
    PackedSplitTrace split = load_packed_trace(path);
    const std::vector<std::uint32_t> sel =
        instruction ? std::move(split.ifetch) : std::move(split.data);
    verdict =
        serve::tune_remote_retry(socket_path, instruction, sel, policy, copts);
  }

  const EnergyModel model;
  print_exhaustive_report(std::cout, instruction, verdict.accesses,
                          all_configs(), verdict.stats, model);
  return 0;
}

}  // namespace
}  // namespace stcache

int main(int argc, char** argv) {
  try {
    return stcache::run(argc, argv);
  } catch (const stcache::serve::TuneError& e) {
    if (e.kind() == stcache::serve::TuneErrorKind::kConnect) {
      std::cerr << "error: cannot connect: " << e.what() << "\n";
      return 3;
    }
    if (e.kind() == stcache::serve::TuneErrorKind::kDisconnect) {
      std::cerr << "error: connection lost mid-session: " << e.what() << "\n";
      return 1;
    }
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return 1;
  }
}
