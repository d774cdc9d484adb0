// Tuning as a service: an in-process TuningServer plus two concurrent
// clients of it — the worked example behind docs/serving.md §5.
//
//  1. Start stcache_tuned's server class on a loopback unix socket.
//  2. Client 1 streams the workload's instruction fetches chunk by chunk
//     as they are captured (nothing materialized on either side); client 2
//     ships the materialized data stream in one call. Both run at once.
//  3. Each VERDICT carries the full 27-config CacheStats bank; prime a
//     TraceEvaluator with it and both searches become pure lookups.
//  4. A third, misbehaving session (CRC-corrupted chunk) is answered with
//     a typed ERROR and perturbs neither verdict — the failure-isolation
//     invariant of docs/serving.md §4.
//
// Build & run:  ./build/examples/example_tuning_service [workload]
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "energy/energy_model.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "workloads/workload.hpp"

using namespace stcache;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "crc";
  const Workload& workload = find_workload(name);
  std::cout << "Workload: " << workload.name << " — " << workload.description
            << "\n\n";

  // A daemon in miniature: same server class stcache_tuned wraps, here
  // with two sweep workers on a socket under a fresh temp directory
  // (sun_path caps socket paths at ~100 chars, so keep them short).
  char tmpl[] = "/tmp/stcexXXXXXX";
  const char* dir = mkdtemp(tmpl);
  STC_ASSERT(dir != nullptr, "mkdtemp failed");
  serve::ServerOptions opts;
  opts.socket_path = std::string(dir) + "/svc.sock";
  opts.workers = 2;
  serve::TuningServer server(opts);
  server.start();
  std::cout << "Server listening on " << server.socket_path() << " with "
            << server.workers() << " shard worker(s).\n";

  // Two sessions in flight at once, one per cache stream.
  serve::Verdict verdicts[2];
  std::thread ifetch_client([&] {
    // Streaming: each packed chunk goes from the capture callback straight
    // onto the wire; capture, socket, and the server's sweep all overlap.
    serve::TuneClient client(opts.socket_path, /*instruction=*/true);
    stream_workload(workload, [&](const PackedChunk& chunk) {
      client.send(chunk.ifetch_words());
    });
    verdicts[0] = client.finish();
  });
  std::thread data_client([&] {
    // Materialized: capture first, then one tune_remote() call.
    const PackedCapture cap = capture_packed(workload);
    verdicts[1] = serve::tune_remote(opts.socket_path, /*instruction=*/false,
                                     cap.data);
  });
  ifetch_client.join();
  data_client.join();

  // Each verdict is the whole measured design space: prime an evaluator
  // with it and run the paper's searches as memo lookups.
  const EnergyModel model;
  Table table({"cache", "heuristic pick", "examined", "exhaustive optimum",
               "energy", "savings vs base"});
  for (const bool instruction : {true, false}) {
    const serve::Verdict& v = verdicts[instruction ? 0 : 1];
    TraceEvaluator eval(std::span<const std::uint32_t>{}, model);
    eval.prime_from(all_configs(), v.stats);
    const SearchResult heur = tune(eval);
    const SearchResult best = tune_exhaustive(eval);
    const double base = eval.energy(base_cache());
    table.add_row({instruction ? "I-cache" : "D-cache", heur.best.name(),
                   std::to_string(heur.configs_examined), best.best.name(),
                   fmt_si_energy(best.best_energy),
                   fmt_percent(1.0 - best.best_energy / base, 1)});
  }
  table.print(std::cout);

  // Failure isolation, live: a session that declares a wrong CRC gets a
  // typed ERROR and nothing else on the server notices.
  const int fd = serve::unix_connect(opts.socket_path);
  serve::write_frame(fd, serve::FrameType::kHello, serve::encode_hello(true));
  const std::uint32_t words[4] = {1, 2, 3, 4};
  std::vector<std::uint8_t> payload =
      serve::encode_chunk(std::span<const std::uint32_t>(words, 4));
  payload[8] ^= 0xff;  // flip a word byte: the declared CRC is now wrong
  serve::write_frame(fd, serve::FrameType::kChunk, payload);
  serve::Frame resp;
  STC_ASSERT(serve::read_frame(fd, resp) &&
                 resp.type == serve::FrameType::kError,
             "expected a typed ERROR for the corrupted session");
  const serve::WireError err = serve::decode_error(resp.payload);
  ::close(fd);
  std::cout << "\nA deliberately corrupted third session was answered with "
            << "ERROR '" << serve::to_string(err.code)
            << "' — and only that session was poisoned.\n";

  server.stop();
  ::unlink(opts.socket_path.c_str());
  ::rmdir(dir);
  std::cout << "Server drained and stopped after "
            << server.sessions_served() << " served sessions.\n";
  return 0;
}
