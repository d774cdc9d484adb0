// Loopback integration tests of the tuning service (serve/server.hpp +
// serve/client.hpp): a real TuningServer on a unix-domain socket, real
// clients, and the invariants ISSUE/docs/serving.md promise — verdicts
// bit-identical to the in-process bank, one corrupted session never
// perturbing a concurrent clean one, disconnects abandoning cleanly,
// protocol violations answered with typed ERROR frames, and verdict
// stability under tight pool/budget backpressure. repro.sh runs this suite
// under TSan and ASan/UBSan.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/config.hpp"
#include "core/report.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "trace/replay.hpp"
#include "util/error.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

using serve::Frame;
using serve::FrameType;
using serve::ServerOptions;
using serve::TuneClient;
using serve::TuningServer;
using serve::Verdict;
using serve::WireErrorCode;

// sun_path caps unix socket paths at ~100 chars: keep them short and
// unique under a per-run temp directory.
std::string socket_path(const std::string& name) {
  static const std::string dir = [] {
    char tmpl[] = "/tmp/stcsrvXXXXXX";
    const char* d = mkdtemp(tmpl);
    STC_ASSERT(d != nullptr, "mkdtemp failed");
    return std::string(d);
  }();
  return dir + "/" + name + ".sock";
}

// One capture shared by every test in the suite.
const std::vector<std::uint32_t>& crc_ifetch() {
  static const std::vector<std::uint32_t> sel =
      capture_packed(find_workload("crc")).ifetch;
  return sel;
}

std::vector<CacheStats> local_bank(std::span<const std::uint32_t> sel) {
  BankAccumulator bank(all_configs());
  bank.feed(sel);
  return bank.stats();
}

TEST(Serving, VerdictMatchesInProcessBank) {
  ServerOptions opts;
  opts.socket_path = socket_path("happy");
  opts.workers = 2;
  TuningServer server(opts);
  server.start();
  const std::vector<std::uint32_t>& sel = crc_ifetch();
  const Verdict v = serve::tune_remote(opts.socket_path, true, sel);
  server.stop();

  EXPECT_EQ(v.accesses, sel.size());
  EXPECT_EQ(v.stats, local_bank(sel));  // bit-identical, not approximately
  EXPECT_EQ(server.sessions_served(), 1u);
}

TEST(Serving, ConcurrentSessionsAllGetCorrectVerdicts) {
  ServerOptions opts;
  opts.socket_path = socket_path("multi");
  opts.workers = 2;
  TuningServer server(opts);
  server.start();
  const std::vector<std::uint32_t>& sel = crc_ifetch();
  // Four clients with different prefixes of the same stream, in flight at
  // once: every verdict must match its own stream's local bank.
  const std::size_t kClients = 4;
  std::vector<std::size_t> lengths;
  for (std::size_t i = 1; i <= kClients; ++i) {
    lengths.push_back(sel.size() / (kClients + 1) * i);
  }
  std::vector<Verdict> verdicts(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const std::span<const std::uint32_t> stream(sel.data(), lengths[i]);
      verdicts[i] = serve::tune_remote(opts.socket_path, true, stream, 4096);
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(verdicts[i].accesses, lengths[i]);
    EXPECT_EQ(verdicts[i].stats,
              local_bank({sel.data(), lengths[i]}));
  }
  EXPECT_EQ(server.sessions_served(), kClients);
}

TEST(Serving, CorruptSessionDoesNotPerturbCleanSession) {
  ServerOptions opts;
  opts.socket_path = socket_path("corrupt");
  opts.workers = 2;
  TuningServer server(opts);
  server.start();
  const std::vector<std::uint32_t>& sel = crc_ifetch();

  // Solo baseline: the clean stream with nothing else on the server.
  const Verdict solo = serve::tune_remote(opts.socket_path, true, sel, 4096);

  // The same clean stream again, while a sibling session feeds the server
  // a CRC-corrupted chunk mid-flight.
  Verdict concurrent;
  std::thread clean([&] {
    concurrent = serve::tune_remote(opts.socket_path, true, sel, 4096);
  });

  const int fd = serve::unix_connect(opts.socket_path);
  serve::write_frame(fd, FrameType::kHello, serve::encode_hello(true));
  std::vector<std::uint8_t> payload =
      serve::encode_chunk(std::span<const std::uint32_t>(sel.data(), 64));
  payload[12] ^= 0xff;  // flip a word byte: the declared CRC is now wrong
  serve::write_frame(fd, FrameType::kChunk, payload);
  Frame resp;
  ASSERT_TRUE(serve::read_frame(fd, resp));
  ASSERT_EQ(resp.type, FrameType::kError);
  EXPECT_EQ(serve::decode_error(resp.payload).code, WireErrorCode::kChunkCrc);
  ::close(fd);

  clean.join();
  server.stop();

  // The poisoned sibling changed nothing: same counters, same bytes out.
  EXPECT_EQ(concurrent.accesses, solo.accesses);
  EXPECT_EQ(concurrent.stats, solo.stats);
  const EnergyModel model;
  std::ostringstream a, b;
  print_exhaustive_report(a, true, solo.accesses, all_configs(), solo.stats,
                          model);
  print_exhaustive_report(b, true, concurrent.accesses, all_configs(),
                          concurrent.stats, model);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Serving, MidStreamDisconnectAbandonsWithoutResponse) {
  ServerOptions opts;
  opts.socket_path = socket_path("abandon");
  opts.workers = 1;
  TuningServer server(opts);
  server.start();
  const std::vector<std::uint32_t>& sel = crc_ifetch();
  {
    TuneClient client(opts.socket_path, true, 1024);
    client.send({sel.data(), 4096});
    // Destructor closes the socket with no FIN: the server abandons.
  }
  // The abandoned session never counts as served, and the server keeps
  // answering fresh sessions.
  const std::span<const std::uint32_t> small(sel.data(), 8192);
  const Verdict v = serve::tune_remote(opts.socket_path, true, small);
  server.stop();
  EXPECT_EQ(v.accesses, small.size());
  EXPECT_EQ(v.stats, local_bank(small));
  EXPECT_EQ(server.sessions_served(), 1u);
}

TEST(Serving, EmptyStreamIsAnsweredWithError) {
  ServerOptions opts;
  opts.socket_path = socket_path("empty");
  opts.workers = 1;
  TuningServer server(opts);
  server.start();
  TuneClient client(opts.socket_path, true);
  try {
    client.finish();  // FIN with zero words streamed
    FAIL() << "expected a server error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("empty-stream"), std::string::npos);
  }
  server.stop();
  EXPECT_EQ(server.sessions_served(), 1u);  // ERROR answers count as served
}

TEST(Serving, ProtocolViolationsAreAnsweredWithTypedErrors) {
  ServerOptions opts;
  opts.socket_path = socket_path("proto");
  opts.workers = 1;
  TuningServer server(opts);
  server.start();

  // CHUNK before HELLO.
  {
    const int fd = serve::unix_connect(opts.socket_path);
    serve::write_frame(
        fd, FrameType::kChunk,
        serve::encode_chunk(std::span<const std::uint32_t>(crc_ifetch().data(), 4)));
    Frame resp;
    ASSERT_TRUE(serve::read_frame(fd, resp));
    EXPECT_EQ(resp.type, FrameType::kError);
    EXPECT_EQ(serve::decode_error(resp.payload).code, WireErrorCode::kProtocol);
    ::close(fd);
  }

  // HELLO with a corrupted magic.
  {
    const int fd = serve::unix_connect(opts.socket_path);
    std::vector<std::uint8_t> hello = serve::encode_hello(true);
    hello[0] ^= 0xff;
    serve::write_frame(fd, FrameType::kHello, hello);
    Frame resp;
    ASSERT_TRUE(serve::read_frame(fd, resp));
    EXPECT_EQ(resp.type, FrameType::kError);
    EXPECT_EQ(serve::decode_error(resp.payload).code, WireErrorCode::kProtocol);
    ::close(fd);
  }

  // A second HELLO inside an open session.
  {
    const int fd = serve::unix_connect(opts.socket_path);
    serve::write_frame(fd, FrameType::kHello, serve::encode_hello(true));
    serve::write_frame(fd, FrameType::kHello, serve::encode_hello(true));
    Frame resp;
    ASSERT_TRUE(serve::read_frame(fd, resp));
    EXPECT_EQ(resp.type, FrameType::kError);
    EXPECT_EQ(serve::decode_error(resp.payload).code, WireErrorCode::kProtocol);
    ::close(fd);
  }

  // An absurd declared frame length: rejected before any allocation.
  {
    const int fd = serve::unix_connect(opts.socket_path);
    serve::write_frame(fd, FrameType::kHello, serve::encode_hello(true));
    const std::uint8_t header[5] = {2, 0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::send(fd, header, sizeof header, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof header));
    Frame resp;
    ASSERT_TRUE(serve::read_frame(fd, resp));
    EXPECT_EQ(resp.type, FrameType::kError);
    EXPECT_EQ(serve::decode_error(resp.payload).code, WireErrorCode::kProtocol);
    ::close(fd);
  }

  server.stop();
}

TEST(Serving, VerdictStableUnderTightPoolAndBudget) {
  // Two chunk buffers and a budget of one force every backpressure path:
  // the verdict must still be bit-identical to the unconstrained bank.
  ServerOptions opts;
  opts.socket_path = socket_path("tight");
  opts.workers = 1;
  opts.pool_chunks = 2;
  opts.chunk_words = 256;
  opts.session_budget = 1;
  TuningServer server(opts);
  server.start();
  const std::span<const std::uint32_t> sel(crc_ifetch().data(), 65536);
  const Verdict v = serve::tune_remote(opts.socket_path, true, sel, 256);
  server.stop();
  EXPECT_EQ(v.accesses, sel.size());
  EXPECT_EQ(v.stats, local_bank(sel));
}

TEST(Serving, FramesLargerThanAPoolBufferAreSplitIntoPoolBuffers) {
  // A CHUNK may carry up to kMaxChunkWords words, far more than one pool
  // buffer holds. The reader must split each 4096-word frame into pool
  // buffers of at most 256 words. ChunkPool::release() throws on a buffer
  // that is not exactly chunk_words long, so a reader that grew a buffer
  // to fit the frame ends the shard worker, and this test, instead of
  // passing. The verdict stays bit-identical to the in-process bank; the
  // 300-word tail makes the last frame and its last piece short.
  ServerOptions opts;
  opts.socket_path = socket_path("split");
  opts.workers = 1;
  opts.pool_chunks = 2;
  opts.chunk_words = 256;
  opts.session_budget = 1;
  TuningServer server(opts);
  server.start();
  const std::span<const std::uint32_t> sel(crc_ifetch().data(), 65536 + 300);
  const Verdict v = serve::tune_remote(opts.socket_path, true, sel, 4096);
  server.stop();
  EXPECT_EQ(v.accesses, sel.size());
  EXPECT_EQ(v.stats, local_bank(sel));
  EXPECT_EQ(server.sessions_served(), 1u);
  EXPECT_EQ(server.sessions_poisoned(), 0u);
}

TEST(Serving, StaleSocketIsReclaimedLiveSocketIsNot) {
  const std::string path = socket_path("stale");
  // Leave a dead socket file behind (bound, never unlinked, no listener).
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);
  }
  ServerOptions opts;
  opts.socket_path = path;
  opts.workers = 1;
  TuningServer server(opts);
  server.start();  // reclaims the stale file
  EXPECT_TRUE(server.running());

  // A second server on the LIVE path must refuse, not steal it.
  TuningServer second(opts);
  EXPECT_THROW(second.start(), Error);
  server.stop();
}

}  // namespace
}  // namespace stcache
