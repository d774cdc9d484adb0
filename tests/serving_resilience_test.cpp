// Resilience tests of the tuning service under deterministic wire chaos
// (fault/chaos.hpp) and operational stress: seeded campaigns over five
// wire fault classes × eight seeds each, with a concurrent CLEAN session
// whose verdict must stay bit-identical to the solo baseline while the
// chaos session misbehaves next to it; daemon kill-and-restart absorbed by
// client backoff; admission-control shedding with retry-after; graceful
// drain; and the idle/total session deadlines. Every socket read in this
// file is deadline-bounded, so a server that hangs is a typed test
// failure, never a stuck ctest run. repro.sh replays the campaigns under
// TSan and ASan/UBSan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <initializer_list>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cache/config.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "trace/replay.hpp"
#include "util/error.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

using serve::ClientOptions;
using serve::Frame;
using serve::FrameType;
using serve::RetryPolicy;
using serve::ServerOptions;
using serve::TuneClient;
using serve::TuneError;
using serve::TuneErrorKind;
using serve::TuningServer;
using serve::Verdict;
using serve::WireErrorCode;

constexpr std::uint64_t kSeeds = 8;  // per fault class (ISSUE 7 floor)

std::string socket_path(const std::string& name) {
  static const std::string dir = [] {
    char tmpl[] = "/tmp/stcresXXXXXX";
    const char* d = mkdtemp(tmpl);
    STC_ASSERT(d != nullptr, "mkdtemp failed");
    return std::string(d);
  }();
  return dir + "/" + name + ".sock";
}

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

bool contains(std::initializer_list<ChaosOutcome> allowed, ChaosOutcome o) {
  for (ChaosOutcome a : allowed) {
    if (a == o) return true;
  }
  return false;
}

// One chaos campaign: `seeds` sessions of `base` (reseeded per session)
// against one server, each racing a CLEAN client whose verdict must stay
// bit-identical to the solo baseline. Every non-verdict chaos outcome is
// followed by a clean replay of the same stream — the "successful retry"
// half of the resilience contract — which must also be bit-identical.
WireFaultCounts run_campaign(const std::string& sock, const FaultPlan& base,
                             std::initializer_list<ChaosOutcome> allowed) {
  ServerOptions opts;
  opts.socket_path = socket_path(sock);
  opts.workers = 2;
  opts.idle_timeout_ms = 2'000;  // headroom for TSan; sub-deadline stalls
  TuningServer server(opts);
  server.start();

  const std::span<const std::uint32_t> chaos_sel(crc_ifetch().data(), 4096);
  const std::span<const std::uint32_t> clean_sel(crc_ifetch().data(), 8192);
  const std::vector<CacheStats> chaos_base = local_bank(chaos_sel);
  const std::vector<CacheStats> clean_base = local_bank(clean_sel);

  WireFaultCounts fired;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Verdict clean;
    std::thread concurrent([&] {
      clean = serve::tune_remote(opts.socket_path, true, clean_sel, 1024);
    });

    ChaosEndpoint chaos(base.reseeded(seed), /*response_timeout_ms=*/10'000);
    const ChaosReport report =
        chaos.run(opts.socket_path, true, chaos_sel, /*chunk_words=*/512);
    concurrent.join();

    EXPECT_TRUE(contains(allowed, report.outcome))
        << "seed " << seed << ": outcome " << to_string(report.outcome)
        << " (" << report.detail << ")";
    // The misbehaving neighbor must not have perturbed the clean session
    // by a single bit.
    EXPECT_EQ(clean.accesses, clean_sel.size()) << "seed " << seed;
    EXPECT_EQ(clean.stats, clean_base) << "seed " << seed;

    if (report.outcome == ChaosOutcome::kVerdict) {
      // The faults that fired were absorbed: the verdict must be the real
      // one, not an approximation.
      EXPECT_EQ(report.verdict.stats, chaos_base) << "seed " << seed;
    } else {
      // Sessions are idempotent: a clean replay after any failure is the
      // sanctioned recovery, and must land the exact baseline verdict.
      // (Server-detected frame corruption reports non-retryable — resending
      // the same bytes would fail the same way — but a fresh session is
      // always fair game.)
      const Verdict retried =
          serve::tune_remote(opts.socket_path, true, chaos_sel, 512);
      EXPECT_EQ(retried.accesses, chaos_sel.size()) << "seed " << seed;
      EXPECT_EQ(retried.stats, chaos_base) << "seed " << seed;
    }

    fired.corrupted += report.counts.corrupted;
    fired.truncated += report.counts.truncated;
    fired.disconnects += report.counts.disconnects;
    fired.stalls += report.counts.stalls;
    fired.duplicates += report.counts.duplicates;
    fired.frames_sent += report.counts.frames_sent;
  }
  server.stop();
  return fired;
}

// --- the five fault-class campaigns ------------------------------------------

TEST(ServingResilience, CorruptFrameCampaign) {
  FaultPlan plan;
  plan.seed = 0xC0DE0001;
  plan.wire_corrupt = 0.7;
  const WireFaultCounts fired = run_campaign(
      "corrupt", plan,
      {ChaosOutcome::kVerdict, ChaosOutcome::kServerError});
  EXPECT_GT(fired.corrupted, 0u);  // the campaign actually fired its class
}

TEST(ServingResilience, TruncatedFrameCampaign) {
  FaultPlan plan;
  plan.seed = 0xC0DE0002;
  plan.wire_truncate = 0.7;
  const WireFaultCounts fired = run_campaign(
      "truncate", plan,
      {ChaosOutcome::kVerdict, ChaosOutcome::kServerError});
  EXPECT_GT(fired.truncated, 0u);
}

TEST(ServingResilience, DisconnectCampaign) {
  FaultPlan plan;
  plan.seed = 0xC0DE0003;
  plan.wire_disconnect = 0.7;
  const WireFaultCounts fired = run_campaign(
      "disconnect", plan,
      {ChaosOutcome::kVerdict, ChaosOutcome::kSelfDisconnect});
  EXPECT_GT(fired.disconnects, 0u);
}

TEST(ServingResilience, SubDeadlineStallCampaign) {
  // Stalls below the server's idle deadline must be absorbed: every
  // session completes with the exact verdict, no timeouts, no errors.
  FaultPlan plan;
  plan.seed = 0xC0DE0004;
  plan.wire_stall = 0.5;
  plan.wire_stall_ms = 40;
  const WireFaultCounts fired =
      run_campaign("stall", plan, {ChaosOutcome::kVerdict});
  EXPECT_GT(fired.stalls, 0u);
}

TEST(ServingResilience, DuplicateChunkCampaign) {
  // Duplicated CHUNKs pass framing and CRC — only the verdict/words-sent
  // cross-check can catch them, and it must.
  FaultPlan plan;
  plan.seed = 0xC0DE0005;
  plan.wire_duplicate = 0.7;
  const WireFaultCounts fired = run_campaign(
      "duplicate", plan,
      {ChaosOutcome::kVerdict, ChaosOutcome::kMismatch});
  EXPECT_GT(fired.duplicates, 0u);
}

// --- operational resilience --------------------------------------------------

TEST(ServingResilience, DaemonRestartIsAbsorbedByClientBackoff) {
  const std::string path = socket_path("restart");
  const std::span<const std::uint32_t> sel(crc_ifetch().data(), 131072);
  const std::vector<CacheStats> baseline = local_bank(sel);

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_ms = 30;
  policy.seed = 42;

  // Phase 1: the daemon is not up yet. The client's first attempts land
  // kConnect and back off; the daemon appearing mid-backoff is absorbed.
  ServerOptions opts;
  opts.socket_path = path;
  opts.workers = 2;
  Verdict v1;
  std::thread client1([&] {
    v1 = serve::tune_remote_retry(path, true, sel, policy);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  TuningServer first(opts);
  first.start();
  client1.join();
  EXPECT_EQ(v1.accesses, sel.size());
  EXPECT_EQ(v1.stats, baseline);

  // Phase 2: kill the daemon mid-session, restart it, and let the same
  // retry policy replay the whole stream against the successor.
  Verdict v2;
  std::thread client2([&] {
    v2 = serve::tune_remote_retry(path, true, sel, policy);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  first.stop();  // aborts whatever was in flight
  TuningServer second(opts);
  second.start();
  client2.join();
  second.stop();
  EXPECT_EQ(v2.accesses, sel.size());
  EXPECT_EQ(v2.stats, baseline);
}

TEST(ServingResilience, OverloadSheddingRefusesWithRetryAfter) {
  ServerOptions opts;
  opts.socket_path = socket_path("shed");
  opts.workers = 1;
  opts.max_inflight_sessions = 1;
  opts.retry_after_ms = 37;
  TuningServer server(opts);
  server.start();
  const std::span<const std::uint32_t> sel(crc_ifetch().data(), 8192);

  // Occupy the single admission slot with an open-ended session. Its
  // HELLO is processed asynchronously, and a probe sent before then could
  // take the slot and get the hog refused instead, so wait (bounded)
  // until the server has admitted the hog.
  TuneClient hog(opts.socket_path, true, 512);
  hog.send({sel.data(), 1024});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.sessions_in_flight() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.sessions_in_flight(), 1u) << "the hog was never admitted";

  // With the slot taken, admission control must refuse the next session.
  bool shed = false;
  std::uint16_t hint = 0;
  try {
    serve::tune_remote(opts.socket_path, true, {sel.data(), 512}, 512);
  } catch (const TuneError& e) {
    ASSERT_EQ(e.kind(), TuneErrorKind::kOverload) << e.what();
    EXPECT_TRUE(e.retryable());
    shed = true;
    hint = e.retry_after_ms();
  }
  ASSERT_TRUE(shed) << "admission control did not refuse";
  EXPECT_EQ(hint, 37);  // the server's configured reconnect hint
  EXPECT_GE(server.sessions_shed(), 1u);

  // Releasing the slot restores service: the shed client's retry lands.
  // (The slot frees asynchronously as the server closes the hog's
  // connection, so the follow-up uses the backoff client — exactly the
  // recovery path the retry-after hint exists for.)
  const Verdict hog_v = [&] {
    hog.send({sel.data() + 1024, sel.size() - 1024});
    return hog.finish();
  }();
  EXPECT_EQ(hog_v.accesses, sel.size());
  RetryPolicy policy;
  policy.max_attempts = 20;
  policy.backoff_ms = 20;
  const Verdict after =
      serve::tune_remote_retry(opts.socket_path, true, sel, policy);
  EXPECT_EQ(after.stats, hog_v.stats);
  server.stop();
}

TEST(ServingResilience, GracefulDrainFinishesInFlightAndRefusesNew) {
  ServerOptions opts;
  opts.socket_path = socket_path("drain");
  opts.workers = 2;
  opts.retry_after_ms = 64;
  TuningServer server(opts);
  server.start();
  const std::span<const std::uint32_t> sel(crc_ifetch().data(), 16384);
  const std::vector<CacheStats> baseline = local_bank(sel);

  // An in-flight session, mid-stream when the drain starts.
  TuneClient inflight(opts.socket_path, true, 512);
  inflight.send({sel.data(), 8192});
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  bool drained = false;
  std::thread drainer([&] { drained = server.drain(10'000); });
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // New sessions are refused with the drain hint...
  try {
    serve::tune_remote(opts.socket_path, true, {sel.data(), 512}, 512);
    FAIL() << "expected the draining server to shed the new session";
  } catch (const TuneError& e) {
    EXPECT_EQ(e.kind(), TuneErrorKind::kOverload) << e.what();
    EXPECT_NE(std::string(e.what()).find("draining"), std::string::npos);
    EXPECT_EQ(e.retry_after_ms(), 64);
  }

  // ...while the in-flight session runs to its full, exact verdict.
  inflight.send({sel.data() + 8192, sel.size() - 8192});
  const Verdict v = inflight.finish();
  drainer.join();
  EXPECT_TRUE(drained);
  EXPECT_FALSE(server.running());  // drain stop()s once idle
  EXPECT_EQ(v.accesses, sel.size());
  EXPECT_EQ(v.stats, baseline);
  EXPECT_GE(server.sessions_shed(), 1u);
}

TEST(ServingResilience, IdleSessionIsTimedOutWithTypedError) {
  ServerOptions opts;
  opts.socket_path = socket_path("idle");
  opts.workers = 1;
  opts.pool_chunks = 2;
  opts.chunk_words = 512;
  opts.idle_timeout_ms = 150;
  opts.retry_after_ms = 21;
  TuningServer server(opts);
  server.start();
  const std::span<const std::uint32_t> sel(crc_ifetch().data(), 4096);

  // HELLO + one chunk, then silence: the server must diagnose the idle
  // session, answer `ERROR timeout`, and recycle its pooled chunk.
  const int fd = serve::unix_connect(opts.socket_path);
  serve::write_frame(fd, FrameType::kHello, serve::encode_hello(true));
  serve::write_frame(fd, FrameType::kChunk,
                     serve::encode_chunk({sel.data(), 512}));
  Frame resp;
  ASSERT_TRUE(serve::read_frame(fd, resp, serve::kMaxFramePayload,
                                serve::wire_deadline_after(5'000)));
  ::close(fd);
  ASSERT_EQ(resp.type, FrameType::kError);
  const serve::WireError err = serve::decode_error(resp.payload);
  EXPECT_EQ(err.code, WireErrorCode::kTimeout);
  EXPECT_EQ(err.retry_after_ms, 21);
  EXPECT_EQ(server.sessions_timed_out(), 1u);
  EXPECT_EQ(server.sessions_poisoned(), 1u);

  // The timed-out session's chunks went back to the tiny pool: a full
  // clean session (needing every buffer) still completes exactly.
  const Verdict v = serve::tune_remote(opts.socket_path, true, sel, 512);
  EXPECT_EQ(v.accesses, sel.size());
  EXPECT_EQ(v.stats, local_bank(sel));
  server.stop();
}

TEST(ServingResilience, TricklingSessionHitsTheTotalDeadline) {
  ServerOptions opts;
  opts.socket_path = socket_path("trickle");
  opts.workers = 1;
  opts.idle_timeout_ms = 0;      // no idle deadline: only the total one
  opts.session_timeout_ms = 300;
  TuningServer server(opts);
  server.start();
  const std::span<const std::uint32_t> sel(crc_ifetch().data(), 4096);

  // A byzantine client that never idles long enough to trip an idle
  // deadline but trickles forever: the total session budget must end it.
  const int fd = serve::unix_connect(opts.socket_path);
  serve::write_frame(fd, FrameType::kHello, serve::encode_hello(true));
  bool write_died = false;
  for (int i = 0; i < 30 && !write_died; ++i) {
    try {
      serve::write_frame(fd, FrameType::kChunk,
                         serve::encode_chunk({sel.data(), 64}),
                         serve::wire_deadline_after(1'000));
    } catch (const Error&) {
      write_died = true;  // server gave up on us: expected
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  Frame resp;
  bool got_error = false;
  try {
    while (serve::read_frame(fd, resp, serve::kMaxFramePayload,
                             serve::wire_deadline_after(5'000))) {
      if (resp.type == FrameType::kError) {
        got_error = true;
        break;
      }
    }
  } catch (const Error&) {
    // Buffered data flushed by a reset: the counters below still prove
    // the server diagnosed the timeout.
  }
  ::close(fd);
  if (got_error) {
    EXPECT_EQ(serve::decode_error(resp.payload).code, WireErrorCode::kTimeout);
  }
  EXPECT_EQ(server.sessions_timed_out(), 1u);
  server.stop();
}

}  // namespace
}  // namespace stcache
