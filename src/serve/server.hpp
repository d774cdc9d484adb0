// TuningServer — the multi-tenant tuning service core shared by the
// stcache_tuned daemon and the in-process embedding example
// (examples/tuning_service.cpp).
//
// Topology (docs/serving.md has the full architecture):
//
//   client sockets          connection readers         sharded queues
//   ──────────────          ------------------         --------------
//   HELLO/CHUNK/FIN  ──▶  one thread per connection ──▶ ChunkPool +
//                          (frame parse, CRC check,     ShardedSessionQueues
//                           backpressure via pool)          │ 1 worker/shard
//                                                           ▼
//   VERDICT/ERROR  ◀───── verdict writer (the shard     BankAccumulator
//                          worker that retires FIN)     per session
//
// Every session is pinned to one shard worker, which owns that session's
// BankAccumulator — per-session sweep state is single-threaded by
// construction, exactly like the SPSC pipeline's consumer. A malformed
// session (bad frame, CRC mismatch, decode failure) is poisoned and
// answered with ERROR; the worker pool and every concurrent session are
// untouched, and a poisoned session NEVER gets a verdict computed from
// partial data (the serving analogue of the PR 2 controller's refusal to
// act on distrusted measurements; docs/robustness.md).
//
// Verdicts are computed by the same BankAccumulator the in-process
// pipeline uses, so a daemon verdict is bit-identical to
// `stcache_tune --exhaustive` on the same stream — repro.sh byte-compares
// the two end to end.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/wire.hpp"
#include "trace/replay.hpp"
#include "trace/shard.hpp"

namespace stcache::serve {

struct ServerOptions {
  std::string socket_path;
  // Sweep worker threads == queue shards. 0 = hardware_concurrency.
  std::size_t workers = 0;
  // Fixed buffer pool shared by every session: total serving memory is
  // pool_chunks × chunk_words × 4 bytes, decided here and never exceeded.
  std::size_t pool_chunks = 64;
  std::size_t chunk_words = std::size_t{1} << 14;
  // Max chunks one session may have in flight before its reader blocks.
  std::size_t session_budget = 4;
  int listen_backlog = 16;

  // --- resilience knobs (docs/serving.md §6) --------------------------------
  // A connection that makes no frame progress for this long is timed out:
  // the session is poisoned (chunks purged back to the pool), answered
  // with `ERROR timeout`, and closed. 0 = no idle deadline.
  std::uint32_t idle_timeout_ms = 30'000;
  // Total wall-clock budget for one session, HELLO to response. A byzantine
  // client that trickles frames forever hits this even if it never idles.
  // 0 = no total deadline.
  std::uint32_t session_timeout_ms = 0;
  // Admission control: refuse HELLOs (ERROR overload + retry-after) once
  // this many sessions are in flight, instead of letting readers pile onto
  // the pool. 0 = unlimited.
  std::size_t max_inflight_sessions = 0;
  // Pool-pressure shedding: refuse HELLOs while fewer than this many pool
  // chunks are free. 0 = disabled.
  std::size_t shed_pool_min = 0;
  // The retry-after hint attached to overload/drain refusals.
  std::uint16_t retry_after_ms = 50;
};

class TuningServer {
 public:
  explicit TuningServer(ServerOptions opts);
  ~TuningServer();  // stop()s if still running

  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  // Bind the socket and launch the accept loop and shard workers. Throws
  // stcache::Error (e.g. path in use) without leaking threads.
  void start();
  // Stop serving: in-flight sessions are aborted, all threads join, the
  // socket file is unlinked. Idempotent.
  void stop();

  // Graceful drain, the SIGTERM/SIGINT path: new HELLOs are refused with
  // `ERROR overload "draining"` + retry-after, in-flight sessions run to
  // completion up to `deadline_ms` (0 = wait forever), then stop().
  // Returns true if every in-flight session finished before the deadline
  // (stragglers past it are aborted by stop() as usual). Idempotent-safe
  // with stop().
  bool drain(std::uint32_t deadline_ms);
  bool draining() const { return draining_; }

  bool running() const { return running_; }
  const std::string& socket_path() const { return opts_.socket_path; }
  std::size_t workers() const { return workers_; }
  // Sessions answered so far (VERDICT or ERROR).
  std::uint64_t sessions_served() const { return sessions_served_; }
  // Sessions poisoned (CRC/protocol/internal/timeout failures).
  std::uint64_t sessions_poisoned() const { return sessions_poisoned_; }
  // HELLOs refused by admission control (capacity, pool pressure, drain).
  std::uint64_t sessions_shed() const { return sessions_shed_; }
  // Connections/sessions that blew an idle/total deadline.
  std::uint64_t sessions_timed_out() const { return sessions_timed_out_; }
  // Sessions admitted and not yet closed: what admission control holds
  // against max_inflight_sessions.
  std::size_t sessions_in_flight() const;

 private:
  // Server-side session record. The connection reader owns the lifecycle;
  // the shard worker owns `bank`. `write_mu` serializes the single
  // response frame (reader-side protocol errors vs worker verdicts).
  struct SessionEntry {
    BankAccumulator bank{all_configs()};
    int fd = -1;
    bool instruction = true;
    std::mutex write_mu;
    bool replied = false;       // at most one VERDICT/ERROR per session
    std::condition_variable done_cv;
    bool done = false;          // response sent (or session dead)
  };
  using EntryPtr = std::shared_ptr<SessionEntry>;

  void accept_loop();
  void serve_connection(int fd);
  // Verify one CHUNK payload, then queue its words in stream order, split
  // into pool buffers of at most chunk_words words: a frame may carry up to
  // kMaxChunkWords, and no pooled buffer ever grows past the pool's size.
  // Returns false once the session is over; any failure is already
  // answered.
  bool forward_chunk(std::uint64_t session, const EntryPtr& entry,
                     std::span<const std::uint8_t> payload,
                     WireDeadline session_deadline);
  void worker_loop(std::size_t shard);

  EntryPtr find_entry(std::uint64_t session);
  // Send the session's single response frame; returns false if one was
  // already sent. Socket errors are swallowed (the client may be gone),
  // and the write itself is deadline-bounded by idle_timeout_ms so a
  // stalled client cannot pin the sender.
  bool send_response(const EntryPtr& entry, FrameType type,
                     std::span<const std::uint8_t> payload);
  void send_error(const EntryPtr& entry, WireErrorCode code,
                  const std::string& message, std::uint16_t retry_after_ms = 0);
  void mark_entry_done(const EntryPtr& entry);
  // Poison + typed ERROR + accounting, the reader-side failure epilogue.
  void fail_session(std::uint64_t session, const EntryPtr& entry,
                    WireErrorCode code, const std::string& message,
                    std::uint16_t retry_after_ms = 0);
  WireDeadline response_deadline() const {
    return wire_deadline_after(opts_.idle_timeout_ms);
  }
  // A frame read or pool/budget wait is bounded by the sooner of the idle
  // deadline (reset per call) and the session's total deadline.
  WireDeadline frame_deadline(WireDeadline session_deadline) const {
    return std::min(wire_deadline_after(opts_.idle_timeout_ms),
                    session_deadline);
  }

  ServerOptions opts_;
  std::size_t workers_ = 0;
  std::unique_ptr<ChunkPool> pool_;
  std::unique_ptr<ShardedSessionQueues> queues_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;

  mutable std::mutex mu_;  // guards sessions_, conn_fds_, active_connections_
  std::unordered_map<std::uint64_t, EntryPtr> sessions_;
  std::vector<int> conn_fds_;  // open connection fds, for forced shutdown
  std::size_t active_connections_ = 0;
  std::condition_variable connections_drained_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> sessions_served_{0};
  std::atomic<std::uint64_t> sessions_poisoned_{0};
  std::atomic<std::uint64_t> sessions_shed_{0};
  std::atomic<std::uint64_t> sessions_timed_out_{0};
};

}  // namespace stcache::serve
