// N-producer sharded session queues: the multi-tenant generalization of
// the single-SPSC streaming pipeline in trace/stream.hpp.
//
// stream.hpp moves ONE workload's packed chunks from one capture thread to
// one consumer. A tuning service (serve/server.hpp, tools/stcache_tuned)
// instead has many concurrent producers — one connection reader per client
// session — and a fixed pool of sweep workers. This header provides the
// three pieces that topology needs, with the same free-list-recycling,
// bounded-memory discipline the SPSC queue established:
//
//   ChunkPool             A FIXED budget of packed-word buffers shared by
//                         every session (TrustedSSD-style static buffer
//                         pool: total serving memory is capacity ×
//                         chunk_words × 4 bytes, decided at startup and
//                         never exceeded). acquire() blocks when the pool
//                         is dry — that is the global backpressure, which
//                         propagates to clients through the reader's
//                         socket.
//
//   ShardedSessionQueues  The session registry plus per-shard work queues.
//                         A session is opened by a producer, pinned to one
//                         shard (round-robin) for its lifetime, and pushes
//                         chunks in order; each shard is drained by exactly
//                         one worker thread, which round-robins across the
//                         shard's sessions (per-session FIFO, cross-session
//                         fairness). A bounded per-session chunk budget
//                         keeps one fast producer from monopolizing the
//                         pool: push() blocks once `session_budget` chunks
//                         are in flight until the worker releases some.
//
//   SessionState          The per-session lifecycle:
//
//                             open_session          finish        verdict
//                         ──▶ kStreaming ────────▶ kFinishing ──▶ kDone
//                                 │   │                │
//                       (producer │   │ (worker error) │
//                        vanished)▼   ▼                ▼
//                           kAbandoned   kPoisoned (CRC/decode failure)
//
//                         Poisoning and abandonment purge the session's
//                         queued chunks back to the pool and affect ONLY
//                         that session: the worker pool and every other
//                         session keep running — the serving-tier version
//                         of the PR 2 controller's per-session fault
//                         isolation (docs/robustness.md, docs/serving.md).
//
// Thread safety: one mutex guards the registry and all shard queues
// (operations are chunk-granular, so contention is negligible against the
// sweep work each chunk represents); per-shard condition variables wake
// exactly the shard's worker. Producers may call from any thread; each
// shard must be drained by a single worker thread — per-session chunk
// order then follows from the FIFO queue, with no cross-worker session
// sharing by construction.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace stcache {

// One packed-words buffer drawn from a ChunkPool. `count` words of `words`
// are valid; the vector keeps its full pool-decided capacity so recycled
// buffers never reallocate (the PackedChunk discipline of stream.hpp).
struct PooledChunk {
  std::vector<std::uint32_t> words;
  std::size_t count = 0;

  std::span<const std::uint32_t> valid_words() const {
    return {words.data(), count};
  }
};

// Fixed-size pool of chunk buffers. Buffers are allocated lazily up to
// `capacity`, then recycled forever: steady-state serving memory is flat
// regardless of how many sessions come and go.
class ChunkPool {
 public:
  ChunkPool(std::size_t capacity, std::size_t chunk_words);

  // A free buffer, its count reset. Blocks while every buffer is in
  // flight; throws stcache::Error after shutdown() (so blocked producers
  // unwind when the server stops).
  PooledChunk acquire();
  // Deadline-bounded acquire: true and a buffer in `out`, or false once
  // `deadline` passes with the pool still dry (the caller's cue to shed
  // its session instead of pinning a reader thread forever). Still throws
  // after shutdown().
  bool acquire_until(std::chrono::steady_clock::time_point deadline,
                     PooledChunk& out);
  // Hand a buffer back; never blocks. Throws (an internal-invariant
  // failure) if the buffer is not exactly chunk_words long.
  void release(PooledChunk&& chunk);
  // Unblock every acquire() with an error; release() still accepted.
  void shutdown();

  std::size_t capacity() const { return capacity_; }
  std::size_t chunk_words() const { return chunk_words_; }
  // Buffers not currently held by a producer/queue/worker (tests).
  std::size_t available() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable can_acquire_;
  std::vector<PooledChunk> free_;
  std::size_t allocated_ = 0;
  const std::size_t capacity_;
  const std::size_t chunk_words_;
  bool shutdown_ = false;
};

enum class SessionState : std::uint8_t {
  kStreaming,   // accepting chunks
  kFinishing,   // FIN queued; worker will emit the verdict
  kDone,        // verdict (or error) delivered
  kPoisoned,    // CRC/decode/protocol failure: no verdict will ever come
  kAbandoned,   // producer vanished mid-stream
  kClosed,      // unregistered (state() result for unknown ids)
};
const char* to_string(SessionState s);

// The session registry and the sharded work queues, as described above.
class ShardedSessionQueues {
 public:
  // One work item as a shard worker sees it: a chunk of `session`'s packed
  // stream, or the end-of-stream marker (`fin`, carrying no buffer).
  struct Item {
    std::uint64_t session = 0;
    PooledChunk chunk;
    bool fin = false;
  };

  ShardedSessionQueues(std::size_t num_shards, ChunkPool& pool,
                       std::size_t session_budget);

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t session_budget() const { return session_budget_; }

  // --- producer side (any thread) ------------------------------------------
  // Register a new session and pin it to a shard (round-robin). Session
  // ids are process-unique and never reused.
  std::uint64_t open_session();
  std::size_t shard_of(std::uint64_t session) const;
  // Queue one chunk in stream order. Blocks while the session already has
  // `session_budget` chunks in flight (queued or held by the worker).
  // Returns false — recycling the chunk — if the session stopped accepting
  // (poisoned, abandoned, or shutdown).
  bool push(std::uint64_t session, PooledChunk&& chunk);
  // Deadline-bounded push: kTimedOut (chunk recycled) if the session is
  // still over budget when `deadline` passes — a worker wedged on this
  // shard must not pin the reader past its session deadline.
  enum class PushResult { kAccepted, kRefused, kTimedOut };
  PushResult push_until(std::uint64_t session, PooledChunk&& chunk,
                        std::chrono::steady_clock::time_point deadline);
  // Queue the end-of-stream marker; kStreaming -> kFinishing. Returns
  // false if the session is not streaming (e.g. already poisoned).
  bool finish(std::uint64_t session);
  // Producer vanished: purge queued chunks back to the pool, unblock any
  // stuck push(), -> kAbandoned. The worker drops whatever it still sees.
  void abandon(std::uint64_t session);
  // Forget the session entirely (purges leftovers). state() -> kClosed.
  void close_session(std::uint64_t session);

  // --- consumer side (one worker thread per shard) --------------------------
  // Next item for `shard`, fair across its sessions (per-session FIFO,
  // round-robin between sessions with pending work). Blocks until an item
  // arrives; returns false once shutdown() has been called and the shard
  // is drained.
  bool pop(std::size_t shard, Item& out);
  // Recycle a processed item's buffer and credit the session's budget.
  void release(Item&& item);
  // Worker hit a CRC/decode failure in this session's stream: purge it,
  // refuse further chunks, -> kPoisoned. Only this session is affected.
  void poison(std::uint64_t session);
  // Verdict (or error) delivered; kFinishing -> kDone.
  void mark_done(std::uint64_t session);

  SessionState state(std::uint64_t session) const;
  std::size_t sessions_open() const;

  // Unblock all producers and workers; pop() drains then returns false.
  void shutdown();

 private:
  struct Session {
    std::size_t shard = 0;
    SessionState state = SessionState::kStreaming;
    std::size_t in_flight = 0;  // pushed, not yet release()d
  };
  struct Shard {
    // Per-session FIFO of pending items...
    std::unordered_map<std::uint64_t, std::deque<Item>> pending;
    // ...and the round-robin rotation over sessions with pending work.
    std::deque<std::uint64_t> ready;
  };

  // Purge `session`'s queued items from its shard back to the pool.
  // Caller holds mu_.
  void purge_locked(std::uint64_t session, Session& s);

  ChunkPool& pool_;
  const std::size_t session_budget_;
  mutable std::mutex mu_;
  std::condition_variable can_push_;                // budget waiters
  std::vector<std::condition_variable> can_pop_;    // one per shard
  std::vector<Shard> shards_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_ = 1;
  std::size_t next_shard_ = 0;
  bool shutdown_ = false;
};

}  // namespace stcache
