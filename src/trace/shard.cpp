#include "trace/shard.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace stcache {

// --- ChunkPool --------------------------------------------------------------

ChunkPool::ChunkPool(std::size_t capacity, std::size_t chunk_words)
    : capacity_(std::max<std::size_t>(1, capacity)),
      chunk_words_(std::max<std::size_t>(16, chunk_words)) {}

PooledChunk ChunkPool::acquire() {
  PooledChunk chunk;
  const bool ok =
      acquire_until(std::chrono::steady_clock::time_point::max(), chunk);
  STC_ASSERT(ok, "chunk pool: unbounded acquire timed out");
  return chunk;
}

bool ChunkPool::acquire_until(std::chrono::steady_clock::time_point deadline,
                              PooledChunk& out) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto ready = [&] {
    return !free_.empty() || allocated_ < capacity_ || shutdown_;
  };
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    can_acquire_.wait(lock, ready);
  } else if (!can_acquire_.wait_until(lock, deadline, ready)) {
    return false;  // pool still dry at the deadline: shed, don't pin
  }
  if (shutdown_) fail("chunk pool: shut down");
  if (!free_.empty()) {
    out = std::move(free_.back());
    free_.pop_back();
  } else {
    ++allocated_;
    out.words.resize(chunk_words_);
  }
  out.count = 0;
  return true;
}

void ChunkPool::release(PooledChunk&& chunk) {
  // The memory bound: every buffer the pool hands out comes back at the
  // size it left with, so the pool never holds more than capacity ×
  // chunk_words words.
  STC_ASSERT(chunk.words.size() == chunk_words_,
             "chunk pool: released buffer was resized");
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(chunk));
  }
  can_acquire_.notify_one();
}

void ChunkPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  can_acquire_.notify_all();
}

std::size_t ChunkPool::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size() + (capacity_ - allocated_);
}

// --- SessionState -----------------------------------------------------------

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::kStreaming: return "streaming";
    case SessionState::kFinishing: return "finishing";
    case SessionState::kDone: return "done";
    case SessionState::kPoisoned: return "poisoned";
    case SessionState::kAbandoned: return "abandoned";
    case SessionState::kClosed: return "closed";
  }
  return "?";
}

// --- ShardedSessionQueues ---------------------------------------------------

ShardedSessionQueues::ShardedSessionQueues(std::size_t num_shards,
                                           ChunkPool& pool,
                                           std::size_t session_budget)
    : pool_(pool),
      session_budget_(std::max<std::size_t>(1, session_budget)),
      can_pop_(std::max<std::size_t>(1, num_shards)),
      shards_(std::max<std::size_t>(1, num_shards)) {}

std::uint64_t ShardedSessionQueues::open_session() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) fail("session queues: shut down");
  const std::uint64_t id = next_session_++;
  Session s;
  s.shard = next_shard_;
  next_shard_ = (next_shard_ + 1) % shards_.size();
  sessions_.emplace(id, s);
  return id;
}

std::size_t ShardedSessionQueues::shard_of(std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) fail("shard_of: unknown session");
  return it->second.shard;
}

bool ShardedSessionQueues::push(std::uint64_t session, PooledChunk&& chunk) {
  return push_until(session, std::move(chunk),
                    std::chrono::steady_clock::time_point::max()) ==
         PushResult::kAccepted;
}

ShardedSessionQueues::PushResult ShardedSessionQueues::push_until(
    std::uint64_t session, PooledChunk&& chunk,
    std::chrono::steady_clock::time_point deadline) {
  std::size_t shard;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    // Budget backpressure: wait for the worker to drain this session, or
    // for the session to stop accepting.
    const auto unblocked = [&] {
      if (shutdown_) return true;
      it = sessions_.find(session);
      if (it == sessions_.end()) return true;
      return it->second.state != SessionState::kStreaming ||
             it->second.in_flight < session_budget_;
    };
    bool ready;
    if (deadline == std::chrono::steady_clock::time_point::max()) {
      can_push_.wait(lock, unblocked);
      ready = true;
    } else {
      ready = can_push_.wait_until(lock, deadline, unblocked);
    }
    it = sessions_.find(session);
    if (!ready || shutdown_ || it == sessions_.end() ||
        it->second.state != SessionState::kStreaming) {
      lock.unlock();
      pool_.release(std::move(chunk));
      return ready ? PushResult::kRefused : PushResult::kTimedOut;
    }
    Session& s = it->second;
    ++s.in_flight;
    shard = s.shard;
    Shard& sh = shards_[shard];
    std::deque<Item>& q = sh.pending[session];
    if (q.empty()) sh.ready.push_back(session);
    q.push_back(Item{session, std::move(chunk), /*fin=*/false});
  }
  can_pop_[shard].notify_one();
  return PushResult::kAccepted;
}

bool ShardedSessionQueues::finish(std::uint64_t session) {
  std::size_t shard;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (shutdown_ || it == sessions_.end() ||
        it->second.state != SessionState::kStreaming) {
      return false;
    }
    Session& s = it->second;
    s.state = SessionState::kFinishing;
    shard = s.shard;
    Shard& sh = shards_[shard];
    std::deque<Item>& q = sh.pending[session];
    if (q.empty()) sh.ready.push_back(session);
    q.push_back(Item{session, PooledChunk{}, /*fin=*/true});
  }
  can_pop_[shard].notify_one();
  return true;
}

void ShardedSessionQueues::purge_locked(std::uint64_t session, Session& s) {
  Shard& sh = shards_[s.shard];
  auto qit = sh.pending.find(session);
  if (qit != sh.pending.end()) {
    for (Item& item : qit->second) {
      if (!item.chunk.words.empty()) {
        pool_.release(std::move(item.chunk));
        if (s.in_flight > 0) --s.in_flight;
      }
    }
    sh.pending.erase(qit);
  }
  sh.ready.erase(std::remove(sh.ready.begin(), sh.ready.end(), session),
                 sh.ready.end());
}

void ShardedSessionQueues::abandon(std::uint64_t session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) return;
    Session& s = it->second;
    if (s.state == SessionState::kStreaming ||
        s.state == SessionState::kFinishing) {
      s.state = SessionState::kAbandoned;
    }
    purge_locked(session, s);
  }
  can_push_.notify_all();
}

void ShardedSessionQueues::poison(std::uint64_t session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) return;
    Session& s = it->second;
    if (s.state == SessionState::kStreaming ||
        s.state == SessionState::kFinishing) {
      s.state = SessionState::kPoisoned;
    }
    purge_locked(session, s);
  }
  can_push_.notify_all();
}

void ShardedSessionQueues::mark_done(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  if (it->second.state == SessionState::kFinishing) {
    it->second.state = SessionState::kDone;
  }
}

void ShardedSessionQueues::close_session(std::uint64_t session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) return;
    purge_locked(session, it->second);
    sessions_.erase(it);
  }
  can_push_.notify_all();
}

bool ShardedSessionQueues::pop(std::size_t shard, Item& out) {
  STC_ASSERT(shard < shards_.size(), "pop: shard out of range");
  std::unique_lock<std::mutex> lock(mu_);
  Shard& sh = shards_[shard];
  can_pop_[shard].wait(lock, [&] { return !sh.ready.empty() || shutdown_; });
  if (sh.ready.empty()) return false;  // shutdown and drained
  const std::uint64_t session = sh.ready.front();
  sh.ready.pop_front();
  std::deque<Item>& q = sh.pending[session];
  STC_ASSERT(!q.empty(), "pop: ready session with empty queue");
  out = std::move(q.front());
  q.pop_front();
  if (!q.empty()) {
    sh.ready.push_back(session);  // rotate: fair across sessions
  } else {
    sh.pending.erase(session);
  }
  return true;
}

void ShardedSessionQueues::release(Item&& item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(item.session);
    if (it != sessions_.end() && !item.chunk.words.empty() &&
        it->second.in_flight > 0) {
      --it->second.in_flight;
    }
  }
  if (!item.chunk.words.empty()) pool_.release(std::move(item.chunk));
  can_push_.notify_all();
}

SessionState ShardedSessionQueues::state(std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  return it == sessions_.end() ? SessionState::kClosed : it->second.state;
}

std::size_t ShardedSessionQueues::sessions_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void ShardedSessionQueues::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  can_push_.notify_all();
  for (std::condition_variable& cv : can_pop_) cv.notify_all();
}

}  // namespace stcache
