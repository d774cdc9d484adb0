#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <utility>

#include "cache/config.hpp"
#include "util/error.hpp"

namespace stcache::serve {

TuningServer::TuningServer(ServerOptions opts) : opts_(std::move(opts)) {}

TuningServer::~TuningServer() { stop(); }

void TuningServer::start() {
  if (running_) fail("tuning server: already running");
  workers_ = opts_.workers != 0
                 ? opts_.workers
                 : std::max(1u, std::thread::hardware_concurrency());
  pool_ = std::make_unique<ChunkPool>(opts_.pool_chunks, opts_.chunk_words);
  queues_ = std::make_unique<ShardedSessionQueues>(workers_, *pool_,
                                                   opts_.session_budget);
  listen_fd_ = unix_listen(opts_.socket_path, opts_.listen_backlog);
  stopping_ = false;
  draining_ = false;
  running_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  worker_threads_.reserve(workers_);
  for (std::size_t shard = 0; shard < workers_; ++shard) {
    worker_threads_.emplace_back([this, shard] { worker_loop(shard); });
  }
}

void TuningServer::stop() {
  if (!running_) return;
  stopping_ = true;
  // Wake the accept loop; the fd is closed after the thread joins.
  ::shutdown(listen_fd_, SHUT_RDWR);
  // Force every open connection out of its blocking read, and every
  // FIN-waiter out of its verdict wait.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    for (auto& [id, entry] : sessions_) {
      {
        std::lock_guard<std::mutex> elock(entry->write_mu);
        entry->done = true;
      }
      entry->done_cv.notify_all();
    }
  }
  queues_->shutdown();  // workers drain, then exit
  pool_->shutdown();    // readers blocked on a dry pool unwind
  {
    std::unique_lock<std::mutex> lock(mu_);
    connections_drained_.wait(lock, [&] { return active_connections_ == 0; });
  }
  for (std::thread& t : worker_threads_) t.join();
  worker_threads_.clear();
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(opts_.socket_path.c_str());
  running_ = false;
}

bool TuningServer::drain(std::uint32_t deadline_ms) {
  if (!running_) return true;
  // New HELLOs are refused from here on (serve_connection's admission
  // check); connections already past HELLO run to completion.
  draining_ = true;
  const WireDeadline deadline = wire_deadline_after(deadline_ms);
  bool drained;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto idle = [&] { return active_connections_ == 0; };
    if (deadline == kNoWireDeadline) {
      connections_drained_.wait(lock, idle);
      drained = true;
    } else {
      drained = connections_drained_.wait_until(lock, deadline, idle);
    }
  }
  stop();  // stragglers past the deadline are aborted here
  return drained;
}

void TuningServer::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop) or unrecoverable
    }
    if (stopping_) {
      ::close(fd);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn_fds_.push_back(fd);
      ++active_connections_;
    }
    // Detached on purpose: lifetime is tracked by active_connections_,
    // which stop() waits on, so no thread outlives the server.
    std::thread([this, fd] { serve_connection(fd); }).detach();
  }
}

std::size_t TuningServer::sessions_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

TuningServer::EntryPtr TuningServer::find_entry(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : it->second;
}

bool TuningServer::send_response(const EntryPtr& entry, FrameType type,
                                 std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(entry->write_mu);
  if (entry->replied) return false;
  entry->replied = true;
  ++sessions_served_;
  try {
    write_frame(entry->fd, type, payload, response_deadline());
  } catch (...) {
    // The client may already be gone (or too stalled to take the frame
    // before the write deadline); the session is answered either way.
  }
  return true;
}

void TuningServer::send_error(const EntryPtr& entry, WireErrorCode code,
                              const std::string& message,
                              std::uint16_t retry_after_ms) {
  send_response(entry, FrameType::kError,
                encode_error(code, message, retry_after_ms));
}

void TuningServer::fail_session(std::uint64_t session, const EntryPtr& entry,
                                WireErrorCode code, const std::string& message,
                                std::uint16_t retry_after_ms) {
  queues_->poison(session);  // purge queued chunks back to the pool
  ++sessions_poisoned_;
  if (code == WireErrorCode::kTimeout) ++sessions_timed_out_;
  send_error(entry, code, message, retry_after_ms);
}

void TuningServer::mark_entry_done(const EntryPtr& entry) {
  {
    std::lock_guard<std::mutex> lock(entry->write_mu);
    entry->done = true;
  }
  entry->done_cv.notify_all();
}

void TuningServer::serve_connection(int fd) {
  std::uint64_t session = 0;
  EntryPtr entry;
  bool fin_sent = false;

  // Pre-session failures answer on the raw fd (there is no session to
  // poison yet).
  auto raw_error = [&](WireErrorCode code, const std::string& message,
                       std::uint16_t retry_after = 0) {
    try {
      const auto payload = encode_error(code, message, retry_after);
      write_frame(fd, FrameType::kError, payload, response_deadline());
    } catch (...) {
    }
  };

  // The total-session clock starts at accept; every frame read is bounded
  // by the sooner of the idle deadline (reset per frame) and this one.
  const WireDeadline session_deadline =
      wire_deadline_after(opts_.session_timeout_ms);

  try {
    Frame frame;
    bool instruction = true;
    bool hello_ok = false;
    try {
      if (read_frame(fd, frame, kMaxFramePayload,
                     frame_deadline(session_deadline))) {
        if (frame.type != FrameType::kHello) {
          raw_error(WireErrorCode::kProtocol,
                    "expected HELLO, got frame type " +
                        std::to_string(static_cast<unsigned>(frame.type)));
        } else {
          try {
            const Hello hello = decode_hello(frame.payload);
            instruction = hello.instruction;
            hello_ok = true;
          } catch (const std::exception& e) {
            raw_error(WireErrorCode::kProtocol, e.what());
          }
        }
      }
    } catch (const WireTimeout& e) {
      // Slow-loris: connected but never produced a HELLO in time.
      ++sessions_timed_out_;
      raw_error(WireErrorCode::kTimeout, e.what());
      hello_ok = false;
    } catch (const std::exception& e) {
      // Torn or malformed bytes before a session exists (e.g. a HELLO cut
      // mid-frame): still answered with a typed ERROR, never a bare close.
      raw_error(WireErrorCode::kProtocol, e.what());
      hello_ok = false;
    }

    // Admission control: shed BEFORE the session touches the pool, so an
    // overloaded server answers cheaply instead of piling readers onto
    // already-contended buffers (docs/serving.md §6).
    if (hello_ok) {
      std::string refuse;
      if (draining_ || stopping_) {
        refuse = "draining: not accepting new sessions";
      } else if (opts_.max_inflight_sessions != 0 &&
                 sessions_in_flight() >= opts_.max_inflight_sessions) {
        refuse = "overloaded: session capacity reached";
      }
      if (refuse.empty() && opts_.shed_pool_min != 0 &&
          pool_->available() < opts_.shed_pool_min) {
        refuse = "overloaded: chunk pool pressure";
      }
      if (!refuse.empty()) {
        ++sessions_shed_;
        raw_error(WireErrorCode::kOverload, refuse, opts_.retry_after_ms);
        hello_ok = false;
      }
    }

    if (hello_ok) {
      try {
        session = queues_->open_session();
      } catch (const std::exception& e) {
        raw_error(WireErrorCode::kOverload, e.what(), opts_.retry_after_ms);
      }
    }

    if (session != 0) {
      entry = std::make_shared<SessionEntry>();
      entry->fd = fd;
      entry->instruction = instruction;
      {
        std::lock_guard<std::mutex> lock(mu_);
        sessions_.emplace(session, entry);
      }

      while (!fin_sent) {
        bool got = false;
        bool malformed = false;
        bool timed_out = false;
        std::string why;
        try {
          got = read_frame(fd, frame, kMaxFramePayload,
                           frame_deadline(session_deadline));
        } catch (const WireTimeout& e) {
          timed_out = true;
          why = e.what();
        } catch (const std::exception& e) {
          // Oversized/unknown frame or mid-frame EOF: the stream is
          // unusable either way.
          malformed = true;
          why = e.what();
        }
        if (timed_out) {
          fail_session(session, entry, WireErrorCode::kTimeout, why,
                       opts_.retry_after_ms);
          break;
        }
        if (malformed) {
          fail_session(session, entry, WireErrorCode::kProtocol, why);
          break;
        }
        if (!got) {
          // Clean disconnect without FIN: abandoned, no response owed.
          queues_->abandon(session);
          break;
        }
        if (frame.type == FrameType::kChunk) {
          if (!forward_chunk(session, entry, frame.payload,
                             session_deadline)) {
            break;
          }
        } else if (frame.type == FrameType::kFin) {
          fin_sent = true;
          queues_->finish(session);
          // Wait for the shard worker to retire the FIN and answer —
          // bounded, so a wedged shard cannot pin this reader forever.
          const WireDeadline deadline = frame_deadline(session_deadline);
          bool finished;
          {
            std::unique_lock<std::mutex> lock(entry->write_mu);
            const auto done = [&] { return entry->done; };
            if (deadline == kNoWireDeadline) {
              entry->done_cv.wait(lock, done);
              finished = true;
            } else {
              finished = entry->done_cv.wait_until(lock, deadline, done);
            }
          }
          if (!finished) {
            fail_session(session, entry, WireErrorCode::kTimeout,
                         "timeout: verdict not ready before the deadline",
                         opts_.retry_after_ms);
          }
        } else {
          fail_session(session, entry, WireErrorCode::kProtocol,
                       "unexpected frame type " +
                           std::to_string(static_cast<unsigned>(frame.type)) +
                           " inside a session");
          break;
        }
      }
    }
  } catch (const std::exception&) {
    // Pool shutdown or a socket error outside the per-frame handling:
    // treat as a dead connection.
    if (session != 0) queues_->abandon(session);
  }

  if (session != 0) {
    queues_->abandon(session);  // no-op unless still streaming
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.erase(session);
    }
    queues_->close_session(session);
  }
  ::close(fd);
  {
    // Notify under mu_: once the count hits zero stop() may return and the
    // server be destroyed, so the broadcast must complete before the
    // waiter can re-check the predicate (it re-acquires mu_ to do so).
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
    --active_connections_;
    connections_drained_.notify_all();
  }
}

bool TuningServer::forward_chunk(std::uint64_t session, const EntryPtr& entry,
                                 std::span<const std::uint8_t> payload,
                                 WireDeadline session_deadline) {
  std::size_t count = 0;
  try {
    count = check_chunk(payload);
  } catch (const std::exception& e) {
    const std::string message = e.what();
    const WireErrorCode code = message.find("crc") != std::string::npos
                                   ? WireErrorCode::kChunkCrc
                                   : WireErrorCode::kProtocol;
    fail_session(session, entry, code, message);
    return false;
  }
  for (std::size_t first = 0; first < count;) {
    PooledChunk chunk;
    // Global backpressure, bounded: a dry pool past the deadline sheds
    // this session instead of pinning its reader forever.
    if (!pool_->acquire_until(frame_deadline(session_deadline), chunk)) {
      fail_session(session, entry, WireErrorCode::kTimeout,
                   "timeout: chunk pool exhausted past the deadline",
                   opts_.retry_after_ms);
      return false;
    }
    chunk.count = std::min(count - first, chunk.words.size());
    decode_chunk(payload, first, {chunk.words.data(), chunk.count});
    first += chunk.count;
    const auto pushed = queues_->push_until(session, std::move(chunk),
                                            frame_deadline(session_deadline));
    if (pushed == ShardedSessionQueues::PushResult::kTimedOut) {
      fail_session(session, entry, WireErrorCode::kTimeout,
                   "timeout: session budget saturated past the deadline",
                   opts_.retry_after_ms);
      return false;
    }
    if (pushed == ShardedSessionQueues::PushResult::kRefused) {
      // Poisoned by the worker (its ERROR frame is authoritative), or the
      // server is stopping.
      return false;
    }
  }
  return true;
}

void TuningServer::worker_loop(std::size_t shard) {
  ShardedSessionQueues::Item item;
  while (queues_->pop(shard, item)) {
    const EntryPtr entry = find_entry(item.session);
    const SessionState st = queues_->state(item.session);
    if (entry) {
      try {
        if (item.fin) {
          if (st == SessionState::kFinishing) {
            if (entry->bank.words_fed() == 0) {
              send_error(entry, WireErrorCode::kEmptyStream,
                         "fin: no packed words were streamed");
            } else {
              const std::vector<CacheStats> stats = entry->bank.stats();
              const auto payload =
                  encode_verdict(entry->bank.words_fed(), stats);
              send_response(entry, FrameType::kVerdict, payload);
            }
            queues_->mark_done(item.session);
          }
          mark_entry_done(entry);
        } else if (st == SessionState::kStreaming ||
                   st == SessionState::kFinishing) {
          entry->bank.feed(item.chunk.valid_words());
        }
      } catch (const std::exception& e) {
        // A failure inside THIS session's sweep poisons only this session;
        // the worker — and every other session on this shard — lives on.
        fail_session(item.session, entry, WireErrorCode::kInternal, e.what());
        mark_entry_done(entry);
      }
    }
    queues_->release(std::move(item));
  }
}

}  // namespace stcache::serve
