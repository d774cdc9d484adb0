#include "trace/stream.hpp"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace stcache {

namespace {

// Raised inside the producer thread when the consumer abandon()ed the
// queue: unwinds the capture run promptly; stream_capture()'s producer
// wrapper converts it into queue.fail(), where it is usually shadowed by
// the consumer-side exception that caused the abandonment.
[[noreturn]] void fail_abandoned_stream() {
  fail("stream capture: consumer abandoned the stream");
}

}  // namespace

// --- PackedChunk ------------------------------------------------------------

void PackedChunk::reserve(std::size_t words) {
  if (capacity >= words) return;
  ifetch = std::make_unique_for_overwrite<std::uint32_t[]>(words);
  data = std::make_unique_for_overwrite<std::uint32_t[]>(words);
  capacity = words;
}

// --- SpscChunkQueue ---------------------------------------------------------

SpscChunkQueue::SpscChunkQueue(std::size_t max_depth)
    : max_depth_(std::max<std::size_t>(1, max_depth)) {}

PackedChunk SpscChunkQueue::acquire() {
  PackedChunk chunk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      chunk = std::move(free_.back());
      free_.pop_back();
    }
  }
  chunk.ifetch_count = 0;
  chunk.data_count = 0;
  return chunk;
}

bool SpscChunkQueue::push(PackedChunk&& chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  can_push_.wait(lock,
                 [&] { return full_.size() < max_depth_ || abandoned_; });
  if (abandoned_) return false;
  full_.push_back(std::move(chunk));
  can_pop_.notify_one();
  return true;
}

void SpscChunkQueue::finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
  }
  can_pop_.notify_all();
}

void SpscChunkQueue::fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::move(error);
    finished_ = true;
  }
  can_pop_.notify_all();
}

bool SpscChunkQueue::pop(PackedChunk& out) {
  std::unique_lock<std::mutex> lock(mu_);
  can_pop_.wait(lock, [&] { return !full_.empty() || finished_; });
  // A producer error invalidates the whole capture: surface it immediately
  // rather than draining chunks whose run never completed.
  if (error_) std::rethrow_exception(error_);
  if (full_.empty()) return false;  // finished and drained
  out = std::move(full_.front());
  full_.pop_front();
  can_push_.notify_one();
  return true;
}

void SpscChunkQueue::recycle(PackedChunk&& chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(chunk));
}

void SpscChunkQueue::abandon() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    abandoned_ = true;
  }
  can_push_.notify_all();
}

// --- ChunkQueueSink ---------------------------------------------------------

ChunkQueueSink::ChunkQueueSink(SpscChunkQueue& queue, std::size_t chunk_words)
    : queue_(queue), chunk_words_(std::max<std::size_t>(16, chunk_words)) {}

void ChunkQueueSink::commit() {
  if (!open_) return;
  chunk_.ifetch_count = static_cast<std::size_t>(iw_ - chunk_.ifetch.get());
  chunk_.data_count = static_cast<std::size_t>(dw_ - chunk_.data.get());
}

void ChunkQueueSink::open_chunk(std::size_t min_words) {
  chunk_ = queue_.acquire();
  chunk_.reserve(std::max(chunk_words_, min_words));
  iw_ = chunk_.ifetch.get();
  iw_end_ = iw_ + chunk_.capacity;
  dw_ = chunk_.data.get();
  dw_end_ = dw_ + chunk_.capacity;
  open_ = true;
}

void ChunkQueueSink::refill(std::size_t min_free) {
  commit();
  if (open_ && (chunk_.ifetch_count > 0 || chunk_.data_count > 0)) {
    if (!queue_.push(std::move(chunk_))) {
      open_ = false;
      fail_abandoned_stream();
    }
  }
  open_chunk(min_free);
}

void ChunkQueueSink::flush() {
  commit();
  if (open_ && (chunk_.ifetch_count > 0 || chunk_.data_count > 0)) {
    if (!queue_.push(std::move(chunk_))) {
      open_ = false;
      fail_abandoned_stream();
    }
  }
  open_ = false;
  iw_ = iw_end_ = dw_ = dw_end_ = nullptr;
}

// --- PackedBufferSink -------------------------------------------------------

PackedBufferSink::PackedBufferSink(std::size_t initial_words) {
  const std::size_t words = std::max<std::size_t>(16, initial_words);
  ifetch_.resize(words);
  data_.resize(words);
  iw_ = ifetch_.data();
  iw_end_ = iw_ + ifetch_.size();
  dw_ = data_.data();
  dw_end_ = dw_ + data_.size();
}

namespace {

// Double `words` (to at least `min_free` words past the cursor) if fewer
// than `min_free` are left past it, and re-point the cursor pair.
void ensure_room(std::vector<std::uint32_t>& words, std::uint32_t*& cursor,
                 std::uint32_t*& end, std::size_t min_free) {
  if (static_cast<std::size_t>(end - cursor) >= min_free) return;
  const std::size_t used = static_cast<std::size_t>(cursor - words.data());
  words.resize(std::max(words.size() * 2, used + min_free));
  cursor = words.data() + used;
  end = words.data() + words.size();
}

}  // namespace

void PackedBufferSink::refill(std::size_t min_free) {
  ensure_room(ifetch_, iw_, iw_end_, min_free);
  ensure_room(data_, dw_, dw_end_, min_free);
}

std::vector<std::uint32_t> PackedBufferSink::take_ifetch() {
  ifetch_.resize(static_cast<std::size_t>(iw_ - ifetch_.data()));
  iw_ = iw_end_ = nullptr;
  return std::move(ifetch_);
}

std::vector<std::uint32_t> PackedBufferSink::take_data() {
  data_.resize(static_cast<std::size_t>(dw_ - data_.data()));
  dw_ = dw_end_ = nullptr;
  return std::move(data_);
}

// --- OneStreamSink ----------------------------------------------------------

namespace {

// The kept stream's first mapping; it doubles in place from there. Only
// the pages the capture writes are ever faulted in.
constexpr std::size_t kFirstKeptWords = std::size_t{1} << 16;
// The dropped stream's scratch, small enough to stay in cache.
constexpr std::size_t kScratchWords = std::size_t{1} << 12;

}  // namespace

OneStreamSink::OneStreamSink(bool instruction)
    : instruction_(instruction),
      kept_(kFirstKeptWords * sizeof(std::uint32_t)) {
  // The dropped stream's cursors start null, so the first block's refill
  // allocates the scratch.
  (instruction_ ? iw_ : dw_) = kept_.data<std::uint32_t>();
  (instruction_ ? iw_end_ : dw_end_) =
      kept_.data<std::uint32_t>() + kFirstKeptWords;
}

void OneStreamSink::refill(std::size_t min_free) {
  std::uint32_t*& kept = instruction_ ? iw_ : dw_;
  std::uint32_t*& kept_end = instruction_ ? iw_end_ : dw_end_;
  if (static_cast<std::size_t>(kept_end - kept) < min_free) {
    const std::size_t used =
        static_cast<std::size_t>(kept - kept_.data<std::uint32_t>());
    kept_.grow(std::max(2 * kept_.size(),
                        (used + min_free) * sizeof(std::uint32_t)));
    kept = kept_.data<std::uint32_t>() + used;
    kept_end = kept_.data<std::uint32_t>() +
               kept_.size() / sizeof(std::uint32_t);
  }
  if (scratch_.size() < min_free)
    scratch_.resize(std::max(kScratchWords, min_free));
  // Nothing reads the dropped stream: rewind it over the scratch.
  (instruction_ ? dw_ : iw_) = scratch_.data();
  (instruction_ ? dw_end_ : iw_end_) = scratch_.data() + scratch_.size();
}

PagedStream OneStreamSink::take() {
  const std::uint32_t* const kept = instruction_ ? iw_ : dw_;
  PagedStream out;
  out.count = static_cast<std::size_t>(kept - kept_.data<std::uint32_t>());
  out.pages = std::move(kept_);
  iw_ = iw_end_ = dw_ = dw_end_ = nullptr;
  return out;
}

// --- stream_capture ---------------------------------------------------------

RunResult stream_capture(const std::function<RunResult(PackedSink&)>& produce,
                         const std::function<void(const PackedChunk&)>& consume,
                         std::size_t chunk_words, std::size_t queue_depth) {
  SpscChunkQueue queue(queue_depth);
  RunResult result;  // written by the producer thread, read after join()
  std::thread producer([&] {
    try {
      ChunkQueueSink sink(queue, chunk_words);
      result = produce(sink);
      sink.flush();
      queue.finish();
    } catch (...) {
      queue.fail(std::current_exception());
    }
  });
  PackedChunk chunk;
  try {
    while (queue.pop(chunk)) {
      consume(chunk);
      queue.recycle(std::move(chunk));
    }
  } catch (...) {
    // Consumer failed (or the producer's error surfaced through pop):
    // unblock any pending push so the producer unwinds, then join before
    // rethrowing — the thread must not outlive `queue`.
    queue.abandon();
    producer.join();
    throw;
  }
  producer.join();
  return result;
}

}  // namespace stcache
