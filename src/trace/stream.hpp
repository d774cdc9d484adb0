// Streaming capture→sweep pipeline: bounded SPSC chunk queue plus the
// PackedSink implementations that let FastCpu (sim/fast_cpu.hpp) emit
// packed trace words straight into consumers, killing the
// capture→Trace→disk→reload→pack_stream round trip.
//
// Topology (one producer thread, one consumer thread):
//
//   FastCpu::run(budget, sink)            stream_capture() caller
//        │ bump-pointer writes                  │
//        ▼                                      ▼
//   ChunkQueueSink ──push──▶ SpscChunkQueue ──pop──▶ consume(chunk)
//        ▲                    (bounded,             │ e.g. BankAccumulator
//        └──────recycle───────free-list)◀──────────┘   ::feed per stream
//
// A PackedChunk carries BOTH split streams (instruction fetches and data
// accesses) of one capture slice, already in pack_stream() format, so the
// consumer folds each chunk into its per-config accumulators and hands the
// buffer back for reuse: steady-state runs allocate a handful of chunks
// total, never a full trace. PackedBufferSink is the materialized
// counterpart (grows two flat vectors) for paths that still want whole
// packed streams in memory — it replaces the Trace AoS, not the streaming
// mode. OneStreamSink materializes one of the two streams only, for
// callers that use one side (the phase scenarios' sources).
//
// Thread safety: SpscChunkQueue is mutex+condvar (TSan-clean by
// construction) and assumes ONE producer and ONE consumer thread, matching
// the capture pipeline. Producer errors propagate to pop() via
// exception_ptr; a consumer that stops early abandon()s the queue, which
// turns the producer's next refill into an AbandonedStream error so the
// capture unwinds promptly instead of simulating into a void.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sim/fast_cpu.hpp"
#include "util/pages.hpp"

namespace stcache {

// One capture slice: the two split packed streams, each internally in
// program order. `*_count` words of each buffer are valid. The buffers are
// default-initialized, not zero-filled: the producer writes every word it
// publishes and consumers read only the counted words, so a chunk faults
// in only the pages its producer fills. A recycled chunk keeps its
// buffers, so it never reallocates.
struct PackedChunk {
  std::unique_ptr<std::uint32_t[]> ifetch;
  std::unique_ptr<std::uint32_t[]> data;
  std::size_t capacity = 0;  // words in each buffer
  std::size_t ifetch_count = 0;
  std::size_t data_count = 0;

  // Room for at least `words` per stream; the contents are not kept.
  void reserve(std::size_t words);

  std::span<const std::uint32_t> ifetch_words() const {
    return {ifetch.get(), ifetch_count};
  }
  std::span<const std::uint32_t> data_words() const {
    return {data.get(), data_count};
  }
};

// Bounded single-producer single-consumer queue of filled chunks with a
// free-list of drained buffers flowing the other way.
class SpscChunkQueue {
 public:
  explicit SpscChunkQueue(std::size_t max_depth = 4);

  // --- producer side -------------------------------------------------------
  // A drained buffer if one is waiting, else a fresh chunk. Never blocks.
  PackedChunk acquire();
  // Publish a filled chunk; blocks while the queue is at depth. Returns
  // false (discarding the chunk) once the consumer has abandoned the
  // stream.
  bool push(PackedChunk&& chunk);
  void finish();                        // no more chunks will be pushed
  void fail(std::exception_ptr error);  // propagate a producer error to pop()

  // --- consumer side -------------------------------------------------------
  // Next filled chunk in order. Blocks until one arrives; returns false
  // once the producer finished and everything is drained. Rethrows a
  // producer error as soon as it is observed.
  bool pop(PackedChunk& out);
  void recycle(PackedChunk&& chunk);  // hand a drained buffer back
  void abandon();                     // stop consuming; unblocks the producer

 private:
  std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<PackedChunk> full_;
  std::vector<PackedChunk> free_;
  const std::size_t max_depth_;
  bool finished_ = false;
  bool abandoned_ = false;
  std::exception_ptr error_;
};

// PackedSink over an SpscChunkQueue: FastCpu fills the current chunk
// through the bump-pointer cursors; refill() publishes it and opens the
// next one, so the queue mutex is touched once per chunk, not per access.
class ChunkQueueSink : public PackedSink {
 public:
  // 64 Ki words per stream per chunk: 512 KB in flight per queue slot,
  // large enough that queue traffic is noise, small enough that the
  // consumer starts folding almost immediately.
  static constexpr std::size_t kDefaultChunkWords = std::size_t{1} << 16;

  explicit ChunkQueueSink(SpscChunkQueue& queue,
                          std::size_t chunk_words = kDefaultChunkWords);

  // Publish the final partially-filled chunk. Call after the capture run
  // returns (the run committed its cursor positions into the sink).
  void flush();

 protected:
  void refill(std::size_t min_free) override;

 private:
  void commit();                          // fold cursors into chunk counts
  void open_chunk(std::size_t min_words);

  SpscChunkQueue& queue_;
  const std::size_t chunk_words_;
  PackedChunk chunk_;
  bool open_ = false;
};

// PackedSink that materializes the two packed streams in flat vectors —
// the in-memory replacement for capture_trace()+split_trace()+pack_stream()
// when a consumer genuinely needs random access (the heuristic evaluator's
// on-demand re-measurement, trace file export). A refill doubles only the
// stream that ran out of room.
class PackedBufferSink : public PackedSink {
 public:
  explicit PackedBufferSink(std::size_t initial_words = std::size_t{1} << 16);

  // The emitted streams, trimmed to what the run produced. Resets the sink.
  std::vector<std::uint32_t> take_ifetch();
  std::vector<std::uint32_t> take_data();

 protected:
  void refill(std::size_t min_free) override;

 private:
  std::vector<std::uint32_t> ifetch_;
  std::vector<std::uint32_t> data_;
};

// One packed stream in pages the OS zero-fills on first touch: `count`
// words from the start of `pages`.
struct PagedStream {
  ZeroPages pages;
  std::size_t count = 0;

  std::span<const std::uint32_t> words() const {
    return {pages.data<const std::uint32_t>(), count};
  }
};

// PackedSink that keeps one of the two split streams and drops the other
// as it is produced. The kept words are written once, into ZeroPages
// grown in place, so none is copied and no page is zero-filled ahead of
// the capture. The dropped stream's cursor rewinds over one small scratch
// buffer at every refill.
class OneStreamSink : public PackedSink {
 public:
  // Keep the instruction-fetch stream, or else the data stream.
  explicit OneStreamSink(bool instruction);

  // The kept stream as the run left it. Resets the sink.
  PagedStream take();

 protected:
  void refill(std::size_t min_free) override;

 private:
  const bool instruction_;
  ZeroPages kept_;
  std::vector<std::uint32_t> scratch_;
};

// Run `produce` (typically a FastCpu capture of one workload) on a
// dedicated thread, publishing packed chunks through a bounded SPSC queue;
// the calling thread folds each chunk via `consume` as it arrives, in
// capture order. Returns the producer's RunResult. Exceptions from either
// side propagate to the caller; whichever side is still running is
// unblocked and joined first.
RunResult stream_capture(
    const std::function<RunResult(PackedSink&)>& produce,
    const std::function<void(const PackedChunk&)>& consume,
    std::size_t chunk_words = ChunkQueueSink::kDefaultChunkWords,
    std::size_t queue_depth = 4);

}  // namespace stcache
