// Tests of the streaming capture pipeline (trace/stream.hpp): the SPSC
// chunk queue, the chunked sinks, stream_workload determinism against the
// materialized capture, and incremental bank accumulation. The queue tests
// are the ones repro.sh runs under TSan.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cache/config.hpp"
#include "isa/assembler.hpp"
#include "reference_replay.hpp"
#include "sim/fast_cpu.hpp"
#include "trace/replay.hpp"
#include "trace/stream.hpp"
#include "util/error.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

// --- SPSC queue -------------------------------------------------------------

TEST(SpscChunkQueue, DeliversChunksInOrder) {
  SpscChunkQueue q(2);
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < 64; ++i) {
      PackedChunk c = q.acquire();
      c.reserve(100);
      std::fill_n(c.ifetch.get(), 100, i);
      c.ifetch_count = 100;
      std::fill_n(c.data.get(), 3, i);
      c.data_count = 3;
      ASSERT_TRUE(q.push(std::move(c)));
    }
    q.finish();
  });
  std::uint32_t expect = 0;
  PackedChunk c;
  while (q.pop(c)) {
    ASSERT_EQ(c.ifetch_words().size(), 100u);
    EXPECT_EQ(c.ifetch_words().front(), expect);
    EXPECT_EQ(c.data_words().size(), 3u);
    EXPECT_EQ(c.data_words().front(), expect);
    ++expect;
    q.recycle(std::move(c));
  }
  EXPECT_EQ(expect, 64u);
  producer.join();
}

TEST(SpscChunkQueue, BoundedDepthBlocksProducerNotForever) {
  // With depth 1 and a slow consumer, the producer must block rather than
  // grow without bound, and everything must still arrive in order.
  SpscChunkQueue q(1);
  std::atomic<int> produced{0};
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < 16; ++i) {
      PackedChunk c = q.acquire();
      c.reserve(1);
      c.ifetch[0] = i;
      c.ifetch_count = 1;
      ASSERT_TRUE(q.push(std::move(c)));
      produced.fetch_add(1);
    }
    q.finish();
  });
  std::uint32_t expect = 0;
  PackedChunk c;
  while (q.pop(c)) {
    EXPECT_EQ(c.ifetch_words().front(), expect++);
    q.recycle(std::move(c));
  }
  EXPECT_EQ(expect, 16u);
  producer.join();
}

TEST(SpscChunkQueue, ProducerErrorReachesConsumer) {
  SpscChunkQueue q(2);
  std::thread producer([&] {
    PackedChunk c = q.acquire();
    c.reserve(1);
    c.ifetch[0] = 42u;
    c.ifetch_count = 1;
    ASSERT_TRUE(q.push(std::move(c)));
    try {
      fail("producer exploded");
    } catch (...) {
      q.fail(std::current_exception());
    }
  });
  PackedChunk c;
  EXPECT_THROW(
      {
        while (q.pop(c)) q.recycle(std::move(c));
      },
      Error);
  producer.join();
}

TEST(SpscChunkQueue, AbandonUnblocksProducer) {
  SpscChunkQueue q(1);
  std::atomic<bool> saw_false_push{false};
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < 1000; ++i) {
      PackedChunk c = q.acquire();
      c.reserve(1);
      c.ifetch[0] = i;
      c.ifetch_count = 1;
      if (!q.push(std::move(c))) {
        saw_false_push = true;
        return;
      }
    }
  });
  PackedChunk c;
  ASSERT_TRUE(q.pop(c));  // take one, then walk away
  q.abandon();
  producer.join();
  EXPECT_TRUE(saw_false_push);
}

// --- stream_capture / sinks -------------------------------------------------

TEST(StreamCapture, ConcatenatedChunksMatchBufferSink) {
  // Run the real producer — a workload — at a chunk size small enough to
  // force many refills mid-run; the reassembled chunks must equal what the
  // one-shot buffer sink records.
  const Workload& w = find_workload("bcnt");
  const PackedCapture one = capture_packed(w);

  std::vector<std::uint32_t> ifetch, data;
  const RunResult rr = stream_capture(
      [&](PackedSink& sink) {
        const Program p = assemble(w.source);
        FastCpu cpu(p, w.mem_bytes);
        return cpu.run(w.max_instructions, sink);
      },
      [&](const PackedChunk& c) {
        ifetch.insert(ifetch.end(), c.ifetch_words().begin(),
                      c.ifetch_words().end());
        data.insert(data.end(), c.data_words().begin(), c.data_words().end());
      },
      /*chunk_words=*/256, /*queue_depth=*/3);
  EXPECT_EQ(rr.instructions, one.run.instructions);
  EXPECT_TRUE(ifetch == one.ifetch);
  EXPECT_TRUE(data == one.data);
}

TEST(StreamWorkload, MatchesMaterializedCaptureForEveryWorkload) {
  for (const Workload& w : all_workloads()) {
    const PackedCapture one = capture_packed(w);
    std::vector<std::uint32_t> ifetch, data;
    const RunResult rr = stream_workload(w, [&](const PackedChunk& c) {
      ifetch.insert(ifetch.end(), c.ifetch_words().begin(),
                    c.ifetch_words().end());
      data.insert(data.end(), c.data_words().begin(), c.data_words().end());
    });
    EXPECT_EQ(rr.instructions, one.run.instructions) << w.name;
    EXPECT_EQ(rr.cycles, one.run.cycles) << w.name;
    EXPECT_TRUE(ifetch == one.ifetch) << w.name << ": ifetch stream differs";
    EXPECT_TRUE(data == one.data) << w.name << ": data stream differs";
  }
}

// stream_workload runs stream_capture at its default queue depth, 4. A
// buffer is queued, being filled or being folded, so the free list keeps
// the pipeline at depth + 2 chunks however long the stream is.
TEST(StreamWorkload, RecyclesAtMostQueueDepthPlusTwoBuffers) {
  constexpr std::size_t kDepth = 4;
  std::set<const std::uint32_t*> buffers;
  std::size_t chunks = 0;
  stream_workload(find_workload("mpeg2"), [&](const PackedChunk& c) {
    buffers.insert(c.ifetch_words().data());
    ++chunks;
  });
  EXPECT_GT(chunks, 3 * (kDepth + 2));  // 37 chunks
  EXPECT_LE(buffers.size(), kDepth + 2);
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// Chunks are not zero-filled. bcnt's capture (442 k instruction words and
// 28 k data words, about 460 pages) fits one chunk of 16 Mi words per
// stream, 32,768 pages in all, and faults in little more than what the
// producer writes. The faults are read when the chunk arrives, before any
// buffer is freed. The bound leaves room for the shadow pages that
// sanitizer builds touch for each page written (about 4,700 faults in
// all under TSan, 470 without).
TEST(StreamCapture, ChunksFaultInOnlyTheWordsWritten) {
  const Workload& w = find_workload("bcnt");
  const Program p = assemble(w.source);
  constexpr std::size_t kChunkWords = std::size_t{1} << 24;
  long faults = -1;
  std::size_t words = 0;
  const long before = minor_faults();
  stream_capture(
      [&](PackedSink& sink) {
        FastCpu cpu(p, w.mem_bytes);
        return cpu.run(w.max_instructions, sink);
      },
      [&](const PackedChunk& c) {
        faults = minor_faults() - before;
        words += c.ifetch_words().size() + c.data_words().size();
      },
      kChunkWords, /*queue_depth=*/1);
  ASSERT_GT(words, std::size_t{400'000});
  ASSERT_GE(faults, 0);
  EXPECT_LT(faults, 2 * kChunkWords * 4 / 4096 / 4) << faults << " faults";
}

// capture_stream keeps one side of capture_packed, word for word.
TEST(CaptureStream, MatchesCapturePackedSideForEveryWorkload) {
  for (const Workload& w : all_workloads()) {
    const PackedCapture both = capture_packed(w);
    const PagedStream ifetch = capture_stream(w, true);
    const PagedStream data = capture_stream(w, false);
    EXPECT_TRUE(std::ranges::equal(ifetch.words(), both.ifetch))
        << w.name << ": instruction stream differs";
    EXPECT_TRUE(std::ranges::equal(data.words(), both.data))
        << w.name << ": data stream differs";
  }
}

TEST(StreamWorkload, ChecksumFailurePropagatesToCaller) {
  // A workload with a falsified checksum must throw out of stream_workload
  // even though the failure happens on the producer thread.
  Workload w = find_workload("bcnt");
  w.expected_checksum ^= 1u;
  EXPECT_THROW(stream_workload(w, [](const PackedChunk&) {}), Error);
}

TEST(StreamWorkload, ConsumerExceptionAbandonsCleanly) {
  const Workload& w = find_workload("crc");
  EXPECT_THROW(stream_workload(
                   w, [](const PackedChunk&) { fail("consumer exploded"); }),
               Error);
}

// --- incremental bank accumulation ------------------------------------------

// Chunked feeding (the streaming pipeline's shape) must reproduce the
// reference for every kernel path: the bank's full line-size sweeps, and
// each configuration alone as a bank of one (a one-slot traversal).
TEST(BankAccumulator, ChunkedFeedMatchesOneShotForEveryEngine) {
  const Workload& w = find_workload("crc");
  const PackedCapture cap = capture_packed(w);
  const std::vector<CacheConfig>& configs = all_configs();
  const std::span<const std::uint32_t> words(cap.ifetch);
  const auto for_each_chunk = [&](auto&& fn) {
    for (std::size_t at = 0; at < words.size(); at += 1237) {
      fn(words.subspan(at, std::min<std::size_t>(1237, words.size() - at)));
    }
  };

  const std::vector<CacheStats> whole =
      feed_stats(BankAccumulator(configs), words);
  BankAccumulator bank(configs);
  for_each_chunk(
      [&](std::span<const std::uint32_t> chunk) { bank.feed(chunk); });
  EXPECT_EQ(bank.words_fed(), words.size());
  const std::vector<CacheStats> got = bank.stats();
  ASSERT_EQ(got.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const CacheStats ref = reference_stats(configs[i], words);
    EXPECT_EQ(got[i], ref) << "chunked bank x " << configs[i].name();
    EXPECT_EQ(whole[i], ref) << "whole bank x " << configs[i].name();
    BankAccumulator single(std::span<const CacheConfig>(&configs[i], 1));
    for_each_chunk(
        [&](std::span<const std::uint32_t> chunk) { single.feed(chunk); });
    EXPECT_EQ(single.stats().front(), ref)
        << "chunked singleton x " << configs[i].name();
  }
}

}  // namespace
}  // namespace stcache
