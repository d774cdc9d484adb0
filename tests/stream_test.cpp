// Tests of the streaming capture pipeline (trace/stream.hpp): the SPSC
// chunk queue, the chunked sinks, stream_workload determinism against the
// materialized capture, and incremental bank accumulation. The queue tests
// are the ones repro.sh runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
      c.ifetch.assign(100, i);
      c.ifetch_count = 100;
      c.data.assign(3, i);
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
      c.ifetch.assign(1, i);
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
    c.ifetch.assign(1, 42u);
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
      c.ifetch.assign(1, i);
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
