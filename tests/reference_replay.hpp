// Cold-start replays for the differential tests: the behavioral reference
// models (ConfigurableCache / CacheModel — the oracle every kernel is
// measured against), a platform configuration measured alone, and the
// BankAccumulator that every product path measures through.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/config.hpp"
#include "cache/configurable_cache.hpp"
#include "cache/packed.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

namespace stcache {

// A fresh reference cache over the raw records.
inline CacheStats reference_stats(const CacheConfig& cfg,
                                  std::span<const TraceRecord> stream,
                                  const TimingParams& timing = {}) {
  ConfigurableCache cache(cfg, timing);
  return replay(cache, stream);
}

inline CacheStats reference_stats(const CacheGeometry& g,
                                  std::span<const TraceRecord> stream,
                                  const TimingParams& timing = {}) {
  CacheModel cache(g, timing);
  for (const TraceRecord& r : stream) {
    cache.access(r.addr, r.kind == AccessKind::kWrite);
  }
  return cache.stats();
}

// A fresh reference cache over packed words: block << 4 restores a 16 B
// aligned address, which no 16 B-or-wider geometry tells apart from the
// original.
inline CacheStats reference_stats(const CacheConfig& cfg,
                                  std::span<const std::uint32_t> packed,
                                  const TimingParams& timing = {}) {
  ConfigurableCache cache(cfg, timing);
  for (const std::uint32_t word : packed) {
    cache.access((word & kPackedBlockMask) << 4,
                 (word & kPackedWriteBit) != 0);
  }
  return cache.stats();
}

inline CacheStats reference_stats(const CacheGeometry& g,
                                  std::span<const std::uint32_t> packed,
                                  const TimingParams& timing = {}) {
  CacheModel cache(g, timing);
  for (const std::uint32_t word : packed) {
    cache.access((word & kPackedBlockMask) << 4,
                 (word & kPackedWriteBit) != 0);
  }
  return cache.stats();
}

// A platform configuration measured alone over a packed stream: a serial
// bank of one, which runs a one-slot StackSweepSim (the path of an
// evaluator's memo miss).
inline CacheStats lone_stats(const CacheConfig& cfg,
                             std::span<const std::uint32_t> packed,
                             const TimingParams& timing = {}) {
  BankAccumulator bank(std::span<const CacheConfig>(&cfg, 1), timing, 1);
  bank.feed(packed);
  return bank.stats().front();
}

// The production path: `bank` fed `packed` in slices of `chunk` words
// (0 = one whole-stream feed).
inline std::vector<CacheStats> feed_stats(BankAccumulator bank,
                                          std::span<const std::uint32_t> packed,
                                          std::size_t chunk = 0) {
  if (chunk == 0) chunk = packed.size() + 1;
  for (std::size_t off = 0; off < packed.size(); off += chunk) {
    bank.feed(packed.subspan(off, std::min(chunk, packed.size() - off)));
  }
  return bank.stats();
}

}  // namespace stcache
