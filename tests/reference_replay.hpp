// Cold-start replays for the differential tests: the behavioral reference
// models (ConfigurableCache / CacheModel — the oracle every kernel is
// measured against), the per-configuration fast sims, and the
// BankAccumulator that every product path measures through.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/config.hpp"
#include "cache/configurable_cache.hpp"
#include "cache/fast_cache.hpp"
#include "cache/nested_sweep.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

namespace stcache {

// A fresh reference cache over the raw records.
inline CacheStats reference_stats(const CacheConfig& cfg,
                                  std::span<const TraceRecord> stream,
                                  const TimingParams& timing = {},
                                  WritePolicy write_policy =
                                      WritePolicy::kWriteBack,
                                  std::uint32_t victim_entries = 0) {
  ConfigurableCache cache(cfg, timing, write_policy, victim_entries);
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
    cache.access((word & FastCacheSim::kPackedBlockMask) << 4,
                 (word & FastCacheSim::kPackedWriteBit) != 0);
  }
  return cache.stats();
}

inline CacheStats reference_stats(const CacheGeometry& g,
                                  std::span<const std::uint32_t> packed,
                                  const TimingParams& timing = {}) {
  CacheModel cache(g, timing);
  for (const std::uint32_t word : packed) {
    cache.access((word & FastCacheSim::kPackedBlockMask) << 4,
                 (word & FastCacheSim::kPackedWriteBit) != 0);
  }
  return cache.stats();
}

// The per-configuration fast sims over a packed stream.
inline CacheStats fast_stats(const CacheConfig& cfg,
                             std::span<const std::uint32_t> packed,
                             const TimingParams& timing = {},
                             WritePolicy write_policy = WritePolicy::kWriteBack,
                             std::uint32_t victim_entries = 0) {
  FastCacheSim sim(cfg, timing, write_policy, victim_entries);
  sim.replay(packed);
  return sim.stats();
}

inline CacheStats fast_stats(const CacheGeometry& g,
                             std::span<const std::uint32_t> packed,
                             const TimingParams& timing = {}) {
  FastGeomSim sim(g, timing);
  sim.replay(packed);
  return sim.stats();
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
