// Throughput-oriented replay twin of ConfigurableCache.
//
// ConfigurableCache (configurable_cache.hpp) is the behavioral reference:
// per access it recomputes the candidate() bank/row mapping for every way,
// scans the set once for way prediction and again for the hit probe, and
// chases Line structs through per-bank std::vectors. That is the right
// shape for a model that must also reconfigure mid-stream, but every
// full-space experiment replays *cold caches under a fixed configuration*,
// where all of that work is loop-invariant. FastCacheSim specializes for
// exactly that case, in the one organization a bank measures: write-back
// write-allocate, no victim buffer.
//
//  * SoA line store: one contiguous block[] / last_use[] pair plus a packed
//    dirty bitmap, sized to the full 4-bank array but indexed only over
//    the powered banks. A candidate slot is
//        slot = way * way_stride + (block & set_mask)
//    because row + 128*group == index (see candidate() in the reference),
//    so the per-way mapping collapses to one multiply-add on cached
//    constants.
//  * Per-configuration precomputation: set mask, way stride, subline count
//    and the miss stall are computed once in the constructor, never per
//    access.
//  * Compile-time specialization: the access loop is instantiated over
//    (ways in {1,2,4}, way_prediction) — five loops — and dispatched once
//    per replay, so the per-record path has no configuration branches.
//  * MRU-way memo: predict_way() in the reference rescans the set to find
//    the MRU valid way. Under a fixed configuration a main-array line,
//    once valid, stays valid, and each set sees at most one last_use
//    update per access (distinct ticks), so the MRU way is simply the way
//    of the last update — a one-byte memo per set replaces the scan.
//
// The engine is equivalence-tested against the reference: CacheStats must
// be bit-identical for all 27 configurations (tests/replay_equivalence_
// test.cpp). It deliberately does NOT support write-through, victim
// buffers, reconfigure()/flush() or warm-state replay; the write-policy and
// victim-buffer ablations and interval-simulation paths (the tuning
// controller) use the reference model.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "cache/config.hpp"
#include "cache/stats.hpp"

namespace stcache {

class FastCacheSim {
 public:
  explicit FastCacheSim(const CacheConfig& config, TimingParams timing = {});

  // Replay a packed stream (cache/packed.hpp; state and stats accumulate
  // across calls). Dispatches once to the (ways, prediction)
  // specialization matching this configuration.
  void replay(std::span<const std::uint32_t> packed);

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }

 private:
  static constexpr std::uint32_t kSlots = kNumBanks * kRowsPerBank;  // 512
  static constexpr std::uint32_t kMaxSets = 512;  // 8 KB direct-mapped
  // Sentinel stored in block_[] for invalid slots: real block numbers are
  // 28-bit (addr >> 4), so the probe needs no separate valid bitmap — a
  // single load+compare per way decides hit AND validity.
  static constexpr std::uint32_t kInvalidBlock = 0xFFFF'FFFFu;

  template <unsigned W, bool PRED>
  void run(std::span<const std::uint32_t> packed);
  // Cold path (miss fill); returns the stall cycles it charged, which
  // run() folds into cycles/stall_cycles.
  template <unsigned W, bool PRED>
  std::uint32_t miss_path(std::uint32_t block, const std::uint32_t* slots,
                          bool is_write);
  // Reference victim choice on the probed slots: first invalid way, else
  // LRU (earliest way wins ties, which cannot arise under distinct ticks).
  template <unsigned W>
  std::uint32_t pick_victim_way(const std::uint32_t* slots) const;

  bool slot_valid(std::uint32_t i) const { return block_[i] != kInvalidBlock; }
  bool dirty_bit(std::uint32_t i) const {
    return (dirty_[i >> 6] >> (i & 63u)) & 1u;
  }
  void set_dirty(std::uint32_t i, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (i & 63u);
    if (v) dirty_[i >> 6] |= m;
    else dirty_[i >> 6] &= ~m;
  }

  // --- SoA line store (powered banks only are ever indexed) ---------------
  std::array<std::uint32_t, kSlots> block_{};  // kInvalidBlock when invalid
  std::array<std::uint64_t, kSlots> last_use_{};
  std::array<std::uint64_t, kSlots / 64> dirty_{};
  std::array<std::uint8_t, kMaxSets> mru_way_{};  // per-set MRU memo

  // --- precomputed per-configuration constants ----------------------------
  std::uint32_t set_mask_ = 0;    // num_sets - 1
  std::uint32_t way_stride_ = 0;  // banks_per_way * kRowsPerBank
  std::uint32_t sublines_ = 1;    // line_bytes / 16
  std::uint32_t miss_stall_ = 0;  // timing.miss_stall_cycles(line_bytes)

  CacheConfig config_;
  TimingParams timing_;
  CacheStats stats_;
  std::uint64_t tick_ = 0;
};

}  // namespace stcache
