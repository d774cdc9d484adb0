#include "cache/fast_cache.hpp"

#include "cache/packed.hpp"
#include "util/error.hpp"

namespace stcache {

FastCacheSim::FastCacheSim(const CacheConfig& config, TimingParams timing)
    : config_(config), timing_(timing) {
  if (!config_.valid()) {
    fail("FastCacheSim: invalid configuration " + config.name());
  }
  set_mask_ = config_.num_sets() - 1;
  way_stride_ = config_.banks_per_way() * kRowsPerBank;
  sublines_ = config_.sublines_per_line();
  miss_stall_ = timing_.miss_stall_cycles(config_.line_bytes());
  block_.fill(kInvalidBlock);
}

template <unsigned W>
std::uint32_t FastCacheSim::pick_victim_way(const std::uint32_t* slots) const {
  for (std::uint32_t w = 0; w < W; ++w) {
    if (!slot_valid(slots[w])) return w;
  }
  std::uint32_t victim_way = 0;
  std::uint64_t oldest = last_use_[slots[0]];
  for (std::uint32_t w = 1; w < W; ++w) {
    if (last_use_[slots[w]] < oldest) {
      victim_way = w;
      oldest = last_use_[slots[w]];
    }
  }
  return victim_way;
}

template <unsigned W, bool PRED>
std::uint32_t FastCacheSim::miss_path(std::uint32_t block,
                                      const std::uint32_t* slots,
                                      bool is_write) {
  ++stats_.misses;
  // Line concatenation: fill every absent 16 B subline of the aligned
  // logical line into the way chosen at the accessed subline's set.
  const std::uint32_t base_block = block & ~(sublines_ - 1);
  const std::uint32_t victim_way = pick_victim_way<W>(slots);
  for (std::uint32_t sub = 0; sub < sublines_; ++sub) {
    const std::uint32_t sub_block = base_block + sub;
    const std::uint32_t sub_set = sub_block & set_mask_;
    bool present = false;
    for (std::uint32_t w = 0; w < W; ++w) {
      if (block_[w * way_stride_ + sub_set] == sub_block) {
        present = true;
        break;
      }
    }
    if (present) continue;
    const std::uint32_t ss = victim_way * way_stride_ + sub_set;
    if (slot_valid(ss) && dirty_bit(ss)) {
      stats_.writeback_bytes += kPhysicalLineBytes;
    }
    block_[ss] = sub_block;
    last_use_[ss] = tick_;
    set_dirty(ss, false);
    if constexpr (PRED) mru_way_[sub_set] = static_cast<std::uint8_t>(victim_way);
    stats_.fill_bytes += kPhysicalLineBytes;
  }
  const std::uint32_t as = slots[victim_way];
  STC_ASSERT(block_[as] == block, "fast fill did not install the accessed block");
  set_dirty(as, is_write);
  last_use_[as] = tick_;
  return miss_stall_;
}

template <unsigned W, bool PRED>
void FastCacheSim::run(std::span<const std::uint32_t> packed) {
  // Hot-loop state lives in locals: the compiler cannot keep member
  // counters in registers across the loop because stores through the line
  // arrays might alias them. The invariant cycles = accesses * hit_cycles
  // + stall_cycles (every path charges hit_cycles plus exactly its stall)
  // lets most counters be derived once at loop exit instead of updated
  // per record.
  std::uint64_t tick = tick_;
  std::uint64_t writes = 0;
  std::uint64_t hits = 0;
  std::uint64_t stall = 0;
  std::uint64_t pred_first = 0;
  std::uint64_t pred_mispred = 0;
  const std::uint32_t set_mask = set_mask_;
  const std::uint32_t way_stride = way_stride_;
  const std::uint32_t mispredict_penalty = timing_.mispredict_penalty;

  for (const std::uint32_t rec : packed) {
    const std::uint32_t block = rec & kPackedBlockMask;
    const bool is_write = (rec & kPackedWriteBit) != 0;
    ++tick;
    writes += is_write;

    const std::uint32_t set = block & set_mask;
    std::uint32_t slots[W];
    for (std::uint32_t w = 0; w < W; ++w) slots[w] = w * way_stride + set;

    // Fused probe: one load+compare per way decides hit and validity
    // (invalid slots hold kInvalidBlock, which no real block matches).
    std::uint32_t hit_way = W;
    for (std::uint32_t w = 0; w < W; ++w) {
      if (block_[slots[w]] == block) {
        hit_way = w;
        break;
      }
    }

    if (hit_way != W) {
      ++hits;
      const std::uint32_t s = slots[hit_way];
      last_use_[s] = tick;
      if (is_write) set_dirty(s, true);
      if constexpr (PRED) {
        if (hit_way == mru_way_[set]) {
          ++pred_first;
        } else {
          ++pred_mispred;
          stall += mispredict_penalty;
        }
        mru_way_[set] = static_cast<std::uint8_t>(hit_way);
      }
    } else {
      tick_ = tick;  // cold path reads the member
      stall += miss_path<W, PRED>(block, slots, is_write);
    }
  }

  tick_ = tick;
  const std::uint64_t n = packed.size();
  stats_.accesses += n;
  stats_.write_accesses += writes;
  stats_.read_accesses += n - writes;
  stats_.hits += hits;
  stats_.stall_cycles += stall;
  stats_.cycles += n * timing_.hit_cycles + stall;
  if constexpr (PRED) {
    stats_.pred_accesses += n;
    stats_.pred_first_hits += pred_first;
    stats_.pred_mispredicts += pred_mispred;
  }
}

void FastCacheSim::replay(std::span<const std::uint32_t> packed) {
  // One dispatch per replay; the record loop itself is branch-specialized.
  const bool pred = config_.way_prediction;
  switch (config_.ways()) {
    case 1:
      run<1, false>(packed);
      break;
    case 2:
      if (pred) run<2, true>(packed);
      else run<2, false>(packed);
      break;
    case 4:
      if (pred) run<4, true>(packed);
      else run<4, false>(packed);
      break;
    default:
      fail("FastCacheSim: unsupported associativity");
  }
}

}  // namespace stcache
