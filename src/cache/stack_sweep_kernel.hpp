// Private kernel template shared by the scalar and SIMD translation units
// of StackSweepSim (stack_sweep.cpp and stack_sweep_simd.cpp). Not part of
// the public API — include stack_sweep.hpp instead.
//
// The template is parameterized on the subline count (line size / 16 B)
// and on a SweepOps policy that implements the three hot primitives:
//
//   find()     the per-access slot probe: locate the accessed line in its
//              coarse group's pool segment (a linear id search),
//   victim()   the per-miss LRU scan: among the group entries resident in
//              slot k and mapping to the accessed set, count them and pick
//              the one minimizing max(last access, fill tick),
//   run_len()  the repeat-run scan: count how many upcoming packed words
//              are identical to the current one (sequential ifetch hits
//              the same 16 B block four times in a row).
//
// SweepOps<false> (below) is the portable scalar fallback; SweepOps<true>
// is defined only inside stack_sweep_simd.cpp, compiled with -mavx2, and
// maps the same primitives onto 8-lane vector compares over the padded
// group rows. Both produce identical results by construction: the policy
// only answers queries, every state update stays in the shared template.
//
// Pool layout: group segments of kStride entries (kCap = 20 logical
// entries padded to 24 so 8-lane loads never leave the row). Timestamp
// arrays are laid out for the victim scan's access pattern — fill ticks
// slot-major and last-access ticks offset-major, so the scan over a fixed
// (slot k, offset o) reads two contiguous 24-entry rows.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/packed.hpp"
#include "cache/stack_sweep.hpp"
#include "util/error.hpp"

namespace stcache {

struct StackSweepSim::Impl {
  virtual ~Impl() = default;
  // Build the derived masks (spread_, fast path key) once active/pred_active
  // are settled; called by the constructor after slot activation.
  virtual void finalize() = 0;
  virtual void replay(std::span<const std::uint32_t> packed) = 0;

  std::uint32_t line_bytes = 16;
  std::uint32_t active = 0;       // slot bits maintained by the traversal
  std::uint32_t pred_active = 0;  // pred bits (MRU memos) maintained
  TimingParams timing{};

  std::uint64_t n = 0;       // records replayed
  std::uint64_t writes = 0;  // of which writes
  // Bin key = hit mask (bits 0..5) | first-probe bits (bits 6..8); one
  // increment per access, all per-configuration counters derive from it.
  std::array<std::uint64_t, 512> hist{};
  std::array<std::uint64_t, 6> wb_bytes{};  // eviction write-backs
};

namespace sweep_detail {

// Defined in stack_sweep_simd.cpp. simd_kernel_compiled() reports whether
// that TU was built with an AVX2 kernel; make_simd_kernel() instantiates
// one (nullptr when none was compiled in). Runtime CPU support is checked
// by the caller (stack_sweep.cpp), not here.
bool simd_kernel_compiled();
std::unique_ptr<StackSweepSim::Impl> make_simd_kernel(std::uint32_t line_bytes);

// The six content-distinct (num_sets, ways) pairs per line size; see the
// slot table in stack_sweep.hpp. Way-predicted slots carry a pred bit.
constexpr std::uint32_t kNumSlots = 6;
constexpr std::uint32_t kSlotSets[kNumSlots] = {128, 128, 128, 256, 256, 512};
constexpr std::uint32_t kSlotWays[kNumSlots] = {1, 2, 4, 1, 2, 1};
constexpr int kSlotPredBit[kNumSlots] = {-1, 0, 1, -1, 2, -1};

inline std::uint32_t slot_of(const CacheConfig& cfg) {
  switch (cfg.num_sets()) {
    case 128: return cfg.ways() == 1 ? 0u : cfg.ways() == 2 ? 1u : 2u;
    case 256: return cfg.ways() == 1 ? 3u : 4u;
    case 512: return 5u;
  }
  fail("StackSweepSim: no slot for configuration " + cfg.name());
}

// Result of the LRU victim scan over one group segment.
struct VictimScan {
  std::uint32_t found = 0;   // entries resident in slot k at set `ls`
  std::uint32_t victim = 0;  // index of the entry with the minimal stamp
};

template <bool SIMD>
struct SweepOps;

// Portable scalar primitives — the reference semantics the SIMD policy
// must reproduce exactly.
template <>
struct SweepOps<false> {
  static constexpr std::uint32_t kNotFound = 0xFFFF'FFFFu;

  // Index of `l` in lines[0..count), or kNotFound.
  static std::uint32_t find(const std::uint32_t* lines, std::uint32_t count,
                            std::uint32_t l) {
    for (std::uint32_t i = 0; i < count; ++i) {
      if (lines[i] == l) return i;
    }
    return kNotFound;
  }

  // Count the entries with res bit k set and (line & smask) == ls, and
  // return the first one minimizing max(last_row[i], fill_row[i]). Ticks
  // are distinct so the minimum is unique whenever found > 0.
  static VictimScan victim(const std::uint32_t* lines,
                           const std::uint8_t* res,
                           const std::uint32_t* last_row,
                           const std::uint32_t* fill_row, std::uint32_t count,
                           std::uint32_t k, std::uint32_t smask,
                           std::uint32_t ls) {
    VictimScan out;
    std::uint32_t best = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!(res[i] >> k & 1u) || (lines[i] & smask) != ls) continue;
      const std::uint32_t ts =
          last_row[i] > fill_row[i] ? last_row[i] : fill_row[i];
      if (out.found == 0 || ts < best) {
        best = ts;
        out.victim = i;
      }
      ++out.found;
    }
    return out;
  }

  // 8-bit mask of p[j] != p[j+1] for j = 0..7 (reads p[0..8]): the run
  // boundaries inside one replay window. The scalar kernel never calls
  // this (its replay loop is the historical per-record one); it exists so
  // the template compiles for both policies.
  static std::uint32_t neq_next8(const std::uint32_t* p) {
    std::uint32_t m = 0;
    for (unsigned j = 0; j < 8; ++j) {
      m |= (p[j] != p[j + 1] ? 1u : 0u) << j;
    }
    return m;
  }

  // Whether replay() should run the windowed segment loop (replay_bulk).
  // The scalar kernel keeps the per-record loop byte for byte.
  static constexpr bool kBulkRuns = false;
};

template <unsigned SUBL, bool SIMD>
struct Kernel final : StackSweepSim::Impl {
  using Ops = SweepOps<SIMD>;

  static constexpr std::uint32_t kLog = SUBL == 1 ? 0u : SUBL == 2 ? 1u : 2u;
  // Coarse groups: the 128-set mask at line granularity. Every conflict in
  // any slot stays inside one group, so pool entries are bucketed by it.
  static constexpr std::uint32_t kGroups = 128 / SUBL;
  static constexpr std::uint32_t kGroupMask = kGroups - 1;
  // Max lines co-resident per group across all six slots: 1+2+4 (128-set
  // slots) + 2+4 (256-set) + 4 (512-set) = 17, +1 mid-install.
  static constexpr std::uint32_t kCap = 20;
  // Entries per group segment, padded so 8-lane loads stay inside the row.
  static constexpr std::uint32_t kStride = 24;
  static constexpr std::uint32_t kEntries = kGroups * kStride;
  static constexpr std::uint32_t kNoBlock = 0xFFFF'FFFFu;  // > any 28-bit id

  // Line pool, SoA, bucketed in kStride-entry group segments. `last_`
  // ticks are slot-independent (a hit refreshes the accessed subline
  // everywhere) and offset-major: last_[o * kEntries + e]. `fill_` ticks
  // are per slot and slot-major: fill_[k * kEntries + e]. Dirty nibbles
  // stay per entry (bit 4*slot + offset).
  std::vector<std::uint32_t> line_ = std::vector<std::uint32_t>(kEntries);
  std::vector<std::uint8_t> res_ = std::vector<std::uint8_t>(kEntries);
  std::vector<std::uint32_t> dirty_ = std::vector<std::uint32_t>(kEntries);
  std::vector<std::uint32_t> fill_ =
      std::vector<std::uint32_t>(kNumSlots * kEntries);
  std::vector<std::uint32_t> last_ = std::vector<std::uint32_t>(SUBL * kEntries);
  std::array<std::uint8_t, kGroups> count_{};
  // Repeat fast path: last accessed block per group, and its pool index.
  std::array<std::uint32_t, kGroups> last_block_;
  std::array<std::uint8_t, kGroups> last_idx_{};
  // MRU memos for the pred slots, indexed by block-granularity set.
  std::array<std::uint32_t, 128> memo1_;  // slot 1: 4K_2W
  std::array<std::uint32_t, 128> memo2_;  // slot 2: 8K_4W
  std::array<std::uint32_t, 256> memo4_;  // slot 4: 8K_2W
  // spread_[mask] maps slot bit k to dirty-nibble bit 4k, so a write hit
  // marks the accessed subline dirty in every hitting slot with one OR.
  std::array<std::uint32_t, 64> spread_{};
  std::uint32_t tick_ = 0;
  std::uint32_t fast_key_ = 0;     // histogram key of a repeat access
  std::uint32_t fast_spread_ = 0;  // spread_[active]

  Kernel() {
    last_block_.fill(kNoBlock);
    memo1_.fill(kNoBlock);
    memo2_.fill(kNoBlock);
    memo4_.fill(kNoBlock);
  }

  void finalize() override {
    for (std::uint32_t m = 0; m < 64; ++m) {
      std::uint32_t s = 0;
      for (std::uint32_t k = 0; k < kNumSlots; ++k) {
        if (m >> k & 1u) s |= 1u << (4 * k);
      }
      spread_[m] = s;
    }
    fast_key_ = active | (pred_active << kNumSlots);
    fast_spread_ = spread_[active];
  }

  void replay(std::span<const std::uint32_t> packed) override {
    if (packed.size() > 0xFFFF'FFFFull - tick_) {
      fail("StackSweepSim: stream exceeds the 32-bit tick budget");
    }
    n += packed.size();
    if constexpr (Ops::kBulkRuns) {
      replay_bulk(packed);
      return;
    }
    const std::uint32_t* const p = packed.data();
    const std::size_t size = packed.size();
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint32_t rec = p[i];
      const std::uint32_t block = rec & kPackedBlockMask;
      const std::uint32_t is_write = rec >> 31;
      ++tick_;
      writes += is_write;
      const std::uint32_t g = (block >> kLog) & kGroupMask;
      if (last_block_[g] == block) {
        // Repeat access: the previous access to this group installed or
        // refreshed this very block, so it is resident in every active
        // slot, is the MRU of every predicted set, and no memo moved.
        const std::uint32_t e = g * kStride + last_idx_[g];
        ++hist[fast_key_];
        last_[(block & (SUBL - 1)) * kEntries + e] = tick_;
        if (is_write) dirty_[e] |= fast_spread_ << (block & (SUBL - 1));
        continue;
      }
      slow(block, g, is_write != 0);
    }
  }

  // The restructured loop the SIMD policy's primitives enable. The stream
  // is consumed in fixed windows of 8 records; per window ONE 8-lane
  // compare of p[i..i+7] against p[i+1..i+8] yields a boundary mask whose
  // set bits mark where the packed word changes. The window then splits
  // into segments of IDENTICAL words (sequential ifetch repeats the same
  // 16 B block several times — one block is four instructions — so ~2/3 of
  // ifetch records sit in such segments), and each segment collapses into
  // one head classification plus one bulk update: same histogram key, same
  // dirty OR, and a last-access tick the next record would overwrite.
  //
  // Why windows instead of scanning each run to its end: a run-at-a-time
  // loop advances `i` by a value computed from a just-loaded compare —
  // a load->mask->advance serial chain per run that costs more than the
  // short runs it skips. The fixed stride advances `i` by a constant, so
  // the next window's loads and boundary mask pipeline across iterations,
  // and the segment walk iterates on a register mask (tzcnt/clear-lowest).
  // A run crossing a window boundary is simply processed as two segments —
  // the continuation's head re-classifies as a repeat, and split bulk
  // updates sum to the same histogram (exactness is per-record sums).
  //
  // The accumulators (tick, writes, fast-key hits) live in locals: the
  // per-record ++hist[fast_key_] of the scalar loop is a loop-carried
  // store/reload on one address, and deferring it to one write-back per
  // replay call removes that chain. tick_ is flushed before every slow()
  // call, which reads it.
  void replay_bulk(std::span<const std::uint32_t> packed) {
    const std::uint32_t* const p = packed.data();
    const std::size_t size = packed.size();
    std::uint32_t tick = tick_;
    std::uint64_t wr = 0;         // writes seen this call
    std::uint64_t fast_hits = 0;  // deferred hist[fast_key_] increments
    // One segment of `len` identical records `rec`: classify the head,
    // bulk-apply the repeats.
    const auto segment = [&](std::uint32_t rec, std::uint32_t len) {
      const std::uint32_t block = rec & kPackedBlockMask;
      const std::uint32_t is_write = rec >> 31;
      const std::uint32_t g = (block >> kLog) & kGroupMask;
      const std::uint32_t e = g * kStride + last_idx_[g];
      if (last_block_[g] == block) {
        tick += len;
        wr += static_cast<std::uint64_t>(is_write) * len;
        fast_hits += len;
        last_[(block & (SUBL - 1)) * kEntries + e] = tick;
        dirty_[e] |= (0u - is_write) & (fast_spread_ << (block & (SUBL - 1)));
        return;
      }
      if constexpr (SUBL > 1) {
        // Same-line step: sequential code walks block -> block+1 of ONE
        // line, so the group's previous access often touched this line at
        // a different block (a quarter of all records at 64 B lines).
        // When that line is resident in EVERY active slot there is
        // nothing to probe and nothing to evict; only the first-probe
        // memo bits need the full read-then-refresh dance. res_ bits
        // never leave the active mask, so equality means all-resident.
        const std::uint32_t l = block >> kLog;
        if (line_[e] == l && res_[e] == active) {
          const std::uint32_t o = block & (SUBL - 1);
          std::uint32_t pbits = 0;
          if ((pred_active & 1u) && memo1_[block & 127u] == l) pbits |= 1u;
          if ((pred_active & 2u) && memo2_[block & 127u] == l) pbits |= 2u;
          if ((pred_active & 4u) && memo4_[block & 255u] == l) pbits |= 4u;
          ++hist[active | (pbits << kNumSlots)];
          tick += len;
          wr += static_cast<std::uint64_t>(is_write) * len;
          fast_hits += len - 1;
          last_[o * kEntries + e] = tick;
          dirty_[e] |= (0u - is_write) & (fast_spread_ << o);
          // A hit refreshes the accessed subline's set in every predicted
          // slot (all hold the line here). The head's repeats then see
          // every first-probe bit set, as fast_key_ assumes.
          if (pred_active & 1u) memo1_[block & 127u] = l;
          if (pred_active & 2u) memo2_[block & 127u] = l;
          if (pred_active & 4u) memo4_[block & 255u] = l;
          last_block_[g] = block;
          return;
        }
      }
      ++tick;
      wr += is_write;
      tick_ = tick;
      slow(block, g, is_write != 0);
      if (len > 1) {
        tick += len - 1;
        wr += static_cast<std::uint64_t>(is_write) * (len - 1);
        fast_hits += len - 1;
        const std::uint32_t e2 = g * kStride + last_idx_[g];
        last_[(block & (SUBL - 1)) * kEntries + e2] = tick;
        dirty_[e2] |= (0u - is_write) & (fast_spread_ << (block & (SUBL - 1)));
      }
    };
    std::size_t i = 0;
    for (; i + 9 <= size; i += 8) {
      std::uint32_t mm = Ops::neq_next8(p + i);
      std::uint32_t start = 0;
      while (mm != 0) {
        const std::uint32_t j =
            static_cast<std::uint32_t>(std::countr_zero(mm));
        mm &= mm - 1;
        segment(p[i + start], j - start + 1);
        start = j + 1;
      }
      if (start < 8) segment(p[i + start], 8 - start);
    }
    for (; i < size; ++i) segment(p[i], 1);
    tick_ = tick;
    writes += wr;
    hist[fast_key_] += fast_hits;
  }

  void slow(std::uint32_t block, std::uint32_t g, bool is_write) {
    const std::uint32_t l = block >> kLog;
    const std::uint32_t o = block & (SUBL - 1);
    const std::uint32_t* gl = &line_[g * kStride];
    std::uint32_t idx = Ops::find(gl, count_[g], l);
    const std::uint32_t r = idx != Ops::kNotFound ? res_[g * kStride + idx] : 0u;

    // First-probe bits before any state moves (prediction reads the
    // pre-access MRU, exactly like the reference).
    std::uint32_t pbits = 0;
    if (r != 0) {
      if ((pred_active & 1u) && (r >> 1 & 1u) && memo1_[block & 127u] == l)
        pbits |= 1u;
      if ((pred_active & 2u) && (r >> 2 & 1u) && memo2_[block & 127u] == l)
        pbits |= 2u;
      if ((pred_active & 4u) && (r >> 4 & 1u) && memo4_[block & 255u] == l)
        pbits |= 4u;
    }
    ++hist[r | (pbits << kNumSlots)];

    std::uint32_t miss = active & ~r;
    for (std::uint32_t m = miss; m != 0; m &= m - 1) {
      const std::uint32_t k = static_cast<std::uint32_t>(std::countr_zero(m));
      // LRU victim at the accessed set: the resident line minimizing
      // max(last access to the accessed offset, this slot's fill tick) —
      // the slot timestamp the reference stores at the probed row. Ticks
      // are distinct, so there are no ties to break.
      const std::uint32_t smask = (kSlotSets[k] >> kLog) - 1u;
      const std::uint32_t ls = l & smask;
      const VictimScan scan =
          Ops::victim(gl, &res_[g * kStride], &last_[o * kEntries + g * kStride],
                      &fill_[k * kEntries + g * kStride], count_[g], k, smask, ls);
      if (scan.found >= kSlotWays[k]) {
        const std::uint32_t e = g * kStride + scan.victim;
        wb_bytes[k] += kPhysicalLineBytes *
                       std::popcount((dirty_[e] >> (4 * k)) & 0xFu);
        res_[e] &= static_cast<std::uint8_t>(~(1u << k));
        dirty_[e] &= ~(0xFu << (4 * k));
        if (res_[e] == 0) free_entry(g, scan.victim);
      }
    }

    std::uint32_t e;
    if (miss != 0) {
      // Evictions may have compacted the pool; locate or allocate the
      // accessed entry afresh, then install into every missing slot.
      idx = Ops::find(gl, count_[g], l);
      if (idx == Ops::kNotFound) {
        idx = count_[g]++;
        if (idx >= kCap) fail("StackSweepSim: line pool overflow");
        e = g * kStride + idx;
        line_[e] = l;
        res_[e] = 0;
        dirty_[e] = 0;
        // Stale last_/fill_ ticks from a previous tenant are harmless:
        // they are all below the fill tick installed next, and
        // max(last, fill) screens them out.
      } else {
        e = g * kStride + idx;
      }
      for (std::uint32_t m = miss; m != 0; m &= m - 1) {
        const std::uint32_t k = static_cast<std::uint32_t>(std::countr_zero(m));
        res_[e] |= static_cast<std::uint8_t>(1u << k);
        fill_[k * kEntries + e] = tick_;
        dirty_[e] = (dirty_[e] & ~(0xFu << (4 * k))) |
                    (static_cast<std::uint32_t>(is_write) << (4 * k + o));
        // A fill touches every subline's set: the new line becomes the MRU
        // of all of them in this slot.
        const int pb = kSlotPredBit[k];
        if (pb >= 0 && (pred_active >> pb & 1u)) {
          const std::uint32_t bmask = kSlotSets[k] - 1u;
          for (std::uint32_t j = 0; j < SUBL; ++j) {
            memo_for(pb)[((l << kLog) + j) & bmask] = l;
          }
        }
      }
    } else {
      e = g * kStride + idx;
    }

    if (is_write && r != 0) dirty_[e] |= spread_[r] << o;
    last_[o * kEntries + e] = tick_;
    // A hit refreshes only the accessed subline's set in the memo.
    if ((r >> 1 & 1u) && (pred_active & 1u)) memo1_[block & 127u] = l;
    if ((r >> 2 & 1u) && (pred_active & 2u)) memo2_[block & 127u] = l;
    if ((r >> 4 & 1u) && (pred_active & 4u)) memo4_[block & 255u] = l;
    last_block_[g] = block;
    last_idx_[g] = static_cast<std::uint8_t>(idx);
  }

  std::uint32_t* memo_for(int pred_bit) {
    return pred_bit == 0 ? memo1_.data()
                         : pred_bit == 1 ? memo2_.data() : memo4_.data();
  }

  void free_entry(std::uint32_t g, std::uint32_t i) {
    const std::uint32_t tail = --count_[g];
    if (i == tail) return;
    const std::uint32_t dst = g * kStride + i;
    const std::uint32_t src = g * kStride + tail;
    line_[dst] = line_[src];
    res_[dst] = res_[src];
    dirty_[dst] = dirty_[src];
    for (std::uint32_t k = 0; k < kNumSlots; ++k) {
      fill_[k * kEntries + dst] = fill_[k * kEntries + src];
    }
    for (std::uint32_t j = 0; j < SUBL; ++j) {
      last_[j * kEntries + dst] = last_[j * kEntries + src];
    }
  }
};

}  // namespace sweep_detail
}  // namespace stcache
