#include "cache/stack_sweep.hpp"

#include <array>
#include <bit>
#include <string>

#include "cache/packed.hpp"
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

namespace {

// The six content-distinct (num_sets, ways) pairs per line size; see the
// slot table in stack_sweep.hpp. Way-predicted slots carry a pred bit.
constexpr std::uint32_t kNumSlots = 6;
constexpr std::uint32_t kSlotSets[kNumSlots] = {128, 128, 128, 256, 256, 512};
constexpr std::uint32_t kSlotWays[kNumSlots] = {1, 2, 4, 1, 2, 1};
constexpr int kSlotPredBit[kNumSlots] = {-1, 0, 1, -1, 2, -1};

std::uint32_t slot_of(const CacheConfig& cfg) {
  switch (cfg.num_sets()) {
    case 128: return cfg.ways() == 1 ? 0u : cfg.ways() == 2 ? 1u : 2u;
    case 256: return cfg.ways() == 1 ? 3u : 4u;
    case 512: return 5u;
  }
  fail("StackSweepSim: no slot for configuration " + cfg.name());
}

constexpr std::uint32_t kNotFound = 0xFFFF'FFFFu;

// Index of `l` in lines[0..count), or kNotFound.
std::uint32_t find(const std::uint32_t* lines, std::uint32_t count,
                   std::uint32_t l) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (lines[i] == l) return i;
  }
  return kNotFound;
}

// Result of the LRU victim scan over one group segment.
struct VictimScan {
  std::uint32_t found = 0;   // entries resident in slot k at set `ls`
  std::uint32_t victim = 0;  // index of the entry with the minimal stamp
};

// Count the entries with res bit k set and (line & smask) == ls, and return
// the first one minimizing max(last_row[i], fill_row[i]). Ticks are
// distinct so the minimum is unique whenever found > 0.
VictimScan victim(const std::uint32_t* lines, const std::uint8_t* res,
                  const std::uint32_t* last_row, const std::uint32_t* fill_row,
                  std::uint32_t count, std::uint32_t k, std::uint32_t smask,
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

// The traversal for one subline count (line size / 16 B).
//
// Pool layout: one segment of kCap entries per coarse group. Timestamp
// arrays are laid out for the victim scan's access pattern — fill ticks
// slot-major and last-access ticks offset-major, so the scan over a fixed
// (slot k, offset o) reads two contiguous rows.
template <unsigned SUBL>
struct Kernel final : StackSweepSim::Impl {
  static constexpr std::uint32_t kLog = SUBL == 1 ? 0u : SUBL == 2 ? 1u : 2u;
  // Coarse groups: the 128-set mask at line granularity. Every conflict in
  // any slot stays inside one group, so pool entries are bucketed by it.
  static constexpr std::uint32_t kGroups = 128 / SUBL;
  static constexpr std::uint32_t kGroupMask = kGroups - 1;
  // Max lines co-resident per group across all six slots: 1+2+4 (128-set
  // slots) + 2+4 (256-set) + 4 (512-set) = 17, +1 mid-install.
  static constexpr std::uint32_t kCap = 20;
  static constexpr std::uint32_t kEntries = kGroups * kCap;
  static constexpr std::uint32_t kNoBlock = 0xFFFF'FFFFu;  // > any 31-bit id

  // Line pool, SoA, bucketed in kCap-entry group segments. `last_` ticks
  // are slot-independent (a hit refreshes the accessed subline everywhere)
  // and offset-major: last_[o * kEntries + e]. `fill_` ticks are per slot
  // and slot-major: fill_[k * kEntries + e]. Dirty nibbles stay per entry
  // (bit 4*slot + offset).
  std::vector<std::uint32_t> line_ = std::vector<std::uint32_t>(kEntries);
  std::vector<std::uint8_t> res_ = std::vector<std::uint8_t>(kEntries);
  std::vector<std::uint32_t> dirty_ = std::vector<std::uint32_t>(kEntries);
  std::vector<std::uint32_t> fill_ =
      std::vector<std::uint32_t>(kNumSlots * kEntries);
  std::vector<std::uint32_t> last_ = std::vector<std::uint32_t>(SUBL * kEntries);
  std::array<std::uint8_t, kGroups> count_{};
  // Last accessed block per group, and its line's pool index.
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
    // Tick, write count and repeat hits live in locals and are folded back
    // once per call: a per-record ++hist[fast_key_] would be a store/reload
    // chain on one address. slow() reads tick_, so it is written first.
    std::uint32_t tick = tick_;
    std::uint64_t wr = 0;
    std::uint64_t repeats = 0;
    for (const std::uint32_t rec : packed) {
      const std::uint32_t block = rec & kPackedBlockMask;
      const std::uint32_t is_write = rec >> 31;
      const std::uint32_t o = block & (SUBL - 1);
      ++tick;
      wr += is_write;
      const std::uint32_t g = (block >> kLog) & kGroupMask;
      const std::uint32_t e = g * kCap + last_idx_[g];
      if (last_block_[g] == block) {
        // Repeat access: the previous access to this group installed or
        // refreshed this very block, so it is resident in every active
        // slot, is the MRU of every predicted set, and no memo moved.
        ++repeats;
        last_[o * kEntries + e] = tick;
        if (is_write) dirty_[e] |= fast_spread_ << o;
        continue;
      }
      if (SUBL > 1 && (last_block_[g] ^ block) < SUBL) {
        // Same-line step: another block of the group's last-touched line,
        // which is resident in every active slot (stack_sweep.hpp). A hit
        // everywhere; only the first-probe bits read the pre-access memos,
        // and the hit then makes the line the MRU of this block's set.
        const std::uint32_t l = block >> kLog;
        std::uint32_t pbits = 0;
        if ((pred_active & 1u) && memo1_[block & 127u] == l) pbits |= 1u;
        if ((pred_active & 2u) && memo2_[block & 127u] == l) pbits |= 2u;
        if ((pred_active & 4u) && memo4_[block & 255u] == l) pbits |= 4u;
        ++hist[active | pbits << kNumSlots];
        last_[o * kEntries + e] = tick;
        if (is_write) dirty_[e] |= fast_spread_ << o;
        if (pred_active & 1u) memo1_[block & 127u] = l;
        if (pred_active & 2u) memo2_[block & 127u] = l;
        if (pred_active & 4u) memo4_[block & 255u] = l;
        last_block_[g] = block;
        continue;
      }
      tick_ = tick;
      slow(block, g, is_write != 0);
    }
    tick_ = tick;
    writes += wr;
    hist[fast_key_] += repeats;
  }

  // Kept out of line: inlined into replay(), its register pressure spills
  // the record loop's locals (cursor, tick, counters) to the stack.
  [[gnu::noinline]] void slow(std::uint32_t block, std::uint32_t g,
                              bool is_write) {
    const std::uint32_t l = block >> kLog;
    const std::uint32_t o = block & (SUBL - 1);
    const std::uint32_t* gl = &line_[g * kCap];
    std::uint32_t idx = find(gl, count_[g], l);
    const std::uint32_t r = idx != kNotFound ? res_[g * kCap + idx] : 0u;

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
          victim(gl, &res_[g * kCap], &last_[o * kEntries + g * kCap],
                 &fill_[k * kEntries + g * kCap], count_[g], k, smask, ls);
      if (scan.found >= kSlotWays[k]) {
        const std::uint32_t e = g * kCap + scan.victim;
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
      idx = find(gl, count_[g], l);
      if (idx == kNotFound) {
        idx = count_[g]++;
        if (idx >= kCap) fail("StackSweepSim: line pool overflow");
        e = g * kCap + idx;
        line_[e] = l;
        res_[e] = 0;
        dirty_[e] = 0;
        // Stale last_/fill_ ticks from a previous tenant are harmless:
        // they are all below the fill tick installed next, and
        // max(last, fill) screens them out.
      } else {
        e = g * kCap + idx;
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
      e = g * kCap + idx;
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
    const std::uint32_t dst = g * kCap + i;
    const std::uint32_t src = g * kCap + tail;
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

}  // namespace

StackSweepSim::StackSweepSim(std::span<const CacheConfig> configs,
                             TimingParams timing) {
  if (configs.empty()) fail("StackSweepSim: empty configuration bank");
  const std::uint32_t line = configs.front().line_bytes();
  switch (line) {
    case 16: impl_ = std::make_unique<Kernel<1>>(); break;
    case 32: impl_ = std::make_unique<Kernel<2>>(); break;
    case 64: impl_ = std::make_unique<Kernel<4>>(); break;
    default: fail("StackSweepSim: unsupported line size");
  }
  impl_->line_bytes = line;
  impl_->timing = timing;
  for (const CacheConfig& cfg : configs) {
    if (cfg.line_bytes() != line) {
      fail("StackSweepSim: mixed line sizes in one bank (" + cfg.name() +
           " vs " + std::to_string(line) + " B)");
    }
    if (!cfg.valid()) fail("StackSweepSim: invalid configuration " + cfg.name());
    const std::uint32_t k = slot_of(cfg);
    impl_->active |= 1u << k;
    if (cfg.way_prediction && cfg.ways() > 1) {
      impl_->pred_active |= 1u << kSlotPredBit[k];
    }
  }
  impl_->finalize();
}

StackSweepSim::~StackSweepSim() = default;
StackSweepSim::StackSweepSim(StackSweepSim&&) noexcept = default;
StackSweepSim& StackSweepSim::operator=(StackSweepSim&&) noexcept = default;

void StackSweepSim::replay(std::span<const std::uint32_t> packed) {
  impl_->replay(packed);
}

std::uint32_t StackSweepSim::line_bytes() const { return impl_->line_bytes; }

CacheStats StackSweepSim::stats(const CacheConfig& cfg) const {
  if (cfg.line_bytes() != impl_->line_bytes) {
    fail("StackSweepSim::stats: " + cfg.name() + " has the wrong line size");
  }
  const std::uint32_t k = slot_of(cfg);
  if (!(impl_->active >> k & 1u)) {
    fail("StackSweepSim::stats: " + cfg.name() + " was not in the bank");
  }
  const bool pred = cfg.way_prediction && cfg.ways() > 1;
  const int pb = pred ? kSlotPredBit[k] : -1;
  if (pred && !(impl_->pred_active >> pb & 1u)) {
    fail("StackSweepSim::stats: " + cfg.name() + " was not in the bank");
  }

  std::uint64_t hits = 0;
  std::uint64_t first = 0;
  for (std::uint32_t key = 0; key < 512; ++key) {
    const std::uint64_t c = impl_->hist[key];
    if (c == 0) continue;
    if (key >> k & 1u) hits += c;
    if (pb >= 0 && (key >> (kNumSlots + static_cast<unsigned>(pb)) & 1u))
      first += c;
  }

  const std::uint64_t n = impl_->n;
  CacheStats s;
  s.accesses = n;
  s.write_accesses = impl_->writes;
  s.read_accesses = n - impl_->writes;
  s.hits = hits;
  s.misses = n - hits;
  s.fill_bytes = s.misses * impl_->line_bytes;
  s.writeback_bytes = impl_->wb_bytes[k];
  s.stall_cycles =
      s.misses * impl_->timing.miss_stall_cycles(impl_->line_bytes);
  if (pred) {
    s.pred_accesses = n;
    s.pred_first_hits = first;
    s.pred_mispredicts = hits - first;
    s.stall_cycles += s.pred_mispredicts * impl_->timing.mispredict_penalty;
  }
  s.cycles = n * impl_->timing.hit_cycles + s.stall_cycles;
  return s;
}

std::vector<CacheStats> StackSweepSim::stats(
    std::span<const CacheConfig> configs) const {
  std::vector<CacheStats> out;
  out.reserve(configs.size());
  for (const CacheConfig& cfg : configs) out.push_back(stats(cfg));
  return out;
}

}  // namespace stcache
