#include "cache/nested_sweep.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>

#include "cache/packed.hpp"
#include "util/error.hpp"

namespace stcache {

namespace {

void check_geometry(const CacheGeometry& g) {
  if (!g.valid()) {
    fail("invalid geometry (size=" + std::to_string(g.size_bytes) +
         ", assoc=" + std::to_string(g.assoc) +
         ", line=" + std::to_string(g.line_bytes) + ")");
  }
  if (g.line_bytes < 16) {
    fail("sub-16 B line geometry cannot replay a packed 16 B-block stream");
  }
}

}  // namespace

NestedSweepSim::NestedSweepSim(std::span<const CacheGeometry> geoms,
                               TimingParams timing)
    : timing_(timing) {
  if (geoms.empty()) fail("NestedSweepSim: empty geometry bank");
  line_bytes_ = geoms.front().line_bytes;
  // Levels: one per distinct set count, each simulated at the largest
  // associativity any family member requests there.
  std::map<std::uint32_t, std::uint32_t> max_ways;
  for (const CacheGeometry& g : geoms) {
    check_geometry(g);
    if (g.line_bytes != line_bytes_) {
      fail("NestedSweepSim: mixed line sizes in one traversal");
    }
    if (g.assoc > 64) {
      fail("NestedSweepSim: associativity beyond the 64-way dirty-mask "
           "budget");
    }
    std::uint32_t& w = max_ways[g.num_sets()];
    w = std::max(w, g.assoc);
  }
  line_log_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes_)) - 4;
  nlev_ = static_cast<std::uint32_t>(max_ways.size());
  if (nlev_ > 24) fail("NestedSweepSim: too many set-count levels");
  all_mask_ = (1u << nlev_) - 1;

  levels_.reserve(nlev_);
  std::uint32_t hist_off = 0, wb_off = 0;
  for (const auto& [sets, ways] : max_ways) {  // std::map: ascending sets
    Level lev;
    lev.sets = sets;
    lev.lg = static_cast<std::uint32_t>(std::countr_zero(sets));
    lev.ways = ways;
    lev.full = ways == 64 ? ~0ull : (1ull << ways) - 1;
    lev.hist_off = hist_off;
    lev.wb_off = wb_off;
    hist_off += ways + 1;
    wb_off += ways;
    levels_.push_back(lev);
  }
  hist_.assign(hist_off, 0);
  wb_.assign(wb_off, 0);

  for (std::uint32_t z = 0; z < 32; ++z) {
    std::uint8_t m = 0;
    for (const Level& lev : levels_) m += lev.lg <= z;
    mlev_[z] = m;
  }

  // Pool capacity per coarse group: each level ℓ contributes at most
  // (sets_ℓ / groups) sets of ways_ℓ resident lines to a group, plus one
  // slot for the in-flight line between allocation and eviction sweep.
  groups_ = levels_.front().sets;
  gmask_ = groups_ - 1;
  std::uint64_t cap = 1;
  for (const Level& lev : levels_) {
    cap += static_cast<std::uint64_t>(lev.sets / groups_) * lev.ways;
  }
  if (cap > 0xFFFF) {
    fail("NestedSweepSim: per-group pool exceeds the 16-bit index budget");
  }
  cap_ = static_cast<std::uint32_t>(cap);

  const std::size_t entries = static_cast<std::size_t>(groups_) * cap_;
  line_.assign(entries, 0);
  last_.assign(entries, 0);
  res_.assign(entries, 0);
  dirty_.assign(entries * nlev_, 0);
  count_.assign(groups_, 0);
  last_line_.assign(groups_, kNone);  // no real line is 0xFFFFFFFF
  last_idx_.assign(groups_, 0);
  occ_.resize(nlev_);
  newer_.resize(nlev_);
  vict_.resize(nlev_);
  vmin_.resize(nlev_);
}

void NestedSweepSim::replay(std::span<const std::uint32_t> packed) {
  if (packed.size() > 0xFFFF'FFFFull - tick_) {
    fail("NestedSweepSim: stream exceeds the 32-bit tick budget");
  }
  // Tick, write count and repeat hits live in locals and are folded back
  // once per call: as members, every record would load and store them.
  std::uint32_t tick = tick_;
  std::uint64_t writes = 0;
  std::uint64_t repeats = 0;
  for (const std::uint32_t word : packed) {
    const bool is_write = (word & kPackedWriteBit) != 0;
    const std::uint32_t line = (word & kPackedBlockMask) >> line_log_;
    const std::uint32_t g = line & gmask_;
    ++tick;
    writes += is_write;
    if (line == last_line_[g]) {
      // The group's most recent line is the most recent of every nested
      // set it occupies: depth 0 (a hit) at all levels, no evictions, no
      // epochs ending. Only a write touches the dirty masks.
      const std::uint32_t e = g * cap_ + last_idx_[g];
      ++repeats;
      last_[e] = tick;
      if (is_write) {
        std::uint64_t* const d = &dirty_[static_cast<std::size_t>(e) * nlev_];
        for (std::uint32_t l = 0; l < nlev_; ++l) d[l] = levels_[l].full;
      }
      continue;
    }
    slow(line, g, is_write, tick);
  }
  tick_ = tick;
  n_ += packed.size();
  writes_ += writes;
  repeat_hits_ += repeats;
}

void NestedSweepSim::slow(const std::uint32_t line, const std::uint32_t g,
                          const bool is_write, const std::uint32_t tick) {
  const std::uint32_t seg = g * cap_;
  std::uint32_t cnt = count_[g];

  // Pass 1: the accessed line's pool entry, if any.
  std::uint32_t x = kNone;
  for (std::uint32_t i = 0; i < cnt; ++i) {
    if (line_[seg + i] == line) {
      x = i;
      break;
    }
  }
  const std::uint32_t xres = x != kNone ? res_[seg + x] : 0;
  const std::uint32_t xlast = x != kNone ? last_[seg + x] : 0;

  // Pass 2: per level, occupancy of the accessed set, the stack depth
  // (residents touched after the accessed line) and the LRU victim — all
  // from pre-access state in one scan of the segment. An entry matches
  // the first mlev_[countr_zero(diff)] levels (nested masks) and
  // contributes to exactly the levels it is resident in.
  for (std::uint32_t l = 0; l < nlev_; ++l) {
    occ_[l] = 0;
    newer_[l] = 0;
    vict_[l] = kNone;
    vmin_[l] = kNone;
  }
  for (std::uint32_t i = 0; i < cnt; ++i) {
    const std::uint32_t diff = line_[seg + i] ^ line;
    if (diff == 0) continue;  // the line itself: never newer, never a victim
    std::uint32_t r =
        res_[seg + i] & ((1u << mlev_[std::countr_zero(diff)]) - 1u);
    const std::uint32_t lu = last_[seg + i];
    const std::uint32_t nw = lu > xlast;
    while (r != 0) {
      const std::uint32_t l = static_cast<std::uint32_t>(std::countr_zero(r));
      r &= r - 1;
      ++occ_[l];
      newer_[l] += nw;
      if (lu < vmin_[l]) {
        vmin_[l] = lu;
        vict_[l] = i;
      }
    }
  }

  // The line needs a pool entry before the per-level resolution (which
  // writes its residency and dirty state). Allocation cannot disturb pass
  // 2's results: the new entry starts non-resident everywhere.
  if (x == kNone) {
    if (cnt >= cap_) fail("NestedSweepSim: line pool overflow");
    x = cnt;
    line_[seg + x] = line;
    res_[seg + x] = 0;
    std::memset(&dirty_[static_cast<std::size_t>(seg + x) * nlev_], 0,
                sizeof(std::uint64_t) * nlev_);
    ++cnt;
  }

  std::uint64_t* const xd = &dirty_[static_cast<std::size_t>(seg + x) * nlev_];
  bool freed = false;
  for (std::uint32_t l = 0; l < nlev_; ++l) {
    const Level& lev = levels_[l];
    std::uint64_t d = xd[l];
    if ((xres >> l) & 1u) {
      // Hit at stack depth newer_[l] (< ways: the maximal sim would have
      // evicted a deeper line). Configs w <= depth evicted the line since
      // its last touch: settle their dirty epochs now.
      const std::uint32_t depth = newer_[l];
      if (depth >= lev.ways) fail("NestedSweepSim: depth exceeds residency");
      ++hist_[lev.hist_off + depth];
      const std::uint64_t low = (1ull << depth) - 1;
      std::uint64_t ended = d & low;
      while (ended != 0) {
        ++wb_[lev.wb_off + std::countr_zero(ended)];
        ended &= ended - 1;
      }
      xd[l] = is_write ? lev.full : d & ~low;
    } else {
      // Miss: every (sets, w) config at this level fills the line; the
      // maximal simulation evicts its LRU resident if the set is full
      // (all smaller w evicted theirs earlier — already settled lazily or
      // below when their line leaves the maximal sim).
      ++hist_[lev.hist_off + lev.ways];
      if (occ_[l] >= lev.ways) {
        const std::size_t v =
            static_cast<std::size_t>(seg + vict_[l]) * nlev_ + l;
        std::uint64_t vd = dirty_[v];
        while (vd != 0) {
          ++wb_[lev.wb_off + std::countr_zero(vd)];
          vd &= vd - 1;
        }
        dirty_[v] = 0;
        res_[seg + vict_[l]] &= ~(1u << l);
        freed |= res_[seg + vict_[l]] == 0;
      }
      xd[l] = is_write ? lev.full : 0;
    }
  }
  res_[seg + x] = all_mask_;
  last_[seg + x] = tick;

  // Swap-remove entries evicted from their last level; the accessed line
  // is resident everywhere, so it survives (but may move).
  if (freed) {
    std::uint32_t i = 0;
    while (i < cnt) {
      if (res_[seg + i] != 0) {
        ++i;
        continue;
      }
      --cnt;
      if (i != cnt) {
        line_[seg + i] = line_[seg + cnt];
        last_[seg + i] = last_[seg + cnt];
        res_[seg + i] = res_[seg + cnt];
        std::memcpy(&dirty_[static_cast<std::size_t>(seg + i) * nlev_],
                    &dirty_[static_cast<std::size_t>(seg + cnt) * nlev_],
                    sizeof(std::uint64_t) * nlev_);
        if (x == cnt) x = i;
      }
    }
  }
  count_[g] = static_cast<std::uint16_t>(cnt);
  last_line_[g] = line;
  last_idx_[g] = static_cast<std::uint16_t>(x);
}

std::vector<CacheStats> NestedSweepSim::stats(
    std::span<const CacheGeometry> geoms) const {
  std::vector<std::uint64_t> wb = wb_;
  // Still-open dirty bits whose (level, w) eviction already happened but
  // whose line was never touched again: CacheModel counted those
  // write-backs at eviction time. A bit w-1 belongs to an ended epoch iff
  // the line's CURRENT depth at the level is >= w; deeper bits are lines
  // still resident in (sets, w) — a cold bank never flushes, so they
  // owe nothing. Pure read of the pool: feeding may continue after.
  for (std::uint32_t g = 0; g < groups_; ++g) {
    const std::uint32_t seg = g * cap_;
    const std::uint32_t cnt = count_[g];
    for (std::uint32_t i = 0; i < cnt; ++i) {
      const std::uint32_t r = res_[seg + i];
      const std::uint64_t* const d =
          &dirty_[static_cast<std::size_t>(seg + i) * nlev_];
      for (std::uint32_t l = 0; l < nlev_; ++l) {
        if (((r >> l) & 1u) == 0 || d[l] == 0) continue;
        const Level& lev = levels_[l];
        const std::uint32_t smask = lev.sets - 1;
        std::uint32_t depth = 0;
        for (std::uint32_t j = 0; j < cnt; ++j) {
          const std::uint32_t diff = line_[seg + j] ^ line_[seg + i];
          depth += diff != 0 && (diff & smask) == 0 &&
                   ((res_[seg + j] >> l) & 1u) != 0 &&
                   last_[seg + j] > last_[seg + i];
        }
        std::uint64_t ended = d[l] & ((1ull << depth) - 1);
        while (ended != 0) {
          ++wb[lev.wb_off + std::countr_zero(ended)];
          ended &= ended - 1;
        }
      }
    }
  }

  const std::uint32_t stall = timing_.miss_stall_cycles(line_bytes_);
  std::vector<CacheStats> out;
  out.reserve(geoms.size());
  for (const CacheGeometry& g : geoms) {
    const Level& lev = level_of(g);
    std::uint64_t hits = repeat_hits_;
    for (std::uint32_t d = 0; d < g.assoc; ++d) hits += hist_[lev.hist_off + d];
    CacheStats s;
    s.accesses = n_;
    s.write_accesses = writes_;
    s.read_accesses = n_ - writes_;
    s.hits = hits;
    s.misses = n_ - hits;
    s.fill_bytes = s.misses * line_bytes_;
    s.writeback_bytes = wb[lev.wb_off + g.assoc - 1] * line_bytes_;
    s.stall_cycles = s.misses * stall;
    s.cycles = n_ * timing_.hit_cycles + s.stall_cycles;
    out.push_back(s);
  }
  return out;
}

const NestedSweepSim::Level& NestedSweepSim::level_of(
    const CacheGeometry& g) const {
  if (g.line_bytes == line_bytes_ && g.valid()) {
    for (const Level& lev : levels_) {
      if (lev.sets == g.num_sets()) {
        if (g.assoc <= lev.ways) return lev;
        break;
      }
    }
  }
  fail("NestedSweepSim: geometry " + std::to_string(g.size_bytes) + "/" +
       std::to_string(g.assoc) + "w/" + std::to_string(g.line_bytes) +
       "B is outside this traversal's family");
}

CacheStats NestedSweepSim::stats(const CacheGeometry& g) const {
  return stats(std::span<const CacheGeometry>(&g, 1)).front();
}

}  // namespace stcache
