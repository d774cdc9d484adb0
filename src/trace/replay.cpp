#include "trace/replay.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <future>
#include <iostream>

#include "cache/fast_cache.hpp"
#include "cache/nested_sweep.hpp"
#include "cache/stack_sweep.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace stcache {

namespace {

// Upper bound on partitions AND shards: a five-bit key. For the platform
// bank the derived key is bits 2..6 of the 16 B block number, the
// intersection of the set-index bit ranges of every configuration (the
// 128-set configurations index bits 0..6, and bit 2 is the 64 B line
// granularity); a coarser key would split some configuration's set across
// partitions and break the exact-merge argument.
constexpr unsigned kMaxSweepPartitions = 32;

// 0 = resolve from the environment (STCACHE_SWEEP_JOBS, else serial).
std::atomic<unsigned> g_sweep_jobs{0};

unsigned clamp_jobs(long v) {
  if (v < 1) return 1;
  if (v > static_cast<long>(kMaxSweepPartitions)) return kMaxSweepPartitions;
  return static_cast<unsigned>(v);
}

unsigned env_sweep_jobs() {
  static const unsigned resolved = [] {
    if (const char* e = std::getenv("STCACHE_SWEEP_JOBS")) {
      return clamp_jobs(std::strtol(e, nullptr, 10));
    }
    return 1u;
  }();
  return resolved;
}

// The two bank kinds differ only in these: the line size, the bytes of one
// way (its set count in 16 B rows, times 16), and the kernels that run a
// line-size group (sweep) or a singleton (fast).
std::uint32_t line_bytes_of(const CacheConfig& c) { return c.line_bytes(); }
std::uint32_t line_bytes_of(const CacheGeometry& g) { return g.line_bytes; }
std::uint32_t way_bytes_of(const CacheConfig& c) {
  return c.size_bytes() / c.ways();
}
std::uint32_t way_bytes_of(const CacheGeometry& g) {
  return g.size_bytes / g.assoc;
}

template <typename Desc>
struct Kernels;
template <>
struct Kernels<CacheConfig> {
  using Sweep = StackSweepSim;
  using Fast = FastCacheSim;
};
template <>
struct Kernels<CacheGeometry> {
  using Sweep = NestedSweepSim;
  using Fast = FastGeomSim;
};

// log2(bytes / 16) for a power-of-two byte count >= 16.
unsigned block_bits(std::uint32_t bytes) {
  return static_cast<unsigned>(std::countr_zero(bytes)) - 4;
}

}  // namespace

namespace detail {

class BankGroup {
 public:
  virtual ~BankGroup() = default;
  // Replay into shard `shard`'s sim replica (a singleton has shard 0 only).
  virtual void replay(unsigned shard,
                      std::span<const std::uint32_t> packed) = 0;
  // Write this group's stats into their bank slots of `out`.
  virtual void collect(std::vector<CacheStats>& out) const = 0;
};

}  // namespace detail

namespace {

// Two or more configurations of one line size: one traversal per shard,
// merged by summing the shards' exact integer totals.
template <typename Desc>
class SweepGroup final : public detail::BankGroup {
  using Sweep = typename Kernels<Desc>::Sweep;

 public:
  SweepGroup(std::vector<Desc> descs, std::vector<std::size_t> where,
             const TimingParams& timing, unsigned shards)
      : descs_(std::move(descs)), where_(std::move(where)) {
    shards_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) shards_.emplace_back(descs_, timing);
  }

  void replay(unsigned shard, std::span<const std::uint32_t> packed) override {
    shards_[shard].replay(packed);
  }

  void collect(std::vector<CacheStats>& out) const override {
    typename Sweep::Totals totals;
    for (const Sweep& shard : shards_) shard.add_totals(totals);
    for (std::size_t j = 0; j < descs_.size(); ++j) {
      out[where_[j]] = shards_.front().stats_from(totals, descs_[j]);
    }
  }

 private:
  std::vector<Desc> descs_;
  std::vector<std::size_t> where_;  // indices into the bank's stats
  std::vector<Sweep> shards_;       // [0] runs on the feeding thread
};

// A line size with one configuration: a shared traversal buys nothing, so
// it runs the per-configuration fast sim over every feed.
template <typename Desc>
class FastGroup final : public detail::BankGroup {
 public:
  FastGroup(const Desc& desc, std::size_t where, const TimingParams& timing)
      : sim_(desc, timing), where_(where) {}

  void replay(unsigned, std::span<const std::uint32_t> packed) override {
    sim_.replay(packed);
  }

  void collect(std::vector<CacheStats>& out) const override {
    out[where_] = sim_.stats();
  }

 private:
  typename Kernels<Desc>::Fast sim_;
  std::size_t where_;
};

}  // namespace

unsigned default_sweep_jobs() {
  const unsigned v = g_sweep_jobs.load(std::memory_order_relaxed);
  return v != 0 ? v : env_sweep_jobs();
}

void set_default_sweep_jobs(unsigned jobs) {
  g_sweep_jobs.store(jobs == 0 ? 0 : clamp_jobs(static_cast<long>(jobs)),
                     std::memory_order_relaxed);
}

unsigned sweep_partitions() {
  static const unsigned parts = [] {
    unsigned p = kMaxSweepPartitions;
    if (const char* e = std::getenv("STCACHE_SWEEP_PARTITIONS")) {
      p = clamp_jobs(std::strtol(e, nullptr, 10));
    }
    return std::bit_floor(p);  // the scatter key is a mask of p - 1
  }();
  return parts;
}

void pack_stream(std::span<const TraceRecord> stream,
                 std::vector<std::uint32_t>& out) {
  out.clear();
  out.reserve(stream.size());
  for (const TraceRecord& r : stream) {
    out.push_back((r.addr >> 4) | (r.kind == AccessKind::kWrite
                                       ? FastCacheSim::kPackedWriteBit
                                       : 0u));
  }
}

std::vector<std::uint32_t> pack_stream(std::span<const TraceRecord> stream) {
  std::vector<std::uint32_t> packed;
  pack_stream(stream, packed);
  return packed;
}

CacheStats replay(ConfigurableCache& cache, std::span<const TraceRecord> stream) {
  const CacheStats before = cache.stats();
  for (const TraceRecord& r : stream) {
    cache.access(r.addr, r.kind == AccessKind::kWrite);
  }
  return cache.stats() - before;
}

template <typename Desc>
void BankAccumulator::build(std::span<const Desc> descs,
                            const TimingParams& timing, unsigned sweep_jobs) {
  n_ = descs.size();
  std::vector<std::uint32_t> lines;
  for (const Desc& d : descs) lines.push_back(line_bytes_of(d));
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());

  struct Group {
    std::vector<Desc> descs;
    std::vector<std::size_t> where;
  };
  std::vector<Group> groups;
  // Partition key (see the class comment): at or above every grouped line
  // granularity, inside the narrowest grouped set-index span.
  unsigned key_shift = 0;
  unsigned key_top = 31;
  for (const std::uint32_t line : lines) {
    Group g;
    for (std::size_t i = 0; i < n_; ++i) {
      if (line_bytes_of(descs[i]) == line) {
        g.descs.push_back(descs[i]);
        g.where.push_back(i);
      }
    }
    if (g.descs.size() == 1) {
      singletons_.push_back(std::make_unique<FastGroup<Desc>>(
          g.descs.front(), g.where.front(), timing));
      continue;
    }
    key_shift = std::max(key_shift, block_bits(line));
    for (const Desc& d : g.descs) {
      key_top = std::min(key_top, block_bits(way_bytes_of(d)));
    }
    groups.push_back(std::move(g));
  }
  if (groups.empty()) return;

  const unsigned key_bits = key_top > key_shift ? key_top - key_shift : 0;
  scatter_shift_ = key_shift;
  parts_ = std::min(sweep_partitions(),
                    key_bits >= 5 ? kMaxSweepPartitions : 1u << key_bits);
  if (sweep_jobs == 0) sweep_jobs = default_sweep_jobs();
  jobs_ = std::min(clamp_jobs(static_cast<long>(sweep_jobs)), parts_);
  if (jobs_ > 1) {
    part_buf_.resize(parts_);
    shard_records_.assign(jobs_, 0);
  }
  for (Group& g : groups) {
    sweeps_.push_back(std::make_unique<SweepGroup<Desc>>(
        std::move(g.descs), std::move(g.where), timing, jobs_));
  }
}

BankAccumulator::BankAccumulator(std::span<const CacheConfig> configs,
                                 const TimingParams& timing,
                                 unsigned sweep_jobs) {
  build(configs, timing, sweep_jobs);
}

BankAccumulator::BankAccumulator(std::span<const CacheGeometry> geoms,
                                 const TimingParams& timing,
                                 unsigned sweep_jobs) {
  for (const CacheGeometry& g : geoms) {
    if (!g.valid() || g.line_bytes < 16) {
      fail("BankAccumulator: geometry bank requires valid line_bytes >= 16 "
           "geometries (packed streams carry 16 B block numbers)");
    }
  }
  build(geoms, timing, sweep_jobs);
}

BankAccumulator::~BankAccumulator() = default;
BankAccumulator::BankAccumulator(BankAccumulator&&) noexcept = default;
BankAccumulator& BankAccumulator::operator=(BankAccumulator&&) noexcept =
    default;

void BankAccumulator::replay_shard(unsigned shard) {
  std::uint64_t fed = 0;
  for (unsigned p = shard; p < parts_; p += jobs_) {
    const std::vector<std::uint32_t>& bucket = part_buf_[p];
    if (bucket.empty()) continue;
    fed += bucket.size();
    for (const auto& g : sweeps_) g->replay(shard, bucket);
  }
  shard_records_[shard] += fed;
}

void BankAccumulator::feed(std::span<const std::uint32_t> packed) {
  words_fed_ += packed.size();
  if (jobs_ > 1 && !packed.empty()) {
    // Scatter into set partitions (stream order preserved within each
    // bucket — the only order that matters, since partitions never share
    // a cache set), then replay every shard's buckets through its sim
    // replicas. Shard 0 runs here; the pool spawns on first use.
    for (std::vector<std::uint32_t>& bucket : part_buf_) bucket.clear();
    const std::uint32_t pmask = parts_ - 1;
    for (const std::uint32_t word : packed) {
      // The write bit is stripped before the key is taken.
      part_buf_[((word & FastCacheSim::kPackedBlockMask) >> scatter_shift_) &
                pmask]
          .push_back(word);
    }
    if (!pool_) pool_ = std::make_unique<ThreadPool>(jobs_ - 1);
    std::vector<std::future<void>> pending;
    pending.reserve(jobs_ - 1);
    for (unsigned s = 1; s < jobs_; ++s) {
      pending.push_back(pool_->submit([this, s] { replay_shard(s); }));
    }
    replay_shard(0);
    for (std::future<void>& f : pending) f.get();  // rethrows shard errors
  } else {
    for (const auto& g : sweeps_) g->replay(0, packed);
  }
  for (const auto& g : singletons_) g->replay(0, packed);
}

std::vector<CacheStats> BankAccumulator::stats() const {
  std::vector<CacheStats> out(n_);
  for (const auto& g : sweeps_) g->collect(out);
  for (const auto& g : singletons_) g->collect(out);
  if (jobs_ > 1 && metrics_enabled()) {
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    for (const std::uint64_t c : shard_records_) {
      total += c;
      peak = std::max(peak, c);
    }
    if (total > 0) {
      const double mean = static_cast<double>(total) / jobs_;
      std::cerr << "[sweep] shard imbalance: jobs=" << jobs_
                << " partitions=" << parts_ << " max=" << peak
                << " mean=" << static_cast<std::uint64_t>(mean)
                << " max/mean=" << peak / mean << "\n";
    }
  }
  return out;
}

std::vector<CacheStats> measure_geometry_bank(
    std::span<const CacheGeometry> geoms,
    std::span<const std::uint32_t> packed, const TimingParams& timing,
    unsigned sweep_jobs) {
  BankAccumulator bank(geoms, timing, sweep_jobs);
  bank.feed(packed);
  return bank.stats();
}

}  // namespace stcache
