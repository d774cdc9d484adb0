#include "trace/replay.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <type_traits>

#include "cache/fast_cache.hpp"
#include "cache/nested_sweep.hpp"
#include "cache/packed.hpp"
#include "cache/stack_sweep.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace stcache {

namespace {

constexpr unsigned kMaxSweepJobs = 32;

std::atomic<unsigned> g_sweep_jobs{1};

unsigned clamp_jobs(unsigned v) { return std::clamp(v, 1u, kMaxSweepJobs); }

// The two bank kinds differ only in these: the line size and the kernel
// that runs a line-size group.
std::uint32_t line_bytes_of(const CacheConfig& c) { return c.line_bytes(); }
std::uint32_t line_bytes_of(const CacheGeometry& g) { return g.line_bytes; }

template <typename Desc>
using SweepKernel = std::conditional_t<std::is_same_v<Desc, CacheConfig>,
                                       StackSweepSim, NestedSweepSim>;

}  // namespace

namespace detail {

class BankGroup {
 public:
  virtual ~BankGroup() = default;
  virtual void replay(std::span<const std::uint32_t> packed) = 0;
  // Write this group's stats into their bank slots of `out`.
  virtual void collect(std::vector<CacheStats>& out) const = 0;
};

}  // namespace detail

namespace {

// The configurations of one line size (two or more on the platform): one
// traversal.
template <typename Desc>
class SweepGroup final : public detail::BankGroup {
 public:
  SweepGroup(std::vector<Desc> descs, std::vector<std::size_t> where,
             const TimingParams& timing)
      : descs_(std::move(descs)),
        where_(std::move(where)),
        sim_(descs_, timing) {}

  void replay(std::span<const std::uint32_t> packed) override {
    sim_.replay(packed);
  }

  void collect(std::vector<CacheStats>& out) const override {
    const std::vector<CacheStats> stats =
        sim_.stats(std::span<const Desc>(descs_));
    for (std::size_t j = 0; j < descs_.size(); ++j) out[where_[j]] = stats[j];
  }

 private:
  std::vector<Desc> descs_;
  std::vector<std::size_t> where_;  // indices into the bank's stats
  SweepKernel<Desc> sim_;
};

// A line size with one platform configuration: StackSweepSim's pool layout
// is fixed at the six slots of a line size, which makes a one-config
// traversal 1.4-2.8x slower than the fast sim, so a lone config runs
// FastCacheSim over every feed. (A lone geometry needs no such group: a
// one-member NestedSweepSim costs about what a per-geometry sim would.)
class FastGroup final : public detail::BankGroup {
 public:
  FastGroup(const CacheConfig& config, std::size_t where,
            const TimingParams& timing)
      : sim_(config, timing), where_(where) {}

  void replay(std::span<const std::uint32_t> packed) override {
    sim_.replay(packed);
  }

  void collect(std::vector<CacheStats>& out) const override {
    out[where_] = sim_.stats();
  }

 private:
  FastCacheSim sim_;
  std::size_t where_;
};

}  // namespace

unsigned default_sweep_jobs() {
  return g_sweep_jobs.load(std::memory_order_relaxed);
}

void set_default_sweep_jobs(unsigned jobs) {
  g_sweep_jobs.store(clamp_jobs(jobs), std::memory_order_relaxed);
}

void pack_stream(std::span<const TraceRecord> stream,
                 std::vector<std::uint32_t>& out) {
  out.clear();
  out.reserve(stream.size());
  for (const TraceRecord& r : stream) {
    out.push_back(pack_word(r.addr, r.kind == AccessKind::kWrite));
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

  for (const std::uint32_t line : lines) {
    std::vector<Desc> group;
    std::vector<std::size_t> where;
    for (std::size_t i = 0; i < n_; ++i) {
      if (line_bytes_of(descs[i]) == line) {
        group.push_back(descs[i]);
        where.push_back(i);
      }
    }
    if constexpr (std::is_same_v<Desc, CacheConfig>) {
      if (group.size() == 1) {
        groups_.push_back(
            std::make_unique<FastGroup>(group.front(), where.front(), timing));
        continue;
      }
    }
    groups_.push_back(std::make_unique<SweepGroup<Desc>>(
        std::move(group), std::move(where), timing));
  }
  if (sweep_jobs == 0) sweep_jobs = default_sweep_jobs();
  jobs_ = std::max(1u, std::min(clamp_jobs(sweep_jobs),
                                static_cast<unsigned>(groups_.size())));
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
    if (g.assoc > 64) {
      fail("BankAccumulator: geometry bank supports at most 64 ways "
           "(NestedSweepSim's dirty masks are 64-bit)");
    }
  }
  build(geoms, timing, sweep_jobs);
}

BankAccumulator::~BankAccumulator() = default;
BankAccumulator::BankAccumulator(BankAccumulator&&) noexcept = default;
BankAccumulator& BankAccumulator::operator=(BankAccumulator&&) noexcept =
    default;

void BankAccumulator::feed(std::span<const std::uint32_t> packed) {
  words_fed_ += packed.size();
  if (jobs_ == 1 || packed.empty()) {
    for (const auto& g : groups_) g->replay(packed);
    return;
  }
  // Groups share no state, so any thread may replay any of them: each
  // thread claims the next unreplayed group until none is left. Errors are
  // parked per group and rethrown in group order after every thread is
  // done, because the tasks capture `this`, `packed` and these locals.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(groups_.size());
  const auto drain = [&]() noexcept {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                        groups_.size();) {
      try {
        groups_[i]->replay(packed);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // Declared after what the tasks capture: even if submit() throws, the
    // unwind waits for the tasks already queued, which drain every group.
    struct WaitAll {
      std::vector<std::future<void>> tasks;
      ~WaitAll() {
        for (const std::future<void>& t : tasks) t.wait();
      }
    } pending;
    if (!pool_) pool_ = std::make_unique<ThreadPool>(jobs_ - 1);
    pending.tasks.reserve(jobs_ - 1);
    for (unsigned t = 1; t < jobs_; ++t) {
      pending.tasks.push_back(pool_->submit(drain));
    }
    drain();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<CacheStats> BankAccumulator::stats() const {
  std::vector<CacheStats> out(n_);
  for (const auto& g : groups_) g->collect(out);
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
