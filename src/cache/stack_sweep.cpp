#include "cache/stack_sweep.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "cache/stack_sweep_kernel.hpp"
#include "util/error.hpp"

namespace stcache {

namespace {

using sweep_detail::Kernel;
using sweep_detail::kNumSlots;
using sweep_detail::kSlotPredBit;
using sweep_detail::slot_of;

// -1: follow the STCACHE_SIMD environment variable (default on);
//  0 / 1: forced by set_stack_sweep_simd().
std::atomic<int> g_simd_override{-1};

bool simd_env_enabled() {
  const char* v = std::getenv("STCACHE_SIMD");
  return v == nullptr || std::string(v) != "0";
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

bool stack_sweep_simd_available() {
  static const bool avail = sweep_detail::simd_kernel_compiled() && cpu_has_avx2();
  return avail;
}

bool stack_sweep_simd_enabled() {
  if (!stack_sweep_simd_available()) return false;
  const int ovr = g_simd_override.load(std::memory_order_relaxed);
  if (ovr >= 0) return ovr != 0;
  return simd_env_enabled();
}

void set_stack_sweep_simd(bool on) {
  g_simd_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

StackSweepSim::StackSweepSim(std::span<const CacheConfig> configs,
                             TimingParams timing) {
  if (configs.empty()) fail("StackSweepSim: empty configuration bank");
  const std::uint32_t line = configs.front().line_bytes();
  if (line != 16 && line != 32 && line != 64) {
    fail("StackSweepSim: unsupported line size");
  }
  if (stack_sweep_simd_enabled()) {
    impl_ = sweep_detail::make_simd_kernel(line);
  }
  if (!impl_) {
    switch (line) {
      case 16: impl_ = std::make_unique<Kernel<1, false>>(); break;
      case 32: impl_ = std::make_unique<Kernel<2, false>>(); break;
      default: impl_ = std::make_unique<Kernel<4, false>>(); break;
    }
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

bool StackSweepSim::simd() const { return impl_->simd; }

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
