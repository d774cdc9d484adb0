// Microbenchmarks of the simulation substrate itself (google-benchmark):
// ISS execution rate, cache access rates, assembler throughput, and
// full-trace replay speed. These are not paper results; they document the
// cost of running the reproduction pipeline.
#include <benchmark/benchmark.h>

#include "cache/cache_model.hpp"
#include "cache/configurable_cache.hpp"
#include "isa/assembler.hpp"
#include "sim/cpu.hpp"
#include "sim/memory_system.hpp"
#include "trace/replay.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

void BM_ConfigurableCacheAccess(benchmark::State& state) {
  ConfigurableCache cache(
      all_configs()[static_cast<std::size_t>(state.range(0))]);
  Rng rng(1);
  std::vector<std::uint32_t> addrs(4096);
  for (auto& a : addrs) a = static_cast<std::uint32_t>(rng.next_below(32768)) & ~3u;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addrs[i], (i & 7) == 0));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConfigurableCacheAccess)->Arg(0)->Arg(13)->Arg(26);

void BM_GenericCacheAccess(benchmark::State& state) {
  CacheModel cache(CacheGeometry{static_cast<std::uint32_t>(state.range(0)), 4, 32});
  Rng rng(2);
  std::vector<std::uint32_t> addrs(4096);
  for (auto& a : addrs) a = static_cast<std::uint32_t>(rng.next_below(262144)) & ~3u;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addrs[i], false));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GenericCacheAccess)->Arg(8192)->Arg(1 << 20);

void BM_IssExecution(benchmark::State& state) {
  const Workload& w = find_workload("bcnt");
  const Program p = assemble(w.source, w.name);
  for (auto _ : state) {
    PerfectMemory mem;
    Cpu cpu(p, mem, w.mem_bytes);
    const RunResult r = cpu.run(w.max_instructions);
    benchmark::DoNotOptimize(r.instructions);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(r.instructions));
  }
}
BENCHMARK(BM_IssExecution)->Unit(benchmark::kMillisecond);

void BM_Assemble(benchmark::State& state) {
  const Workload& w = find_workload("jpeg");  // largest generated source
  for (auto _ : state) {
    benchmark::DoNotOptimize(assemble(w.source, w.name));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.source.size()));
}
BENCHMARK(BM_Assemble)->Unit(benchmark::kMillisecond);

void BM_TraceReplay(benchmark::State& state) {
  static const Trace trace = capture_trace(find_workload("crc"));
  for (auto _ : state) {
    const CacheConfig cfg = base_cache();
    BankAccumulator bank(std::span<const CacheConfig>(&cfg, 1));
    bank.feed(pack_stream(trace));
    const CacheStats s = bank.stats().front();
    benchmark::DoNotOptimize(s.misses);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(trace.size()));
  }
}
BENCHMARK(BM_TraceReplay)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stcache

BENCHMARK_MAIN();
