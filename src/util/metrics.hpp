// Runtime switch for the informational stderr metric lines: the
// "[sim]" capture-throughput, "[trace_io]" load-throughput and "[phase]"
// timeline-summary messages.
//
// Default: DISABLED, so tool invocations (stcache_tune, stcache_trace) and
// repro.sh stderr comparisons stay clean. Two ways to turn them on:
//
//   * the STCACHE_METRICS environment variable (any value but "0"), read
//     once on first query;
//   * set_metrics_enabled(true), which overrides the environment — the
//     bench binaries call this at startup so their recorded [sim]
//     throughput lines keep appearing by default, and tools expose it as
//     --metrics.
#pragma once

namespace stcache {

bool metrics_enabled();
void set_metrics_enabled(bool on);

}  // namespace stcache
