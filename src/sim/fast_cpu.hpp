// Fast in-order interpreter: predecoded superblock execution with direct
// packed-trace emission.
//
// `Cpu` (cpu.hpp) is the behavioral reference: one `switch` dispatch per
// instruction, a virtual MemorySystem call per access, and a TraceRecord
// push per access when capturing. That shape is right for cache-timed
// whole-system runs (SplitCacheSystem), but trace *capture* — the producer
// side of every figure pipeline — only ever runs against unit-cost memory,
// where all of the per-instruction bookkeeping is loop-invariant.
// FastCpu specializes for exactly that case:
//
//  * Predecode to a dense form. The whole text segment decodes once into
//    8-byte DenseInstr entries (isa/dense.hpp): handler index + the
//    operand bytes and pre-massaged immediate the handler consumes.
//    Undecodable words get a poison handler that re-raises their decode
//    error only if fetched, exactly like the reference's decode_ok_ map.
//  * Superblocks. Straight-line runs between control-flow instructions are
//    precomputed (run_len_, one backward scan per decode) and executed as
//    a unit: no per-instruction PC update, fetch bounds check, or budget
//    check — those hoist to the block header, and the block's instruction
//    fetch trace (consecutive packed words) is emitted in bulk before the
//    run executes.
//  * Computed-goto dispatch. The straight-line loop threads through a
//    label table indexed by the dense handler byte when the compiler
//    supports the GNU labels-as-values extension (CMake feature test,
//    STCACHE_HAVE_COMPUTED_GOTO); a portable switch loop otherwise.
//  * Direct packed emission. Capture produces the split instruction/data
//    streams already in pack_stream() format (bit 31 = write, bits 30..0 =
//    16 B block number) through bump-pointer cursors into reusable chunk
//    buffers (PackedSink) — no TraceRecord AoS, no virtual call per
//    access, no split_trace/pack_stream round trip.
//  * SMC via per-block invalidation. A store below text_end_ re-decodes
//    the patched words, rebuilds the affected straight-line run lengths,
//    and truncates the currently executing superblock at the store, so
//    self-modifying code observes exactly the reference redecode
//    semantics (tests/fast_cpu_test.cpp runs the differential).
//  * Lazily zeroed memory. The simulated memory is pages the OS
//    zero-fills on first touch (util/pages.hpp), so a run faults in only
//    the text, data and stack pages it touches, not all of mem_bytes.
//
// Timing model: every instruction fetch and every data access costs one
// cycle (the capture contract of TracingMemory/PerfectMemory), so
// cycles == instructions + data accesses. For cache-timed runs use the
// reference Cpu with a real MemorySystem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/dense.hpp"
#include "sim/cpu.hpp"
#include "util/pages.hpp"

namespace stcache {

// Destination for packed trace words. The interpreter bumps the cursors
// directly (one store per access) and calls refill() only when a block
// needs more room than the current chunk has left, so the virtual call
// amortizes over a whole chunk. Implementations: PackedBufferSink
// (materialized vectors) and ChunkQueueSink (SPSC streaming) in
// trace/stream.hpp.
class PackedSink {
 public:
  virtual ~PackedSink() = default;

  std::uint32_t* ifetch_cursor() const { return iw_; }
  std::uint32_t* data_cursor() const { return dw_; }

 protected:
  friend class FastCpu;
  // Guarantee space for at least `min_free` more words in BOTH streams'
  // cursors (flushing or growing as needed). Cursor values may change.
  virtual void refill(std::size_t min_free) = 0;

  std::uint32_t* iw_ = nullptr;
  std::uint32_t* iw_end_ = nullptr;
  std::uint32_t* dw_ = nullptr;
  std::uint32_t* dw_end_ = nullptr;
};

class FastCpu {
 public:
  FastCpu(const Program& program, std::uint32_t mem_bytes = 1u << 22);

  // Execute until halt or until `max_instructions` have retired, without
  // capturing a trace (PerfectMemory-equivalent timing).
  RunResult run(std::uint64_t max_instructions = 1ull << 32);

  // Execute, emitting the packed instruction-fetch and data streams into
  // `sink`. The relative interleaving of the two streams is not defined
  // (each stream is in program order internally) — callers consume them as
  // the split streams every replay path wants anyway.
  RunResult run(std::uint64_t max_instructions, PackedSink& sink);

  // --- state inspection (differential tests, checksum verification) -------
  std::uint32_t reg(std::uint8_t r) const;
  void set_reg(std::uint8_t r, std::uint32_t value);
  std::uint32_t pc() const { return pc_; }
  std::uint32_t load_word(std::uint32_t addr) const;
  std::uint8_t load_byte(std::uint32_t addr) const;
  std::uint32_t mem_bytes() const { return static_cast<std::uint32_t>(mem_.size()); }

 private:
  template <bool kCapture>
  RunResult run_impl(std::uint64_t max_instructions, PackedSink* sink);

  void decode_slot(std::uint32_t slot);
  // Recompute run_len_ after (re)decoding slots in [first_changed,
  // last_changed]; scans backward and stops once values stabilize.
  void rebuild_run_lengths(std::uint32_t first_changed,
                           std::uint32_t last_changed);
  // Store into the text segment: redecode the touched words and rebuild
  // the straight-line run lengths (cold path, SMC only).
  void smc_store(std::uint32_t addr, std::uint32_t bytes);

  std::uint32_t read_mem_raw(std::uint32_t addr, std::uint32_t bytes) const;
  [[noreturn]] void trap(const std::string& what, std::uint32_t pc) const;

  ZeroPages mem_;
  std::vector<DenseInstr> dense_;  // one entry per text word slot
  // Straight-line instructions executable from each slot before the next
  // control instruction / poisoned word / end of text.
  std::vector<std::uint32_t> run_len_;
  std::uint32_t text_end_ = 0;
  std::uint32_t regs_[kNumRegs] = {};
  std::uint32_t pc_ = 0;
};

}  // namespace stcache
