#include "sim/fast_cpu.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "cache/packed.hpp"
#include "util/error.hpp"

namespace stcache {

// The label table in run_impl is listed in Op declaration order; force a
// revisit here if the enum ever changes shape.
static_assert(static_cast<int>(Op::kJal) == 45,
              "Op enum changed: update the fast interpreter's label table");

FastCpu::FastCpu(const Program& program, std::uint32_t mem_bytes) {
  // Identical diagnostics to the reference constructor: the engines must be
  // indistinguishable from the outside, errors included.
  if (!std::has_single_bit(mem_bytes) || mem_bytes < (1u << 16)) {
    fail("Cpu: memory size must be a power of two >= 64 KB");
  }
  if (program.end_address() > mem_bytes) {
    fail("Cpu: program does not fit in " + std::to_string(mem_bytes) + " bytes");
  }
  mem_ = ZeroPages(mem_bytes);
  std::uint32_t text_end = 0;
  for (const Segment& s : program.segments) {
    std::copy(s.bytes.begin(), s.bytes.end(),
              mem_.data<std::uint8_t>() + s.base);
    if (s.base < kDefaultDataBase) {
      text_end = std::max(
          text_end, s.base + static_cast<std::uint32_t>(s.bytes.size()));
    }
  }
  text_end_ = text_end;
  const std::uint32_t nslots = (text_end_ + 3) / 4;
  dense_.resize(nslots);
  run_len_.assign(nslots, 0);
  for (std::uint32_t slot = 0; slot < nslots; ++slot) decode_slot(slot);
  if (nslots > 0) rebuild_run_lengths(0, nslots - 1);
  pc_ = program.entry;
  regs_[kSp] = mem_bytes - 16;
}

void FastCpu::decode_slot(std::uint32_t slot) {
  try {
    dense_[slot] = densify(decode(read_mem_raw(slot * 4, 4)));
  } catch (const Error&) {
    // Data interleaved with code, or a store that scribbled over an
    // instruction: poison the slot; the error re-raises only if fetched.
    dense_[slot] = DenseInstr{};  // kBadSlotHandler
  }
}

void FastCpu::rebuild_run_lengths(std::uint32_t first_changed,
                                  std::uint32_t last_changed) {
  // run_len_[s] depends only on slot s and run_len_[s+1], so one backward
  // scan from the last changed slot suffices; below the changed range the
  // scan stops as soon as a value reproduces itself.
  const std::uint32_t nslots = static_cast<std::uint32_t>(dense_.size());
  if (nslots == 0) return;
  for (std::uint32_t s = std::min(last_changed, nslots - 1) + 1; s-- > 0;) {
    const DenseInstr& d = dense_[s];
    std::uint32_t v = 0;
    if (d.h != kBadSlotHandler && !is_control(static_cast<Op>(d.h))) {
      v = 1 + (s + 1 < nslots ? run_len_[s + 1] : 0);
    }
    if (s < first_changed && v == run_len_[s]) break;
    run_len_[s] = v;
  }
}

void FastCpu::smc_store(std::uint32_t addr, std::uint32_t bytes) {
  const std::uint32_t first = (addr & ~3u) / 4;
  const std::uint32_t last = std::min(addr + bytes - 1, text_end_ - 1) / 4;
  for (std::uint32_t slot = first; slot <= last; ++slot) decode_slot(slot);
  rebuild_run_lengths(first, last);
}

std::uint32_t FastCpu::reg(std::uint8_t r) const {
  if (r >= kNumRegs) fail("Cpu::reg: register out of range");
  return regs_[r];
}

void FastCpu::set_reg(std::uint8_t r, std::uint32_t value) {
  if (r >= kNumRegs) fail("Cpu::set_reg: register out of range");
  if (r != kZero) regs_[r] = value;
}

std::uint8_t FastCpu::load_byte(std::uint32_t addr) const {
  if (addr >= mem_.size()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "memory access out of range: 0x%08x", addr);
    fail(buf);
  }
  return mem_.data<std::uint8_t>()[addr];
}

std::uint32_t FastCpu::read_mem_raw(std::uint32_t addr, std::uint32_t bytes) const {
  std::uint32_t v = 0;
  for (std::uint32_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint32_t>(load_byte(addr + i)) << (8 * i);
  }
  return v;
}

std::uint32_t FastCpu::load_word(std::uint32_t addr) const {
  return read_mem_raw(addr, 4);
}

void FastCpu::trap(const std::string& what, std::uint32_t pc) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, " (pc=0x%08x)", pc);
  fail("Cpu trap: " + what + buf);
}

RunResult FastCpu::run(std::uint64_t max_instructions) {
  return run_impl<false>(max_instructions, nullptr);
}

RunResult FastCpu::run(std::uint64_t max_instructions, PackedSink& sink) {
  return run_impl<true>(max_instructions, &sink);
}

namespace {

[[noreturn]] void oob_access(std::uint32_t addr) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "memory access out of range: 0x%08x", addr);
  fail(buf);
}

}  // namespace

template <bool kCapture>
RunResult FastCpu::run_impl(std::uint64_t max_instructions, PackedSink* sink) {
  RunResult result;
  std::uint64_t executed = 0;
  std::uint64_t daccesses = 0;
  std::uint32_t pc = pc_;
  std::uint32_t* iw = nullptr;
  std::uint32_t* dw = nullptr;
  if constexpr (kCapture) {
    iw = sink->iw_;
    dw = sink->dw_;
  }
  const std::uint32_t mem_size = static_cast<std::uint32_t>(mem_.size());
  std::uint8_t* const mem = mem_.data<std::uint8_t>();

  if constexpr (!kCapture) {
    (void)sink;
    (void)iw;
    (void)dw;
  }

  // Traps must report the faulting instruction's address, exactly like the
  // reference (which keeps pc_ on the current instruction while it
  // executes).
  auto trap_at = [&](const char* what, std::uint32_t islot) {
    pc_ = islot * 4;
    trap(what, pc_);
  };
  // Like the reference, a failing load leaves pc_ at the faulting
  // instruction (its fail() carries no pc, but the member is inspectable).
  auto oob_at = [&](std::uint32_t addr, std::uint32_t islot) {
    pc_ = islot * 4;
    oob_access(addr);
  };

  while (executed < max_instructions) {
    // --- superblock header: all per-instruction bookkeeping, hoisted -----
    if (pc % 4 != 0) {
      pc_ = pc;
      trap("unaligned instruction fetch", pc);
    }
    if (pc >= text_end_) {
      pc_ = pc;
      trap("instruction fetch outside text segment", pc);
    }
    const std::uint32_t slot = pc / 4;
    std::uint32_t n = run_len_[slot];
    const std::uint64_t left = max_instructions - executed;
    const bool budget_cut = n >= left;
    if (budget_cut) n = static_cast<std::uint32_t>(left);

    if constexpr (kCapture) {
      // One space guarantee per block: n straight-line fetch words plus
      // the terminator's, and at most one data word per instruction.
      if (static_cast<std::size_t>(sink->iw_end_ - iw) < n + 1 ||
          static_cast<std::size_t>(sink->dw_end_ - dw) < n + 1) {
        sink->iw_ = iw;
        sink->dw_ = dw;
        sink->refill(n + 1);
        iw = sink->iw_;
        dw = sink->dw_;
      }
      // Bulk instruction-fetch emission: the block's packed words depend
      // only on its PC range, never on what the instructions compute.
      for (std::uint32_t k = 0; k < n; ++k) iw[k] = (slot + k) >> 2;
      iw += n;
    }

    // --- straight-line run: no PC updates, no fetch checks ---------------
    std::uint32_t i = 0;
    const DenseInstr* const base = dense_.data() + slot;
    if (n != 0) {
#define IN (base[i])
#if defined(STCACHE_HAVE_COMPUTED_GOTO)
      // Label table in Op declaration order (static_assert above); entries
      // for control ops and poisoned slots are unreachable inside a
      // straight-line run by construction of run_len_.
      static const void* const kLabels[kNumHandlers] = {
          &&h_kAdd, &&h_kSub, &&h_kAnd, &&h_kOr, &&h_kXor, &&h_kNor,
          &&h_kSlt, &&h_kSltu, &&h_kSll, &&h_kSrl, &&h_kSra, &&h_kSllv,
          &&h_kSrlv, &&h_kSrav, &&h_kMul, &&h_kMulhu, &&h_kDiv, &&h_kDivu,
          &&h_kRem, &&h_kRemu, &&h_unexpected, &&h_unexpected,
          &&h_unexpected, &&h_kAddi, &&h_kSlti, &&h_kSltiu, &&h_kAndi,
          &&h_kOri, &&h_kXori, &&h_kLui, &&h_unexpected, &&h_unexpected,
          &&h_unexpected, &&h_unexpected, &&h_unexpected, &&h_unexpected,
          &&h_kLb, &&h_kLbu, &&h_kLh, &&h_kLhu, &&h_kLw, &&h_kSb, &&h_kSh,
          &&h_kSw, &&h_unexpected, &&h_unexpected, &&h_unexpected};
#define CASE(name) h_##name
#define NEXT()                \
  do {                        \
    if (++i == n) goto run_done; \
    goto* kLabels[IN.h];      \
  } while (0)
      goto* kLabels[IN.h];
#else
#define CASE(name) case static_cast<std::uint8_t>(Op::name)
#define NEXT() break
      for (;;) {
        switch (IN.h) {
#endif

      CASE(kAdd): regs_[IN.a] = regs_[IN.b] + regs_[IN.c]; regs_[0] = 0; NEXT();
      CASE(kSub): regs_[IN.a] = regs_[IN.b] - regs_[IN.c]; regs_[0] = 0; NEXT();
      CASE(kAnd): regs_[IN.a] = regs_[IN.b] & regs_[IN.c]; regs_[0] = 0; NEXT();
      CASE(kOr): regs_[IN.a] = regs_[IN.b] | regs_[IN.c]; regs_[0] = 0; NEXT();
      CASE(kXor): regs_[IN.a] = regs_[IN.b] ^ regs_[IN.c]; regs_[0] = 0; NEXT();
      CASE(kNor): regs_[IN.a] = ~(regs_[IN.b] | regs_[IN.c]); regs_[0] = 0; NEXT();
      CASE(kSlt):
        regs_[IN.a] = static_cast<std::int32_t>(regs_[IN.b]) <
                              static_cast<std::int32_t>(regs_[IN.c])
                          ? 1
                          : 0;
        regs_[0] = 0;
        NEXT();
      CASE(kSltu):
        regs_[IN.a] = regs_[IN.b] < regs_[IN.c] ? 1 : 0;
        regs_[0] = 0;
        NEXT();
      CASE(kSll):
        regs_[IN.a] = regs_[IN.c] << IN.imm;
        regs_[0] = 0;
        NEXT();
      CASE(kSrl):
        regs_[IN.a] = regs_[IN.c] >> IN.imm;
        regs_[0] = 0;
        NEXT();
      CASE(kSra):
        regs_[IN.a] = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(regs_[IN.c]) >> IN.imm);
        regs_[0] = 0;
        NEXT();
      CASE(kSllv):
        regs_[IN.a] = regs_[IN.c] << (regs_[IN.b] & 31);
        regs_[0] = 0;
        NEXT();
      CASE(kSrlv):
        regs_[IN.a] = regs_[IN.c] >> (regs_[IN.b] & 31);
        regs_[0] = 0;
        NEXT();
      CASE(kSrav):
        regs_[IN.a] = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(regs_[IN.c]) >> (regs_[IN.b] & 31));
        regs_[0] = 0;
        NEXT();
      CASE(kMul):
        regs_[IN.a] = regs_[IN.b] * regs_[IN.c];
        regs_[0] = 0;
        NEXT();
      CASE(kMulhu):
        regs_[IN.a] = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(regs_[IN.b]) * regs_[IN.c]) >> 32);
        regs_[0] = 0;
        NEXT();
      CASE(kDiv):
        regs_[IN.a] = regs_[IN.c] == 0
                          ? 0
                          : static_cast<std::uint32_t>(
                                static_cast<std::int32_t>(regs_[IN.b]) /
                                static_cast<std::int32_t>(regs_[IN.c]));
        regs_[0] = 0;
        NEXT();
      CASE(kDivu):
        regs_[IN.a] = regs_[IN.c] == 0 ? 0 : regs_[IN.b] / regs_[IN.c];
        regs_[0] = 0;
        NEXT();
      CASE(kRem):
        regs_[IN.a] = regs_[IN.c] == 0
                          ? 0
                          : static_cast<std::uint32_t>(
                                static_cast<std::int32_t>(regs_[IN.b]) %
                                static_cast<std::int32_t>(regs_[IN.c]));
        regs_[0] = 0;
        NEXT();
      CASE(kRemu):
        regs_[IN.a] = regs_[IN.c] == 0 ? 0 : regs_[IN.b] % regs_[IN.c];
        regs_[0] = 0;
        NEXT();

      CASE(kAddi):
        regs_[IN.a] = regs_[IN.b] + static_cast<std::uint32_t>(IN.imm);
        regs_[0] = 0;
        NEXT();
      CASE(kSlti):
        regs_[IN.a] = static_cast<std::int32_t>(regs_[IN.b]) < IN.imm ? 1 : 0;
        regs_[0] = 0;
        NEXT();
      CASE(kSltiu):
        regs_[IN.a] = regs_[IN.b] < static_cast<std::uint32_t>(IN.imm) ? 1 : 0;
        regs_[0] = 0;
        NEXT();
      CASE(kAndi):
        regs_[IN.a] = regs_[IN.b] & static_cast<std::uint32_t>(IN.imm);
        regs_[0] = 0;
        NEXT();
      CASE(kOri):
        regs_[IN.a] = regs_[IN.b] | static_cast<std::uint32_t>(IN.imm);
        regs_[0] = 0;
        NEXT();
      CASE(kXori):
        regs_[IN.a] = regs_[IN.b] ^ static_cast<std::uint32_t>(IN.imm);
        regs_[0] = 0;
        NEXT();
      CASE(kLui):
        regs_[IN.a] = static_cast<std::uint32_t>(IN.imm) << 16;
        regs_[0] = 0;
        NEXT();

      CASE(kLb): {
        const std::uint32_t addr = regs_[IN.b] + static_cast<std::uint32_t>(IN.imm);
        if (addr >= mem_size) oob_at(addr, slot + i);
        ++daccesses;
        if constexpr (kCapture) *dw++ = pack_word(addr, false);
        regs_[IN.a] = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(mem[addr])));
        regs_[0] = 0;
        NEXT();
      }
      CASE(kLbu): {
        const std::uint32_t addr = regs_[IN.b] + static_cast<std::uint32_t>(IN.imm);
        if (addr >= mem_size) oob_at(addr, slot + i);
        ++daccesses;
        if constexpr (kCapture) *dw++ = pack_word(addr, false);
        regs_[IN.a] = mem[addr];
        regs_[0] = 0;
        NEXT();
      }
      CASE(kLh): {
        const std::uint32_t addr = regs_[IN.b] + static_cast<std::uint32_t>(IN.imm);
        if (addr % 2 != 0) trap_at("unaligned load", slot + i);
        if (addr >= mem_size) oob_at(addr, slot + i);
        ++daccesses;
        if constexpr (kCapture) *dw++ = pack_word(addr, false);
        const std::uint32_t v = static_cast<std::uint32_t>(mem[addr]) |
                                (static_cast<std::uint32_t>(mem[addr + 1]) << 8);
        regs_[IN.a] = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int16_t>(v)));
        regs_[0] = 0;
        NEXT();
      }
      CASE(kLhu): {
        const std::uint32_t addr = regs_[IN.b] + static_cast<std::uint32_t>(IN.imm);
        if (addr % 2 != 0) trap_at("unaligned load", slot + i);
        if (addr >= mem_size) oob_at(addr, slot + i);
        ++daccesses;
        if constexpr (kCapture) *dw++ = pack_word(addr, false);
        regs_[IN.a] = static_cast<std::uint32_t>(mem[addr]) |
                      (static_cast<std::uint32_t>(mem[addr + 1]) << 8);
        regs_[0] = 0;
        NEXT();
      }
      CASE(kLw): {
        const std::uint32_t addr = regs_[IN.b] + static_cast<std::uint32_t>(IN.imm);
        if (addr % 4 != 0) trap_at("unaligned load", slot + i);
        if (addr >= mem_size) oob_at(addr, slot + i);
        ++daccesses;
        if constexpr (kCapture) *dw++ = pack_word(addr, false);
        regs_[IN.a] = static_cast<std::uint32_t>(mem[addr]) |
                      (static_cast<std::uint32_t>(mem[addr + 1]) << 8) |
                      (static_cast<std::uint32_t>(mem[addr + 2]) << 16) |
                      (static_cast<std::uint32_t>(mem[addr + 3]) << 24);
        regs_[0] = 0;
        NEXT();
      }

      CASE(kSb): {
        const std::uint32_t addr = regs_[IN.b] + static_cast<std::uint32_t>(IN.imm);
        if (addr >= mem_size) trap_at("store out of range", slot + i);
        ++daccesses;
        if constexpr (kCapture) *dw++ = pack_word(addr, true);
        mem[addr] = static_cast<std::uint8_t>(regs_[IN.a]);
        if (addr < text_end_) {
          smc_store(addr, 1);
          ++i;
          goto run_truncated;
        }
        NEXT();
      }
      CASE(kSh): {
        const std::uint32_t addr = regs_[IN.b] + static_cast<std::uint32_t>(IN.imm);
        if (addr % 2 != 0) trap_at("unaligned store", slot + i);
        if (addr > mem_size - 2) trap_at("store out of range", slot + i);
        ++daccesses;
        if constexpr (kCapture) *dw++ = pack_word(addr, true);
        const std::uint32_t v = regs_[IN.a];
        mem[addr] = static_cast<std::uint8_t>(v);
        mem[addr + 1] = static_cast<std::uint8_t>(v >> 8);
        if (addr < text_end_) {
          smc_store(addr, 2);
          ++i;
          goto run_truncated;
        }
        NEXT();
      }
      CASE(kSw): {
        const std::uint32_t addr = regs_[IN.b] + static_cast<std::uint32_t>(IN.imm);
        if (addr % 4 != 0) trap_at("unaligned store", slot + i);
        if (addr > mem_size - 4) trap_at("store out of range", slot + i);
        ++daccesses;
        if constexpr (kCapture) *dw++ = pack_word(addr, true);
        const std::uint32_t v = regs_[IN.a];
        mem[addr] = static_cast<std::uint8_t>(v);
        mem[addr + 1] = static_cast<std::uint8_t>(v >> 8);
        mem[addr + 2] = static_cast<std::uint8_t>(v >> 16);
        mem[addr + 3] = static_cast<std::uint8_t>(v >> 24);
        if (addr < text_end_) {
          smc_store(addr, 4);
          ++i;
          goto run_truncated;
        }
        NEXT();
      }

#if defined(STCACHE_HAVE_COMPUTED_GOTO)
      h_unexpected:
        fail("FastCpu: control instruction inside a straight-line run");
#else
          default:
            fail("FastCpu: control instruction inside a straight-line run");
        }
        if (++i == n) goto run_done;
      }
#endif
#undef CASE
#undef NEXT
#undef IN
    }

  run_done:
    executed += n;
    if (budget_cut) {
      pc = (slot + n) * 4;
      break;
    }

    // --- terminator: the control instruction that ends the block ---------
    {
      const std::uint32_t tslot = slot + n;
      const std::uint32_t tpc = tslot * 4;
      if (tpc >= text_end_) {
        pc_ = tpc;
        trap("instruction fetch outside text segment", tpc);
      }
      const DenseInstr t = dense_[tslot];
      if (t.h == kBadSlotHandler) {
        pc_ = tpc;
        decode(read_mem_raw(tpc, 4));  // re-raises the word's decode error
        trap("undecodable instruction", tpc);
      }
      if constexpr (kCapture) *iw++ = tslot >> 2;
      ++executed;
      switch (static_cast<Op>(t.h)) {
        case Op::kBeq:
          pc = tpc + (regs_[t.b] == regs_[t.c] ? static_cast<std::uint32_t>(t.imm) : 4u);
          break;
        case Op::kBne:
          pc = tpc + (regs_[t.b] != regs_[t.c] ? static_cast<std::uint32_t>(t.imm) : 4u);
          break;
        case Op::kBlt:
          pc = tpc + (static_cast<std::int32_t>(regs_[t.b]) <
                              static_cast<std::int32_t>(regs_[t.c])
                          ? static_cast<std::uint32_t>(t.imm)
                          : 4u);
          break;
        case Op::kBge:
          pc = tpc + (static_cast<std::int32_t>(regs_[t.b]) >=
                              static_cast<std::int32_t>(regs_[t.c])
                          ? static_cast<std::uint32_t>(t.imm)
                          : 4u);
          break;
        case Op::kBltu:
          pc = tpc + (regs_[t.b] < regs_[t.c] ? static_cast<std::uint32_t>(t.imm) : 4u);
          break;
        case Op::kBgeu:
          pc = tpc + (regs_[t.b] >= regs_[t.c] ? static_cast<std::uint32_t>(t.imm) : 4u);
          break;
        case Op::kJ:
          pc = static_cast<std::uint32_t>(t.imm);
          break;
        case Op::kJal:
          regs_[kRa] = tpc + 4;
          pc = static_cast<std::uint32_t>(t.imm);
          break;
        case Op::kJr:
          pc = regs_[t.b];
          break;
        case Op::kJalr: {
          // Read the target before the link write, like the reference
          // (which caches rs before set()), so jalr rd, rd works.
          const std::uint32_t target = regs_[t.b];
          if (t.a != kZero) regs_[t.a] = tpc + 4;
          pc = target;
          break;
        }
        case Op::kHalt:
          result.halted = true;
          pc = tpc;  // the reference leaves pc_ on the halt instruction
          goto halted;
        default:
          fail("FastCpu: non-control terminator");
      }
    }
    continue;

  run_truncated:
    // A store patched the text segment: the rest of this superblock may no
    // longer exist. Roll back the fetch words emitted for the unexecuted
    // tail and re-enter the dispatcher at the next instruction.
    if constexpr (kCapture) iw -= n - i;
    executed += i;
    pc = (slot + i) * 4;
  }

halted:
  pc_ = pc;
  if constexpr (kCapture) {
    sink->iw_ = iw;
    sink->dw_ = dw;
  }
  result.instructions = executed;
  result.cycles = executed + daccesses;
  return result;
}

template RunResult FastCpu::run_impl<false>(std::uint64_t, PackedSink*);
template RunResult FastCpu::run_impl<true>(std::uint64_t, PackedSink*);

}  // namespace stcache
