// stcache_asm — assemble, inspect, and run stcache assembly.
//
//   stcache_asm <file.s> [--run [max-instructions]]
//       Assemble a source file, print a disassembly listing, and (with
//       --run) execute it on the ISS and dump the register file at halt.
//   stcache_asm --workload <name>
//       Print the (possibly generated) assembly source of a bundled
//       benchmark kernel.
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "isa/assembler.hpp"
#include "isa/isa.hpp"
#include "sim/cpu.hpp"
#include "sim/memory_system.hpp"
#include "util/parse.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

void print_listing(const Program& program) {
  for (const Segment& seg : program.segments) {
    const bool is_text = seg.base < kDefaultDataBase;
    std::printf("\nsegment @ 0x%08x (%zu bytes, %s)\n", seg.base,
                seg.bytes.size(), is_text ? "text" : "data");
    if (!is_text) continue;
    for (std::size_t off = 0; off + 4 <= seg.bytes.size(); off += 4) {
      const std::uint32_t word =
          static_cast<std::uint32_t>(seg.bytes[off]) |
          (static_cast<std::uint32_t>(seg.bytes[off + 1]) << 8) |
          (static_cast<std::uint32_t>(seg.bytes[off + 2]) << 16) |
          (static_cast<std::uint32_t>(seg.bytes[off + 3]) << 24);
      const std::uint32_t addr = seg.base + static_cast<std::uint32_t>(off);
      // Label?
      for (const auto& [name, value] : program.symbols) {
        if (value == addr) std::printf("%s:\n", name.c_str());
      }
      std::string text;
      try {
        text = disassemble(word, addr);
      } catch (const std::exception&) {
        text = ".word 0x" + [&] {
          char buf[16];
          std::snprintf(buf, sizeof buf, "%08x", word);
          return std::string(buf);
        }();
      }
      std::printf("  %08x:  %08x  %s\n", addr, word, text.c_str());
    }
  }
}

int run_program(const Program& program, std::uint64_t budget) {
  PerfectMemory mem;
  Cpu cpu(program, mem, 1u << 22);
  const RunResult r = cpu.run(budget);
  std::printf("\n%s after %llu instructions (%llu cycles)\n",
              r.halted ? "halted" : "BUDGET EXHAUSTED",
              static_cast<unsigned long long>(r.instructions),
              static_cast<unsigned long long>(r.cycles));
  for (std::uint8_t reg = 0; reg < kNumRegs; ++reg) {
    std::printf("  %-4s = 0x%08x%s", reg_name(reg).c_str(), cpu.reg(reg),
                reg % 4 == 3 ? "\n" : "");
  }
  return r.halted ? 0 : 1;
}

int usage() {
  std::cerr << "usage:\n"
            << "  stcache_asm <file.s> [--run [max-instructions]]\n"
            << "  stcache_asm --workload <name>\n";
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::string(argv[1]) == "--workload") {
    if (argc != 3) return usage();
    std::cout << find_workload(argv[2]).source;
    return 0;
  }

  // Anything but `--run [N]` after the file, or a bad budget, is a usage
  // error, reported before any assembly work.
  const bool run_it = argc >= 3;
  if (argc > 4 || (run_it && std::string(argv[2]) != "--run")) return usage();
  std::uint64_t budget = 100'000'000ull;
  if (argc == 4 &&
      !parse_flag_u64("--run", argv[3], 1, ~std::uint64_t{0}, budget)) {
    return 2;
  }

  std::ifstream in(argv[1]);
  if (!in) {
    std::cerr << "error: cannot open " << argv[1] << "\n";
    return 1;
  }
  std::stringstream source;
  source << in.rdbuf();
  const Program program = assemble(source.str(), argv[1]);
  std::printf("entry point: 0x%08x, %zu symbol(s)\n", program.entry,
              program.symbols.size());
  print_listing(program);

  return run_it ? run_program(program, budget) : 0;
}

}  // namespace
}  // namespace stcache

int main(int argc, char** argv) {
  try {
    return stcache::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return 1;
  }
}
