// stcache_trace — capture and inspect STCT trace files.
//
//   stcache_trace list
//       List the bundled benchmark kernels.
//   stcache_trace capture <workload> <out.stct>
//       Run a kernel on the ISS and save its combined address trace.
//   stcache_trace info <file.stct>
//       Print summary statistics of a trace file.
#include <iostream>
#include <unordered_set>

#include "cache/packed.hpp"
#include "trace/trace_io.hpp"
#include "util/table.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

int cmd_list() {
  Table table({"name", "suite", "description"});
  for (const Workload& w : all_workloads()) {
    table.add_row({w.name, w.suite, w.description});
  }
  table.print(std::cout);
  return 0;
}

int cmd_capture(const std::string& name, const std::string& path) {
  const Workload& w = find_workload(name);
  std::cout << "Running " << w.name << " on the ISS..." << std::endl;
  const Trace trace = capture_trace(w);
  save_trace(path, trace);
  std::cout << "Wrote " << trace.size() << " records to " << path << "\n";
  return 0;
}

int cmd_info(const std::string& path) {
  const PackedSplitTrace trace = load_packed_trace(path);
  // Footprints count distinct 16 B blocks; the combined row is the union.
  std::unordered_set<std::uint32_t> iblocks;
  std::unordered_set<std::uint32_t> dblocks;
  std::uint64_t writes = 0;
  for (const std::uint32_t w : trace.ifetch) {
    iblocks.insert(w & kPackedBlockMask);
  }
  for (const std::uint32_t w : trace.data) {
    writes += (w & kPackedWriteBit) != 0;
    dblocks.insert(w & kPackedBlockMask);
  }
  std::uint64_t footprint = iblocks.size();
  for (const std::uint32_t b : dblocks) footprint += iblocks.count(b) == 0;
  const std::uint64_t reads = trace.data.size() - writes;

  Table table({"stream", "accesses", "reads", "writes",
               "footprint (16B blocks)"});
  auto row = [&](const char* label, std::uint64_t accesses, std::uint64_t r,
                 std::uint64_t w, std::uint64_t blocks) {
    table.add_row({label, std::to_string(accesses), std::to_string(r),
                   std::to_string(w), std::to_string(blocks)});
  };
  row("combined", trace.ifetch.size() + trace.data.size(), reads, writes,
      footprint);
  row("instruction", trace.ifetch.size(), 0, 0, iblocks.size());
  row("data", trace.data.size(), reads, writes, dblocks.size());
  table.print(std::cout);
  return 0;
}

int usage() {
  std::cerr << "usage:\n"
            << "  stcache_trace list\n"
            << "  stcache_trace capture <workload> <out.stct>\n"
            << "  stcache_trace info <file.stct>\n";
  return 2;
}

}  // namespace
}  // namespace stcache

int main(int argc, char** argv) {
  using namespace stcache;
  try {
    if (argc == 2 && std::string(argv[1]) == "list") return cmd_list();
    if (argc == 4 && std::string(argv[1]) == "capture") {
      return cmd_capture(argv[2], argv[3]);
    }
    if (argc == 3 && std::string(argv[1]) == "info") return cmd_info(argv[2]);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return 1;
  }
}
