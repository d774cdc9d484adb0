#include "trace/trace_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <vector>

#include "cache/packed.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace stcache {

namespace {

constexpr std::size_t kRecordBytes = 5;
constexpr std::size_t kTraceHeaderBytes = 16;  // magic + version + count

void put_u32(std::ostream& os, std::uint32_t v) {
  char buf[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                 static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  os.write(buf, 4);
}

void put_u64(std::ostream& os, std::uint64_t v) {
  put_u32(os, static_cast<std::uint32_t>(v));
  put_u32(os, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Decode `n` raw records into the two split packed streams (pack_stream
// encoding).
void decode_split(const unsigned char* slice, std::uint64_t n,
                  std::vector<std::uint32_t>& ifetch,
                  std::vector<std::uint32_t>& data) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const unsigned char* p = slice + i * kRecordBytes;
    const std::uint32_t addr = le32(p + 1);
    switch (p[0]) {
      case static_cast<unsigned char>(AccessKind::kIFetch):
        ifetch.push_back(pack_word(addr, false));
        break;
      case static_cast<unsigned char>(AccessKind::kRead):
        data.push_back(pack_word(addr, false));
        break;
      case static_cast<unsigned char>(AccessKind::kWrite):
        data.push_back(pack_word(addr, true));
        break;
      default:
        fail("trace read: invalid access kind " + std::to_string(p[0]));
    }
  }
}

// Load-throughput metric on stderr (stdout stays reserved for figure
// data), gated behind util/metrics.hpp so tool stderr stays clean by
// default. Deliberately not prefixed "error:" — the CLI contract counts
// only '^error: ' lines as failures.
void io_metric(const std::string& path, std::uint64_t records,
               double seconds) {
  if (!metrics_enabled()) return;
  std::fprintf(stderr,
               "[trace_io] %s: %llu records in %.3f s (%.3g records/s)\n",
               path.c_str(), static_cast<unsigned long long>(records), seconds,
               seconds > 0 ? static_cast<double>(records) / seconds : 0.0);
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  os.write(kTraceMagic, 4);
  put_u32(os, kTraceFormatVersion);
  put_u64(os, trace.size());
  // Buffered record emission to keep this fast for multi-million-record
  // traces; the footer CRC accumulates over the same buffers, so the
  // payload is still walked only once.
  Crc32 crc;
  std::vector<char> buffer;
  buffer.reserve(1 << 16);
  for (const TraceRecord& r : trace) {
    buffer.push_back(static_cast<char>(r.kind));
    buffer.push_back(static_cast<char>(r.addr));
    buffer.push_back(static_cast<char>(r.addr >> 8));
    buffer.push_back(static_cast<char>(r.addr >> 16));
    buffer.push_back(static_cast<char>(r.addr >> 24));
    if (buffer.size() + kRecordBytes > buffer.capacity()) {
      crc.update(buffer.data(), buffer.size());
      os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  crc.update(buffer.data(), buffer.size());
  os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  put_u32(os, crc.value());
  if (!os) fail("trace write: stream failure");
}

void save_trace(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) fail("save_trace: cannot open '" + path + "' for writing");
  write_trace(os, trace);
  os.flush();
  if (!os) fail("save_trace: write to '" + path + "' failed");
}

PackedTraceReader::PackedTraceReader(const std::string& path,
                                     std::size_t chunk_records)
    : path_(path),
      is_(path, std::ios::binary),
      chunk_records_(std::max<std::size_t>(chunk_records, 1)),
      start_(std::chrono::steady_clock::now()) {
  const auto bad = [&](const std::string& what) {
    fail("trace read: '" + path + "': " + what);
  };
  if (!is_) bad("cannot open");
  is_.seekg(0, std::ios::end);
  const std::streamoff size = is_.tellg();
  // The size check below needs the length up front, which a pipe lacks.
  if (size < 0) bad("cannot size the file (a pipe?)");
  is_.seekg(0);
  unsigned char header[kTraceHeaderBytes];
  if (size < static_cast<std::streamoff>(kTraceHeaderBytes) ||
      !is_.read(reinterpret_cast<char*>(header), kTraceHeaderBytes)) {
    bad("truncated header (not an STCT trace)");
  }
  if (std::memcmp(header, kTraceMagic, 4) != 0) {
    bad("bad magic (not an STCT trace)");
  }
  version_ = le32(header + 4);
  if (version_ < kTraceMinFormatVersion || version_ > kTraceFormatVersion) {
    bad("unsupported format version " + std::to_string(version_));
  }
  count_ = le32(header + 8) |
           (static_cast<std::uint64_t>(le32(header + 12)) << 32);
  // Guard against absurd counts before sizing anything by them.
  if (count_ > (1ull << 32)) bad("implausible record count");
  // The header fixes the file's length exactly: a shorter file is
  // truncated, a longer one carries bytes no record accounts for (two
  // traces concatenated, an append).
  const std::uint64_t want = kTraceHeaderBytes + count_ * kRecordBytes +
                             (version_ >= 2 ? 4u : 0u);
  const auto have = static_cast<std::uint64_t>(size);
  if (have != want) {
    bad(std::to_string(have) + " bytes, but a v" + std::to_string(version_) +
        " trace of " + std::to_string(count_) + " records is " +
        std::to_string(want) +
        (have < want ? " bytes (truncated)" : " bytes (trailing bytes)"));
  }
}

bool PackedTraceReader::read_chunk(PackedSplitTrace& out) {
  if (done_ < count_) {
    const std::uint64_t batch =
        std::min<std::uint64_t>(chunk_records_, count_ - done_);
    const std::size_t bytes = static_cast<std::size_t>(batch * kRecordBytes);
    raw_.resize(bytes);
    if (!is_.read(reinterpret_cast<char*>(raw_.data()),
                  static_cast<std::streamsize>(bytes))) {
      fail("trace read: '" + path_ + "': read failed mid-payload");
    }
    crc_.update(raw_.data(), bytes);
    decode_split(raw_.data(), batch, out.ifetch, out.data);
    done_ += batch;
    return true;
  }
  if (finished_) return false;
  // v2 footer: CRC-32 over the raw record payload. A mismatch means the
  // records were corrupted in storage or transit — every downstream number
  // would be quietly wrong, so reject the whole trace.
  if (version_ >= 2) {
    unsigned char footer[4];
    if (!is_.read(reinterpret_cast<char*>(footer), 4)) {
      fail("trace read: '" + path_ + "': read failed at the CRC footer");
    }
    const std::uint32_t stored = le32(footer);
    if (stored != crc_.value()) {
      fail("trace read: '" + path_ + "': CRC mismatch (stored " +
           std::to_string(stored) + ", computed " +
           std::to_string(crc_.value()) +
           ") — the record payload is corrupted");
    }
  }
  finished_ = true;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  io_metric(path_, count_, elapsed.count());
  return false;
}

PackedSplitTrace load_packed_trace(const std::string& path) {
  PackedTraceReader reader(path);
  PackedSplitTrace out;
  // A trace is mostly instruction fetches (one per instruction vs. one
  // data access per load/store), so the exact split is only known after
  // the walk; reserving the full count for each stream wastes at most one
  // transient allocation and never reallocates mid-decode.
  out.ifetch.reserve(reader.record_count());
  out.data.reserve(reader.record_count());
  while (reader.read_chunk(out)) {
  }
  return out;
}

}  // namespace stcache
