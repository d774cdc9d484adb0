#include "trace/trace_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "cache/packed.hpp"
#include "util/crc32.hpp"
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

std::uint32_t get_u32(std::istream& is) {
  unsigned char buf[4];
  is.read(reinterpret_cast<char*>(buf), 4);
  if (!is) fail("trace read: unexpected end of stream");
  return static_cast<std::uint32_t>(buf[0]) |
         (static_cast<std::uint32_t>(buf[1]) << 8) |
         (static_cast<std::uint32_t>(buf[2]) << 16) |
         (static_cast<std::uint32_t>(buf[3]) << 24);
}

std::uint64_t get_u64(std::istream& is) {
  const std::uint64_t lo = get_u32(is);
  const std::uint64_t hi = get_u32(is);
  return lo | (hi << 32);
}

// Shared front half of the readers: header validation, record-count sizing
// against the actual stream length, and one bulk read of the payload.
struct RawPayload {
  std::vector<unsigned char> bytes;
  std::uint64_t count = 0;
  std::uint32_t version = 0;
};

RawPayload read_payload(std::istream& is) {
  RawPayload p;
  char magic[4];
  is.read(magic, 4);
  if (!is || std::memcmp(magic, kTraceMagic, 4) != 0) {
    fail("trace read: bad magic (not an STCT trace)");
  }
  p.version = get_u32(is);
  if (p.version < kTraceMinFormatVersion || p.version > kTraceFormatVersion) {
    fail("trace read: unsupported format version " + std::to_string(p.version));
  }
  p.count = get_u64(is);
  // Guard against absurd counts before allocating.
  if (p.count > (1ull << 32)) fail("trace read: implausible record count");
  const std::uint64_t payload_bytes = p.count * kRecordBytes;

  // When the stream is seekable (files, string streams — every production
  // reader), validate the declared record count against the bytes actually
  // present BEFORE allocating payload-sized buffers, so a corrupted header
  // fails with a clean error instead of a multi-gigabyte allocation.
  {
    const std::istream::pos_type pos = is.tellg();
    if (pos != std::istream::pos_type(-1)) {
      is.seekg(0, std::ios::end);
      const std::istream::pos_type end = is.tellg();
      is.seekg(pos);
      if (!is || end == std::istream::pos_type(-1)) {
        fail("trace read: stream failure while sizing the record section");
      }
      const std::uint64_t avail = static_cast<std::uint64_t>(end - pos);
      const std::uint64_t need =
          payload_bytes + (p.version >= 2 ? 4u : 0u);  // records + CRC footer
      if (avail < need) fail("trace read: truncated record section");
    }
  }

  p.bytes.resize(payload_bytes);
  if (payload_bytes > 0) {
    is.read(reinterpret_cast<char*>(p.bytes.data()),
            static_cast<std::streamsize>(payload_bytes));
    if (!is) fail("trace read: truncated record section");
  }
  return p;
}

// Decode `n` raw records into the two split packed streams (pack_stream
// encoding). Shared by the buffered bulk reader and the mapped chunked
// reader so their outputs are bit-identical by construction.
void decode_split(const unsigned char* slice, std::uint64_t n,
                  std::vector<std::uint32_t>& ifetch,
                  std::vector<std::uint32_t>& data) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const unsigned char* p = slice + i * kRecordBytes;
    const std::uint32_t addr = static_cast<std::uint32_t>(p[1]) |
                               (static_cast<std::uint32_t>(p[2]) << 8) |
                               (static_cast<std::uint32_t>(p[3]) << 16) |
                               (static_cast<std::uint32_t>(p[4]) << 24);
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

// v2 footer: CRC-32 over the raw record payload. A mismatch means the
// records were corrupted in storage or transit — every downstream number
// would be quietly wrong, so reject the whole trace.
void check_footer(std::istream& is, std::uint32_t version, const Crc32& crc) {
  if (version < 2) return;
  const std::uint32_t stored = get_u32(is);
  if (stored != crc.value()) {
    fail("trace read: CRC mismatch (stored " + std::to_string(stored) +
         ", computed " + std::to_string(crc.value()) +
         ") — the record payload is corrupted");
  }
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

Trace read_trace(std::istream& is) {
  Trace trace;
  read_trace(is, trace);
  return trace;
}

void read_trace(std::istream& is, Trace& trace) {
  trace.clear();
  const RawPayload payload = read_payload(is);

  // One streaming sweep that interleaves CRC accumulation and decode over
  // 8192-record slices (the slice is re-touched while still cache-hot; the
  // payload itself is walked exactly once).
  trace.reserve(payload.count);
  Crc32 crc;
  constexpr std::uint64_t kSliceRecords = 8192;
  for (std::uint64_t done = 0; done < payload.count; done += kSliceRecords) {
    const std::uint64_t batch = std::min(kSliceRecords, payload.count - done);
    const unsigned char* slice = payload.bytes.data() + done * kRecordBytes;
    crc.update(slice, static_cast<std::size_t>(batch * kRecordBytes));
    for (std::uint64_t i = 0; i < batch; ++i) {
      const unsigned char* p = slice + i * kRecordBytes;
      if (p[0] > static_cast<unsigned char>(AccessKind::kWrite)) {
        fail("trace read: invalid access kind " + std::to_string(p[0]));
      }
      TraceRecord r;
      r.kind = static_cast<AccessKind>(p[0]);
      r.addr = static_cast<std::uint32_t>(p[1]) |
               (static_cast<std::uint32_t>(p[2]) << 8) |
               (static_cast<std::uint32_t>(p[3]) << 16) |
               (static_cast<std::uint32_t>(p[4]) << 24);
      trace.push_back(r);
    }
  }
  check_footer(is, payload.version, crc);
}

PackedSplitTrace read_packed_trace(std::istream& is) {
  const RawPayload payload = read_payload(is);
  PackedSplitTrace out;
  // A trace is mostly instruction fetches (one per instruction vs. one
  // data access per load/store), so the exact split is only known after
  // the walk; reserving the full count for each stream wastes at most one
  // transient allocation and never reallocates mid-decode.
  out.ifetch.reserve(payload.count);
  out.data.reserve(payload.count);
  Crc32 crc;
  constexpr std::uint64_t kSliceRecords = 8192;
  for (std::uint64_t done = 0; done < payload.count; done += kSliceRecords) {
    const std::uint64_t batch = std::min(kSliceRecords, payload.count - done);
    const unsigned char* slice = payload.bytes.data() + done * kRecordBytes;
    crc.update(slice, static_cast<std::size_t>(batch * kRecordBytes));
    decode_split(slice, batch, out.ifetch, out.data);
  }
  check_footer(is, payload.version, crc);
  return out;
}

void save_trace(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) fail("save_trace: cannot open '" + path + "' for writing");
  write_trace(os, trace);
  os.flush();
  if (!os) fail("save_trace: write to '" + path + "' failed");
}

Trace load_trace(const std::string& path) {
  Trace trace;
  load_trace(path, trace);
  return trace;
}

namespace {

// Load-throughput metric on stderr (stdout stays reserved for figure
// data), gated behind util/metrics.hpp so tool stderr stays clean by
// default. Deliberately not prefixed "error:" — the CLI contract counts
// only '^error: ' lines as failures.
void io_metric(const std::string& path, std::size_t records, double seconds) {
  if (!metrics_enabled()) return;
  std::fprintf(stderr, "[trace_io] %s: %zu records in %.3f s (%.3g records/s)\n",
               path.c_str(), records, seconds,
               seconds > 0 ? static_cast<double>(records) / seconds : 0.0);
}

}  // namespace

void load_trace(const std::string& path, Trace& trace) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("load_trace: cannot open '" + path + "'");
  const auto start = std::chrono::steady_clock::now();
  read_trace(is, trace);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  io_metric(path, trace.size(), elapsed.count());
}

PackedSplitTrace load_packed_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("load_packed_trace: cannot open '" + path + "'");
  const auto start = std::chrono::steady_clock::now();
  PackedSplitTrace split = read_packed_trace(is);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  io_metric(path, split.ifetch.size() + split.data.size(), elapsed.count());
  return split;
}

namespace {

// STCACHE_NO_MMAP (anything but "0") forces the pread fallback — the
// tests use it to exercise both paths on one machine.
bool mmap_disabled_by_env() {
  const char* v = std::getenv("STCACHE_NO_MMAP");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

// Full pread with EINTR retry; false on EOF-before-done or I/O error.
bool pread_all(int fd, unsigned char* dst, std::uint64_t bytes,
               std::uint64_t off) {
  while (bytes > 0) {
    const ssize_t r = ::pread(fd, dst, static_cast<std::size_t>(bytes),
                              static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    dst += r;
    off += static_cast<std::uint64_t>(r);
    bytes -= static_cast<std::uint64_t>(r);
  }
  return true;
}

std::uint32_t le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

MappedPackedTrace::MappedPackedTrace(const std::string& path,
                                     std::size_t chunk_records)
    : path_(path), chunk_records_(chunk_records == 0 ? 1 : chunk_records) {
  // The constructor owns fd_ manually until it returns: on any validation
  // failure the destructor will not run, so close before throwing.
  const auto bail = [this](const std::string& msg) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    fail("MappedPackedTrace: " + msg);
  };
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) bail("cannot open '" + path + "'");
  struct stat st{};
  if (::fstat(fd_, &st) != 0) bail("cannot stat '" + path + "'");
  file_bytes_ = static_cast<std::uint64_t>(st.st_size);

  unsigned char header[kTraceHeaderBytes];
  if (file_bytes_ < kTraceHeaderBytes ||
      !pread_all(fd_, header, kTraceHeaderBytes, 0)) {
    bail("'" + path + "': truncated header (not an STCT trace)");
  }
  if (std::memcmp(header, kTraceMagic, 4) != 0) {
    bail("'" + path + "': bad magic (not an STCT trace)");
  }
  version_ = le32(header + 4);
  if (version_ < kTraceMinFormatVersion || version_ > kTraceFormatVersion) {
    bail("'" + path + "': unsupported format version " +
         std::to_string(version_));
  }
  count_ = static_cast<std::uint64_t>(le32(header + 8)) |
           (static_cast<std::uint64_t>(le32(header + 12)) << 32);
  if (count_ > (1ull << 32)) bail("'" + path + "': implausible record count");
  const std::uint64_t need = kTraceHeaderBytes + count_ * kRecordBytes +
                             (version_ >= 2 ? 4u : 0u);
  if (file_bytes_ < need) bail("'" + path + "': truncated record section");

  if (!mmap_disabled_by_env()) {
    void* m = ::mmap(nullptr, static_cast<std::size_t>(file_bytes_), PROT_READ,
                     MAP_PRIVATE, fd_, 0);
    if (m != MAP_FAILED) {
      map_ = static_cast<unsigned char*>(m);
      // Advisory only: a kernel that ignores it just readaheads less well.
      ::madvise(map_, static_cast<std::size_t>(file_bytes_), MADV_SEQUENTIAL);
    }
  }
  // map_ == nullptr here means the pread fallback; for_each_chunk sizes
  // read_buf_ on first use.
}

MappedPackedTrace::~MappedPackedTrace() {
  if (map_ != nullptr) ::munmap(map_, static_cast<std::size_t>(file_bytes_));
  if (fd_ >= 0) ::close(fd_);
}

void MappedPackedTrace::for_each_chunk(
    const std::function<void(const Chunk&)>& fn) {
  const auto start = std::chrono::steady_clock::now();
  Crc32 crc;
  const std::uint64_t page =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  std::uint64_t released = 0;  // file offset below which pages are dropped
  std::uint64_t done = 0;
  while (done < count_) {
    const std::uint64_t batch =
        std::min<std::uint64_t>(chunk_records_, count_ - done);
    const std::uint64_t off = kTraceHeaderBytes + done * kRecordBytes;
    const std::uint64_t bytes = batch * kRecordBytes;
    const unsigned char* slice;
    if (map_ != nullptr) {
      slice = map_ + off;
    } else {
      read_buf_.resize(static_cast<std::size_t>(bytes));
      if (!pread_all(fd_, read_buf_.data(), bytes, off)) {
        fail("MappedPackedTrace: '" + path_ + "': read failed mid-payload");
      }
      slice = read_buf_.data();
    }
    crc.update(slice, static_cast<std::size_t>(bytes));
    ifetch_buf_.clear();
    data_buf_.clear();
    decode_split(slice, batch, ifetch_buf_, data_buf_);
    Chunk chunk;
    chunk.ifetch = ifetch_buf_;
    chunk.data = data_buf_;
    chunk.first_record = done;
    fn(chunk);
    done += batch;
    if (map_ != nullptr && page > 0) {
      // Release whole pages the pass has fully consumed; peak RSS stays
      // ~one chunk regardless of trace size.
      const std::uint64_t consumed = (off + bytes) / page * page;
      if (consumed > released) {
        ::madvise(map_ + released, static_cast<std::size_t>(consumed - released),
                  MADV_DONTNEED);
        released = consumed;
      }
    }
  }
  if (version_ >= 2) {
    unsigned char footer[4];
    const std::uint64_t foff = kTraceHeaderBytes + count_ * kRecordBytes;
    if (map_ != nullptr) {
      std::memcpy(footer, map_ + foff, 4);
    } else if (!pread_all(fd_, footer, 4, foff)) {
      fail("MappedPackedTrace: '" + path_ + "': truncated CRC footer");
    }
    const std::uint32_t stored = le32(footer);
    if (stored != crc.value()) {
      fail("MappedPackedTrace: '" + path_ + "': CRC mismatch (stored " +
           std::to_string(stored) + ", computed " +
           std::to_string(crc.value()) + ") — the record payload is corrupted");
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  io_metric(path_ + (map_ != nullptr ? " (mmap)" : " (pread)"),
            static_cast<std::size_t>(count_), elapsed.count());
}

}  // namespace stcache
