// Binary trace file format ("STCT"): capture once, tune anywhere.
//
// Layout (little-endian):
//   offset 0   char[4]   magic "STCT"
//   offset 4   u32       format version (currently 2)
//   offset 8   u64       record count
//   offset 16  records   5 bytes each: u8 kind (AccessKind), u32 address
//   footer     u32       CRC-32 (IEEE) of the record payload (v2 only)
//
// The format is deliberately dense (5 B/record): a 2 M-access kernel trace
// is ~10 MB. The one reader validates the magic, the version, and that the
// file is exactly as long as its record count says, rejects malformed
// kinds, and (v2) verifies the footer CRC over the raw record bytes, so a
// truncated, extended, corrupted, or bit-flipped file fails loudly instead
// of producing silently wrong experiments. Version-1 files (no footer) are
// still accepted unchanged.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/crc32.hpp"

namespace stcache {

inline constexpr char kTraceMagic[4] = {'S', 'T', 'C', 'T'};
inline constexpr std::uint32_t kTraceFormatVersion = 2;
// Oldest version the reader still accepts (v1 lacks the CRC footer).
inline constexpr std::uint32_t kTraceMinFormatVersion = 1;

// Writers; save_trace throws stcache::Error on any I/O problem, with the
// path in the message.
void write_trace(std::ostream& os, const Trace& trace);
void save_trace(const std::string& path, const Trace& trace);

// A trace decoded into its two split packed streams (pack_stream format:
// bit 31 = write, bits 30..0 = 16 B block number), bit-identical to
// pack_stream over split_trace of the records written.
struct PackedSplitTrace {
  std::vector<std::uint32_t> ifetch;  // instruction fetches
  std::vector<std::uint32_t> data;    // reads and writes
};

// The STCT reader. The constructor opens the file and validates the
// header and the exact file size, so a truncated or extended file fails
// before any record is decoded. read_chunk then reads the next
// chunk_records records into one reused byte buffer, folds them into the
// CRC, and appends their decode to the caller's streams: a collector keeps
// appending, a streaming consumer clears between chunks and holds at most
// one chunk, so a trace far larger than memory sweeps in a bounded
// footprint. Record kinds are checked chunk by chunk; the v2 footer is
// checked once the last chunk is read, so a corrupt payload fails the pass
// after earlier chunks were delivered and callers must treat the pass as
// all-or-nothing. One pass per reader. Every error is a stcache::Error
// naming the path.
class PackedTraceReader {
 public:
  // 64 Ki records: a 320 KB read buffer, the capture pipeline's chunk.
  static constexpr std::size_t kDefaultChunkRecords = std::size_t{1} << 16;

  explicit PackedTraceReader(const std::string& path,
                             std::size_t chunk_records = kDefaultChunkRecords);

  std::uint64_t record_count() const { return count_; }

  // Appends the next chunk's records to out.ifetch / out.data and returns
  // true; once every record is read, checks the v2 footer and returns
  // false without touching out.
  bool read_chunk(PackedSplitTrace& out);

 private:
  std::string path_;
  std::ifstream is_;
  std::uint64_t count_ = 0;
  std::uint64_t done_ = 0;
  std::uint32_t version_ = 0;
  std::size_t chunk_records_;
  bool finished_ = false;
  Crc32 crc_;
  std::chrono::steady_clock::time_point start_;
  std::vector<unsigned char> raw_;
};

// Collects a whole file through PackedTraceReader.
PackedSplitTrace load_packed_trace(const std::string& path);

}  // namespace stcache
