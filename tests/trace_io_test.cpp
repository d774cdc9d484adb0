// Tests of the STCT trace file format and its one reader
// (trace/trace_io.hpp: save_trace, PackedTraceReader, load_packed_trace).
//
// Every decode is checked against pack_stream(split_trace(trace)) of the
// records written. The suites split by subject: TraceIo covers the format
// and every rejection (header, kind, size, CRC; v1 and v2, down to every
// single-byte mutant of a small file), PackedTraceIo the collector on a
// captured workload, and MmapTrace, a name kept from the reader's mmap
// days, the chunked pass itself: chunk-size invariance, errors raised
// mid-pass, and a 100-million-record pass whose peak RSS is bounded by
// the chunk working set, not the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "trace/replay.hpp"
#include "trace/trace_io.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Trace random_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Trace t;
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.addr = rng.next_u32();
    r.kind = static_cast<AccessKind>(rng.next_below(3));
    t.push_back(r);
  }
  return t;
}

// What every reader output must equal.
PackedSplitTrace packed(const Trace& t) {
  const SplitTrace split = split_trace(t);
  return {pack_stream(split.ifetch), pack_stream(split.data)};
}

void expect_packed_eq(const PackedSplitTrace& got, const Trace& t) {
  const PackedSplitTrace want = packed(t);
  EXPECT_EQ(got.ifetch, want.ifetch);
  EXPECT_EQ(got.data, want.data);
}

// RAII scratch file removed on scope exit even when a test fails.
struct ScratchFile {
  explicit ScratchFile(const std::string& name) : path(temp_path(name)) {}
  ~ScratchFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The v1 form of a v2 file: no CRC footer, version field 1.
std::string as_version1(std::string bytes) {
  bytes.resize(bytes.size() - 4);
  bytes[4] = 1;
  return bytes;
}

// Drain a reader at the given chunk size, checking the chunk boundaries.
PackedSplitTrace read_chunked(const std::string& path, std::size_t chunk) {
  PackedTraceReader reader(path, chunk);
  PackedSplitTrace out;
  std::uint64_t records = 0;
  while (reader.read_chunk(out)) {
    const std::uint64_t now = out.ifetch.size() + out.data.size();
    EXPECT_GT(now, records);
    EXPECT_LE(now - records, chunk);
    records = now;
  }
  EXPECT_EQ(records, reader.record_count());
  EXPECT_FALSE(reader.read_chunk(out));  // the pass stays finished
  return out;
}

// Write `bytes` and expect the reader to reject them, at construction or
// during the pass.
void expect_rejected(const std::string& path, const std::string& bytes,
                     const std::string& what) {
  spit(path, bytes);
  EXPECT_THROW(load_packed_trace(path), Error) << what;
}

// --- TraceIo: format and validation -----------------------------------------

TEST(TraceIo, RoundTripEmpty) {
  ScratchFile f("stc_io_empty.stct");
  save_trace(f.path, {});
  const PackedSplitTrace got = load_packed_trace(f.path);
  EXPECT_TRUE(got.ifetch.empty());
  EXPECT_TRUE(got.data.empty());
}

TEST(TraceIo, RoundTripSmall) {
  const Trace t = {{0x1234, AccessKind::kIFetch},
                   {0xDEADBEEF, AccessKind::kWrite},
                   {0x0, AccessKind::kRead}};
  ScratchFile f("stc_io_small.stct");
  save_trace(f.path, t);
  const PackedSplitTrace got = load_packed_trace(f.path);
  EXPECT_EQ(got.ifetch, std::vector<std::uint32_t>{0x123});
  EXPECT_EQ(got.data, (std::vector<std::uint32_t>{0x8DEADBEE, 0}));
  expect_packed_eq(got, t);
}

TEST(TraceIo, RoundTripLargeRandom) {
  const Trace t = random_trace(42, 100'000);
  ScratchFile f("stc_io_large.stct");
  save_trace(f.path, t);
  expect_packed_eq(load_packed_trace(f.path), t);
}

TEST(TraceIo, FormatIsCompact) {
  ScratchFile f("stc_io_compact.stct");
  save_trace(f.path, random_trace(1, 1000));
  // header + 5 B/record + u32 CRC footer
  EXPECT_EQ(std::filesystem::file_size(f.path), 16u + 5u * 1000u + 4u);
}

TEST(TraceIo, RejectsBadMagic) {
  ScratchFile f("stc_io_magic.stct");
  expect_rejected(f.path, "NOPE0000000000000000", "bad magic");
}

TEST(TraceIo, RejectsWrongVersion) {
  ScratchFile f("stc_io_version.stct");
  save_trace(f.path, {{1, AccessKind::kRead}});
  std::string bytes = slurp(f.path);
  for (const char v : {char{0}, char{3}, char{99}}) {
    bytes[4] = v;
    expect_rejected(f.path, bytes, "version " + std::to_string(v));
  }
}

TEST(TraceIo, RejectsTruncatedFile) {
  ScratchFile f("stc_io_trunc.stct");
  save_trace(f.path, random_trace(2, 100));
  const std::string bytes = slurp(f.path);
  expect_rejected(f.path, bytes.substr(0, bytes.size() - 3), "v2 - 3 bytes");
  const std::string v1 = as_version1(bytes);
  expect_rejected(f.path, v1.substr(0, v1.size() - 3), "v1 - 3 bytes");
}

TEST(TraceIo, RejectsInvalidKind) {
  ScratchFile f("stc_io_kind.stct");
  save_trace(f.path, {{1, AccessKind::kRead}});
  std::string bytes = slurp(f.path);
  bytes[16] = 7;  // invalid AccessKind in the first record
  expect_rejected(f.path, bytes, "v2 kind 7");
  expect_rejected(f.path, as_version1(bytes), "v1 kind 7");
}

// Strip the v2 CRC footer and stamp the version field back to 1: the result
// is byte-for-byte what the v1 writer produced, and must still load.
TEST(TraceIo, AcceptsVersion1WithoutFooter) {
  const Trace t = random_trace(7, 500);
  ScratchFile f("stc_io_v1.stct");
  save_trace(f.path, t);
  spit(f.path, as_version1(slurp(f.path)));
  expect_packed_eq(load_packed_trace(f.path), t);
}

// An address bit-flip leaves every kind byte valid, so only the CRC footer
// can catch it.
TEST(TraceIo, DetectsFlippedAddressBit) {
  ScratchFile f("stc_io_flip.stct");
  save_trace(f.path, random_trace(8, 200));
  std::string bytes = slurp(f.path);
  bytes[16 + 5 * 100 + 2] ^= 0x10;  // record 100, middle address byte
  spit(f.path, bytes);
  try {
    load_packed_trace(f.path);
    FAIL() << "corrupted payload was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(TraceIo, DetectsCorruptedFooter) {
  ScratchFile f("stc_io_footer.stct");
  save_trace(f.path, random_trace(9, 50));
  std::string bytes = slurp(f.path);
  bytes.back() ^= 0x01;  // flip a bit in the stored CRC itself
  expect_rejected(f.path, bytes, "footer bit");
  // An empty trace still carries (and checks) the CRC of zero bytes.
  save_trace(f.path, {});
  bytes = slurp(f.path);
  bytes.back() ^= 0x01;
  expect_rejected(f.path, bytes, "empty trace footer bit");
}

TEST(TraceIo, RejectsMissingFooter) {
  ScratchFile f("stc_io_nofooter.stct");
  save_trace(f.path, random_trace(10, 50));
  std::string bytes = slurp(f.path);
  bytes.resize(bytes.size() - 4);  // v2 header but no footer
  expect_rejected(f.path, bytes, "v2 without footer");
}

// Bytes no record accounts for are an error, not ignored: the header fixes
// the file size exactly, for v1 and v2 alike.
TEST(TraceIo, RejectsBytesPastTheEnd) {
  ScratchFile f("stc_io_append.stct");
  save_trace(f.path, random_trace(11, 300));
  const std::string v2 = slurp(f.path);
  const std::string v1 = as_version1(v2);
  for (const std::string& bytes : {v2, v1}) {
    const std::string form = bytes.size() == v2.size() ? "v2" : "v1";
    expect_rejected(f.path, bytes + '\0', form + " + 1 byte");
    expect_rejected(f.path, bytes + std::string(7, 'Z'), form + " + 7 bytes");
    expect_rejected(f.path, bytes + bytes, form + " twice");
  }
  save_trace(f.path, {});
  expect_rejected(f.path, slurp(f.path) + '\0', "empty v2 + 1 byte");
}

// A 24-record file (140 bytes as v2): every single-byte mutant, every
// truncation and every append must be rejected. The CRC-32 footer catches
// any corrupted payload byte (a single-byte error is a burst of at most 8
// bits), and the header fields are caught by their own checks.
TEST(TraceIo, EverySingleByteMutantTruncationAndAppendIsRejected) {
  const Trace t = random_trace(12, 24);
  ScratchFile f("stc_io_mutants.stct");
  save_trace(f.path, t);
  const std::string v2 = slurp(f.path);
  ASSERT_EQ(v2.size(), 140u);
  expect_packed_eq(load_packed_trace(f.path), t);

  int mutants = 0;
  for (std::size_t i = 0; i < v2.size(); ++i) {
    for (const unsigned char x : {0x01, 0x80, 0xFF}) {
      std::string m = v2;
      m[i] = static_cast<char>(m[i] ^ x);
      expect_rejected(f.path, m,
                      "byte " + std::to_string(i) + " ^ " + std::to_string(x));
      ++mutants;
    }
  }
  EXPECT_EQ(mutants, 420);
  for (std::size_t len = 0; len < v2.size(); ++len) {
    expect_rejected(f.path, v2.substr(0, len),
                    "truncated to " + std::to_string(len));
  }
  expect_rejected(f.path, v2 + 'x', "+ 1 byte");
  expect_rejected(f.path, v2 + "1234567", "+ 7 bytes");
  expect_rejected(f.path, v2 + v2, "twice");
}

// v1 has no CRC: a payload mutant may decode, but then it must decode
// exactly the header's record count; everything else, every truncation
// and every append, throws.
TEST(TraceIo, Version1MutantsThrowOrDecodeTheHeaderCount) {
  ScratchFile f("stc_io_v1_mutants.stct");
  save_trace(f.path, random_trace(12, 24));
  const std::string v1 = as_version1(slurp(f.path));
  ASSERT_EQ(v1.size(), 136u);
  int accepted = 0;
  for (std::size_t i = 0; i < v1.size(); ++i) {
    for (const unsigned char x : {0x01, 0x80, 0xFF}) {
      std::string m = v1;
      m[i] = static_cast<char>(m[i] ^ x);
      spit(f.path, m);
      try {
        PackedTraceReader reader(f.path);
        PackedSplitTrace got;
        while (reader.read_chunk(got)) {
        }
        EXPECT_EQ(reader.record_count(), 24u) << "byte " << i;
        EXPECT_EQ(got.ifetch.size() + got.data.size(), 24u) << "byte " << i;
        ++accepted;
      } catch (const Error&) {
      }
    }
  }
  EXPECT_GT(accepted, 0);  // address bytes carry no check in v1
  for (std::size_t len = 0; len < v1.size(); ++len) {
    expect_rejected(f.path, v1.substr(0, len),
                    "v1 truncated to " + std::to_string(len));
  }
  expect_rejected(f.path, v1 + 'x', "v1 + 1 byte");
  expect_rejected(f.path, v1 + "1234567", "v1 + 7 bytes");
  expect_rejected(f.path, v1 + v1, "v1 twice");
}

// The streamed pass and the collector agree on a file round trip.
TEST(TraceIo, FileRoundTrip) {
  const Trace t = random_trace(3, 5000);
  ScratchFile f("stc_io_file.stct");
  save_trace(f.path, t);
  const std::size_t chunk = PackedTraceReader::kDefaultChunkRecords;
  expect_packed_eq(read_chunked(f.path, chunk), t);
  expect_packed_eq(load_packed_trace(f.path), t);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_packed_trace("/nonexistent/dir/trace.stct"), Error);
}

// --- PackedTraceIo: the collector on a captured workload --------------------

TEST(PackedTraceIo, ReadPackedMatchesReadPlusSplitPlusPack) {
  const Trace trace = capture_trace(find_workload("bcnt"));
  ScratchFile f("stc_io_bcnt.stct");
  save_trace(f.path, trace);
  expect_packed_eq(load_packed_trace(f.path), trace);
}

TEST(PackedTraceIo, RejectsCorruptedPayload) {
  ScratchFile f("stc_io_bcnt_bad.stct");
  save_trace(f.path, capture_trace(find_workload("bcnt")));
  std::string bytes = slurp(f.path);
  bytes[bytes.size() / 2] ^= 0x40;  // flip a payload bit; CRC must catch it
  expect_rejected(f.path, bytes, "payload bit");
}

TEST(PackedTraceIo, LoadPackedTraceErrorsNameThePath) {
  try {
    load_packed_trace("/nonexistent/trace.stct");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/trace.stct"),
              std::string::npos);
  }
}

// --- MmapTrace: the chunked pass --------------------------------------------

// Streaming chunk by chunk (clearing between chunks, as stcache_tune does)
// concatenates to exactly what the collector returns.
TEST(MmapTrace, MatchesBufferedReader) {
  const Trace t = random_trace(21, 50'000);
  ScratchFile f("stc_chunk_eq.stct");
  save_trace(f.path, t);
  PackedTraceReader reader(f.path, 4096);
  EXPECT_EQ(reader.record_count(), 50'000u);
  PackedSplitTrace streamed;
  PackedSplitTrace chunk;
  while (reader.read_chunk(chunk)) {
    EXPECT_LE(chunk.ifetch.size() + chunk.data.size(), 4096u);
    streamed.ifetch.insert(streamed.ifetch.end(), chunk.ifetch.begin(),
                           chunk.ifetch.end());
    streamed.data.insert(streamed.data.end(), chunk.data.begin(),
                         chunk.data.end());
    chunk.ifetch.clear();
    chunk.data.clear();
  }
  expect_packed_eq(streamed, t);
  const PackedSplitTrace collected = load_packed_trace(f.path);
  EXPECT_EQ(streamed.ifetch, collected.ifetch);
  EXPECT_EQ(streamed.data, collected.data);
}

// Chunk boundaries must never change the decoded streams: 1-record chunks,
// a coprime size, a power of two, the default, and a chunk larger than the
// trace all agree.
TEST(MmapTrace, ChunkSizeInvariance) {
  const Trace t = random_trace(23, 100'003);  // prime count
  ScratchFile f("stc_chunk_sizes.stct");
  save_trace(f.path, t);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{512},
        PackedTraceReader::kDefaultChunkRecords, std::size_t{1} << 20}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    expect_packed_eq(read_chunked(f.path, chunk), t);
  }
  spit(f.path, as_version1(slurp(f.path)));
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
    SCOPED_TRACE("v1 chunk=" + std::to_string(chunk));
    expect_packed_eq(read_chunked(f.path, chunk), t);
  }
}

TEST(MmapTrace, ZeroRecordTrace) {
  ScratchFile f("stc_chunk_empty.stct");
  save_trace(f.path, {});
  PackedTraceReader reader(f.path);
  EXPECT_EQ(reader.record_count(), 0u);
  PackedSplitTrace out;
  EXPECT_FALSE(reader.read_chunk(out));  // no chunk, but the CRC verified
  EXPECT_TRUE(out.ifetch.empty() && out.data.empty());
  spit(f.path, as_version1(slurp(f.path)));
  PackedTraceReader v1(f.path);
  EXPECT_EQ(v1.record_count(), 0u);
  EXPECT_FALSE(v1.read_chunk(out));
}

TEST(MmapTrace, MissingFileThrows) {
  try {
    PackedTraceReader reader("/nonexistent/dir/trace.stct");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/trace.stct"),
              std::string::npos);
  }
}

TEST(MmapTrace, TruncatedFileThrowsBeforeAnyDecode) {
  ScratchFile f("stc_chunk_trunc.stct");
  save_trace(f.path, random_trace(25, 1000));
  const std::string bytes = slurp(f.path);
  // Drop the footer plus part of the last record: the up-front size check
  // must reject it — the constructor throws, no chunk is ever delivered.
  spit(f.path, bytes.substr(0, bytes.size() - 7));
  EXPECT_THROW(PackedTraceReader{f.path}, Error);
  // Header alone (claims 1000 records, has none).
  spit(f.path, bytes.substr(0, 16));
  EXPECT_THROW(PackedTraceReader{f.path}, Error);
  // Not even a full header.
  spit(f.path, bytes.substr(0, 9));
  EXPECT_THROW(PackedTraceReader{f.path}, Error);
  // An empty file.
  spit(f.path, "");
  EXPECT_THROW(PackedTraceReader{f.path}, Error);
  // Trailing bytes fail up front too.
  spit(f.path, bytes + bytes);
  EXPECT_THROW(PackedTraceReader{f.path}, Error);
}

TEST(MmapTrace, BadMagicAndVersionThrow) {
  ScratchFile f("stc_chunk_magic.stct");
  save_trace(f.path, random_trace(26, 10));
  const std::string bytes = slurp(f.path);
  std::string bad = bytes;
  bad[0] = 'X';
  spit(f.path, bad);
  EXPECT_THROW(PackedTraceReader{f.path}, Error);
  bad = bytes;
  bad[4] = 99;  // unsupported version
  spit(f.path, bad);
  EXPECT_THROW(PackedTraceReader{f.path}, Error);
  bad = bytes;
  bad[15] = 1;  // record count above 2^32
  spit(f.path, bad);
  EXPECT_THROW(PackedTraceReader{f.path}, Error);
}

// An address bit-flip leaves every kind byte valid: only the CRC catches
// it, at the END of the pass — chunks before the corruption may already
// have been delivered, which is why callers must treat a pass as
// all-or-nothing.
TEST(MmapTrace, CorruptPayloadFailsTheCrcPass) {
  ScratchFile f("stc_chunk_crc.stct");
  save_trace(f.path, random_trace(27, 5000));
  std::string bytes = slurp(f.path);
  bytes[16 + 5 * 2500 + 3] = static_cast<char>(bytes[16 + 5 * 2500 + 3] ^ 0x40);
  spit(f.path, bytes);
  PackedTraceReader reader(f.path, 512);  // corruption lands mid-pass
  PackedSplitTrace out;
  std::uint64_t chunks = 0;
  try {
    while (reader.read_chunk(out)) ++chunks;
    FAIL() << "corrupted payload passed the CRC check";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
    EXPECT_EQ(chunks, 10u);  // every chunk was delivered before the check
  }
}

TEST(MmapTrace, InvalidKindThrowsInItsChunk) {
  ScratchFile f("stc_chunk_kind.stct");
  save_trace(f.path, random_trace(28, 1000));
  std::string bytes = slurp(f.path);
  bytes[16 + 5 * 600] = 7;  // invalid AccessKind in record 600
  spit(f.path, bytes);
  PackedTraceReader reader(f.path, 100);
  PackedSplitTrace out;
  std::uint64_t chunks = 0;
  EXPECT_THROW(
      {
        while (reader.read_chunk(out)) ++chunks;
      },
      Error);
  EXPECT_EQ(chunks, 6u);  // records 0..599 decoded; chunk 600..699 throws
}

// Version-1 files (no CRC footer) still stream.
TEST(MmapTrace, AcceptsVersion1WithoutFooter) {
  const Trace t = random_trace(29, 2000);
  ScratchFile f("stc_chunk_v1.stct");
  save_trace(f.path, t);
  spit(f.path, as_version1(slurp(f.path)));
  expect_packed_eq(read_chunked(f.path, 300), t);
}

// --- a pass far larger than the chunk ----------------------------------------

std::uint64_t vm_hwm_kb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::uint64_t>(
          std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0;  // not Linux: the RSS assertion is skipped
}

// Write an N-record v2 STCT file without ever holding it in memory: a
// fixed 1 M-record pattern block is emitted repeatedly, CRC accumulated
// block by block exactly like the production writer.
void write_big_trace(const std::string& path, std::uint64_t records) {
  constexpr std::uint64_t kBlockRecords = 1'000'000;
  std::vector<unsigned char> block(kBlockRecords * 5);
  Rng rng(0xB16B16);
  for (std::uint64_t i = 0; i < kBlockRecords; ++i) {
    unsigned char* r = block.data() + i * 5;
    r[0] = static_cast<unsigned char>(i % 3);  // kIFetch/kRead/kWrite
    const std::uint32_t addr = rng.next_u32();
    r[1] = static_cast<unsigned char>(addr);
    r[2] = static_cast<unsigned char>(addr >> 8);
    r[3] = static_cast<unsigned char>(addr >> 16);
    r[4] = static_cast<unsigned char>(addr >> 24);
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  unsigned char header[16] = {'S', 'T', 'C', 'T', 2, 0, 0, 0};
  for (int b = 0; b < 8; ++b) {
    header[8 + b] = static_cast<unsigned char>(records >> (8 * b));
  }
  os.write(reinterpret_cast<const char*>(header), sizeof header);
  Crc32 crc;
  std::uint64_t left = records;
  while (left > 0) {
    const std::uint64_t n = std::min(left, kBlockRecords);
    crc.update(block.data(), static_cast<std::size_t>(n * 5));
    os.write(reinterpret_cast<const char*>(block.data()),
             static_cast<std::streamsize>(n * 5));
    left -= n;
  }
  const std::uint32_t v = crc.value();
  unsigned char footer[4] = {
      static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
      static_cast<unsigned char>(v >> 16), static_cast<unsigned char>(v >> 24)};
  os.write(reinterpret_cast<const char*>(footer), sizeof footer);
  ASSERT_TRUE(os.good()) << "writing " << path << " failed (disk full?)";
}

// 100 M records (~500 MB on disk) must stream with peak-RSS growth bounded
// by the chunk working set, not the file size. The record count is
// overridable for constrained machines (STCACHE_BIG_TRACE_RECORDS), but the
// default IS the acceptance criterion.
TEST(MmapTrace, HundredMillionRecordsBoundedRss) {
  std::uint64_t records = 100'000'000;
  if (const char* e = std::getenv("STCACHE_BIG_TRACE_RECORDS")) {
    records = std::strtoull(e, nullptr, 10);
  }
  ScratchFile f("stc_chunk_big.stct");
  write_big_trace(f.path, records);

  const std::uint64_t hwm_before = vm_hwm_kb();
  PackedTraceReader reader(f.path);
  ASSERT_EQ(reader.record_count(), records);
  std::uint64_t decoded = 0;
  std::uint64_t chunks = 0;
  PackedSplitTrace chunk;
  while (reader.read_chunk(chunk)) {
    decoded += chunk.ifetch.size() + chunk.data.size();
    ++chunks;
    chunk.ifetch.clear();
    chunk.data.clear();
  }
  EXPECT_EQ(decoded, records);
  constexpr std::uint64_t kChunk = PackedTraceReader::kDefaultChunkRecords;
  EXPECT_EQ(chunks, (records + kChunk - 1) / kChunk);

  const std::uint64_t hwm_after = vm_hwm_kb();
  if (hwm_before > 0 && hwm_after > 0) {
    const std::uint64_t growth_kb = hwm_after - hwm_before;
    // Chunk working set: a 320 KB read buffer plus two decoded streams of
    // at most 256 KB each. 96 MB leaves slack for the allocator and
    // sanitizer shadow while staying far below the ~500 MB file — an
    // unbounded reader fails this instantly.
    EXPECT_LT(growth_kb, 96u * 1024u)
        << "peak RSS grew by " << growth_kb << " kB over a " << records
        << "-record pass";
  }
}

}  // namespace
}  // namespace stcache
