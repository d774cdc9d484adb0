// Wire protocol of the tuning service (version 2) — the length-prefixed
// frames stcache_tuned and stcache_tunec exchange over a unix-domain
// stream socket. docs/serving.md is the normative spec; this header is its
// implementation.
//
// Frame layout (all integers little-endian):
//
//   offset 0  u8   type        (FrameType)
//   offset 1  u32  length      payload byte count (bounded by
//                              kMaxFramePayload; larger is a protocol
//                              violation)
//   offset 5  u8[] payload
//
// Session message sequence: the client sends HELLO, any number of CHUNKs,
// then FIN; the server answers with exactly one VERDICT or ERROR and
// closes. Payloads:
//
//   HELLO    char[4] magic "STCH", u16 version (<= 2), u8 stream
//            (0 = instruction, 1 = data), u8 reserved (=0)
//   CHUNK    u32 word_count, u32 crc32 (IEEE, over the word bytes as
//            transmitted), then word_count packed u32 words in
//            pack_stream() format (bit 31 = write, bits 30..0 = 16 B
//            block)
//   FIN      empty
//   VERDICT  u64 accesses (total words folded), u32 n_configs, then
//            n_configs CacheStats blocks (17 u64 counters each, in
//            cache/stats.hpp declaration order), index-aligned with
//            all_configs() — the registry order is part of the protocol
//            contract and versioned with it
//   ERROR    u16 code (WireErrorCode), u16 retry_after_ms (0 = no hint;
//            this field was reserved-zero in v1, so the formats are
//            mutually intelligible), UTF-8 message
//
// Version negotiation: the server accepts any HELLO version it knows
// (1..kProtocolVersion) and never sends a frame the announced version
// cannot parse — v1 clients simply read retry_after_ms as the reserved
// word they already ignored. Version 2 adds the retry_after_ms hint and
// the `timeout` error code.
//
// Deadlines: every framed I/O call optionally takes a steady-clock
// deadline. A deadline turns the blocking socket calls into poll()-bounded
// ones; expiry throws WireTimeout (a stcache::Error subtype), so callers
// can tell "the peer is slow or gone" from "the peer sent garbage". With
// the default kNoWireDeadline the calls block exactly as before.
//
// Everything here throws stcache::Error on malformed input or I/O
// failure; the server maps those to per-session ERROR frames, never to a
// worker death (docs/serving.md, "failure isolation").
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

#include "cache/stats.hpp"

namespace stcache::serve {

inline constexpr char kHelloMagic[4] = {'S', 'T', 'C', 'H'};
inline constexpr std::uint16_t kProtocolVersion = 2;
// Oldest HELLO version the server still speaks.
inline constexpr std::uint16_t kMinProtocolVersion = 1;
// Frames above this size are rejected before allocation: a client cannot
// make the server buffer unbounded garbage.
inline constexpr std::size_t kMaxFramePayload = (std::size_t{1} << 22) + 64;
inline constexpr std::size_t kMaxChunkWords = std::size_t{1} << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kChunk = 2,
  kFin = 3,
  kVerdict = 4,
  kError = 5,
};

enum class WireErrorCode : std::uint16_t {
  kProtocol = 1,     // framing, ordering, or size violation
  kChunkCrc = 2,     // CHUNK payload failed its CRC-32
  kEmptyStream = 3,  // FIN with zero words streamed
  kOverload = 4,     // server refused/shed the session (capacity, drain)
  kInternal = 5,     // decode/sweep failure inside the server
  kTimeout = 6,      // the session blew an idle/total deadline (v2)
};
const char* to_string(WireErrorCode code);

// --- deadlines ---------------------------------------------------------------

using WireClock = std::chrono::steady_clock;
using WireDeadline = WireClock::time_point;
inline constexpr WireDeadline kNoWireDeadline = WireDeadline::max();

// Deadline `ms` milliseconds from now; 0 means "no deadline".
inline WireDeadline wire_deadline_after(std::uint32_t ms) {
  return ms == 0 ? kNoWireDeadline
                 : WireClock::now() + std::chrono::milliseconds(ms);
}

// Thrown (only) when a framed I/O call's deadline expires mid-operation —
// distinct from Error so callers can answer `timeout` instead of
// `protocol`.
class WireTimeout : public Error {
 public:
  explicit WireTimeout(const std::string& what) : Error(what) {}
};

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

// --- payload encode/decode --------------------------------------------------

std::vector<std::uint8_t> encode_hello(bool instruction,
                                       std::uint16_t version = kProtocolVersion);
struct Hello {
  bool instruction = true;
  std::uint16_t version = kProtocolVersion;  // what the client announced
};
// Throws on bad magic, a version outside [kMinProtocolVersion,
// kProtocolVersion], or nonzero reserved bytes.
Hello decode_hello(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_chunk(std::span<const std::uint32_t> words);
// Verifies a CHUNK payload, its structure and then the declared CRC-32
// over all of its words, and returns the word count. Throws Error
// mentioning "crc" on a checksum mismatch and "chunk" on structural
// problems.
std::size_t check_chunk(std::span<const std::uint8_t> payload);
// Decodes words [first, first + out.size()) of a payload check_chunk()
// accepted into `out`. The server uses the offset to split one CHUNK
// across several pool buffers (docs/serving.md §3).
void decode_chunk(std::span<const std::uint8_t> payload, std::size_t first,
                  std::span<std::uint32_t> out);

std::vector<std::uint8_t> encode_verdict(std::uint64_t accesses,
                                         std::span<const CacheStats> stats);
struct Verdict {
  std::uint64_t accesses = 0;
  std::vector<CacheStats> stats;  // index-aligned with all_configs()
};
Verdict decode_verdict(std::span<const std::uint8_t> payload);

// retry_after_ms is a hint for shed sessions (overload/drain/timeout):
// "reconnect after this backoff". 0 = no hint (and the v1 encoding).
std::vector<std::uint8_t> encode_error(WireErrorCode code,
                                       const std::string& message,
                                       std::uint16_t retry_after_ms = 0);
struct WireError {
  WireErrorCode code = WireErrorCode::kInternal;
  std::uint16_t retry_after_ms = 0;
  std::string message;
};
WireError decode_error(std::span<const std::uint8_t> payload);

// --- framed socket I/O ------------------------------------------------------

// Write one frame (header + payload) to `fd`; throws on any short write
// or peer reset (SIGPIPE is suppressed), WireTimeout once `deadline`
// passes with the kernel buffer still full.
void write_frame(int fd, FrameType type, std::span<const std::uint8_t> payload,
                 WireDeadline deadline = kNoWireDeadline);

// Read one frame. Returns false on clean EOF at a frame boundary; throws
// on mid-frame EOF, I/O errors, unknown frame types, an oversized
// declared payload, or (WireTimeout) a deadline expiring before the frame
// completes.
bool read_frame(int fd, Frame& out, std::size_t max_payload = kMaxFramePayload,
                WireDeadline deadline = kNoWireDeadline);

// --- unix-domain sockets ----------------------------------------------------

// Bind + listen on `path` (unlinking a stale socket first). Throws with
// the path in the message on failure. Returns the listening fd.
int unix_listen(const std::string& path, int backlog);
// Connect to a listening socket; throws with the path in the message.
int unix_connect(const std::string& path);

}  // namespace stcache::serve
