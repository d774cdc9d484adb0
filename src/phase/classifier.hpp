// Streaming phase detection over packed address streams.
//
// A phase is a stretch of the trace whose working set looks the same; the
// tuner's job (docs/phases.md) is to notice when that stops being true.
// The classifier summarizes each fixed-size window of the packed stream
// (pack_stream format: bit 31 = write, bits 30..0 = 16 B block number)
// into a PhaseSignature — a hashed-footprint sketch plus write/locality
// ratios — and compares each completed window against the accumulated
// signature of the current phase. A window whose distance exceeds the
// boundary threshold is *pending*; `debounce` consecutive pending windows
// confirm a boundary (retroactively, at the first pending window), while a
// window that falls back under the threshold folds the pending streak into
// the current phase as a blip.
//
// Hot-path contract: the classifier rides the streaming capture→sweep
// pipeline at chunk granularity, so its per-word cost must be a few
// percent of the 27-config oneshot sweep it accompanies
// (bench_phase_adaptive gates overhead <= 5%). It therefore samples the
// stream at a fixed stride on *absolute* word offsets — which also makes
// every signature invariant to how the stream was sliced into feed() calls
// (chunked vs. materialized equivalence, tests/phase_test.cpp). The stream
// is sampled once: each completed window's accumulator goes to the sink,
// and the adaptive tuner merges those into its phase signatures instead of
// sampling the words again.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace stcache {

// Working-set sketch of a stretch of packed words. All counts are over the
// *sampled* words (1 in sample_stride); `words` counts every word, so
// signatures of different-length stretches compare by ratio.
struct PhaseSignature {
  std::uint64_t words = 0;
  std::uint64_t samples = 0;
  std::uint64_t writes = 0;   // sampled write accesses
  std::uint64_t seq = 0;      // sampled block == prev or prev + 1
  std::uint64_t rep = 0;      // sampled block == prev
  std::uint64_t footprint = 0;  // distinct hashed blocks (bitmap popcount)
  // Stride-shape histogram over signed log2 block deltas between
  // consecutive samples: [0] repeat, [1..31] forward by magnitude,
  // [32..62] backward. Location-invariant by construction.
  std::array<std::uint32_t, 64> buckets{};
};

// Distance in [0, 1]: 0 = identical behavior. A weighted blend of the
// histogram L1 distance, relative footprint gap, and write/sequentiality
// ratio gaps; deterministic (fixed-order double arithmetic over integer
// counts). See docs/phases.md for the exact definition and calibration.
double signature_distance(const PhaseSignature& a, const PhaseSignature& b);

// Streaming signature builder. add() may be called with arbitrary slices;
// `offset_mod` is (absolute word offset of the slice) % sample_stride and
// `prev_block` carries the last *sampled* block across slices (pass
// kNoPrevBlock before the first slice of a stretch, which starts a new
// chain: its first sample has no delta).
class SignatureAccum {
 public:
  static constexpr std::uint32_t kNoPrevBlock = 0xFFFFFFFFu;
  static constexpr unsigned kSampleStride = 8;  // must divide window_words

  void add(std::span<const std::uint32_t> words, unsigned offset_mod,
           std::uint32_t& prev_block);
  // Fold in `other`, a stretch sampled on the same chain. With
  // `chain_start`, `other` opens a new chain instead, as add() from
  // kNoPrevBlock would: the delta of its first sample, taken against the
  // sample before it, is left out. So chain-start merging the
  // accumulators of consecutive stretches, then merging each later one
  // plainly, gives exactly add() over their concatenation from
  // kNoPrevBlock (tests/phase_test.cpp).
  void merge(const SignatureAccum& other, bool chain_start = false);
  void reset();
  PhaseSignature snapshot() const;  // fills footprint from the bitmap
  std::uint64_t words() const { return sig_.words; }

 private:
  static constexpr std::uint8_t kNoBucket = 0xFF;

  PhaseSignature sig_;                      // footprint filled at snapshot
  std::array<std::uint64_t, 64> bitmap_{};  // 4096-bit hashed footprint
  // Delta bucket of the stretch's first sample, or kNoBucket when it has
  // no sample yet or its first sample started a chain.
  std::uint8_t first_bucket_ = kNoBucket;
};

class PhaseClassifier {
 public:
  struct Params {
    std::uint64_t window_words = 1u << 16;  // multiple of kSampleStride
    double boundary_threshold = 0.25;
    unsigned debounce = 2;  // pending windows that confirm a boundary
  };

  enum class Action : std::uint8_t {
    kContinue,  // window belongs to the current phase (pending folds back)
    kPending,   // window deviates; boundary not yet confirmed
    kBoundary,  // boundary confirmed: a new phase started at phase_begin
  };

  // One completed (or final partial) window, reported in stream order.
  struct Window {
    std::uint64_t index = 0;  // 0-based window number
    std::uint64_t begin = 0;  // absolute word offset
    std::uint64_t words = 0;
    double distance = 0.0;    // to the current phase signature
    Action action = Action::kContinue;
    // kContinue: pending windows folded back into the phase (a blip).
    // kBoundary: pending windows (including this one) opening the phase.
    unsigned resolved_pending = 0;
    std::uint64_t phase_begin = 0;  // kBoundary: new phase's first word
    // The window's own accumulator, on the stream's one sampling chain
    // (its first sample's delta is against the previous window's last
    // sample). Valid only during the sink call: copy it to keep it.
    const SignatureAccum* signature = nullptr;
  };

  using Sink = std::function<void(const Window&)>;

  explicit PhaseClassifier(Params params, Sink sink = {});

  // Fold the next slice of the stream. Window events fire synchronously,
  // and depend only on the concatenation of everything fed — never on the
  // slicing.
  void feed(std::span<const std::uint32_t> words);

  // Flush the final partial window (if any). A pending streak shorter than
  // the debounce at end of stream is left unresolved; callers treat those
  // windows as part of the final phase.
  void finish();

  PhaseSignature phase_signature() const { return phase_.snapshot(); }
  std::uint64_t windows_completed() const { return windows_; }
  std::uint64_t words_seen() const { return words_seen_; }
  std::uint64_t boundaries() const { return boundaries_; }
  std::uint64_t blips() const { return blips_; }

 private:
  void complete_window(std::uint64_t window_words);

  Params params_;
  Sink sink_;
  std::uint64_t words_seen_ = 0;
  std::uint64_t window_fill_ = 0;  // words in the in-progress window
  std::uint64_t windows_ = 0;
  std::uint64_t boundaries_ = 0;
  std::uint64_t blips_ = 0;
  std::uint32_t prev_block_ = SignatureAccum::kNoPrevBlock;
  SignatureAccum cur_;    // in-progress window
  SignatureAccum phase_;  // current phase (excludes pending windows)
  bool phase_started_ = false;
  std::vector<SignatureAccum> pending_;
  std::uint64_t pending_begin_ = 0;  // offset of first pending window
};

}  // namespace stcache
