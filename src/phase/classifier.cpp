#include "phase/classifier.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "cache/packed.hpp"

namespace stcache {

namespace {

// Signed log2 delta bucket: 0 = repeat, 1..31 forward strides by
// magnitude, 32..62 backward. Shape, not location — recurrences of the
// same behavior at a different address land in the same buckets. So
// bucket 0 is exactly a delta of 0 and bucket 1 exactly +1. Branchless:
// the sign of delta is unpredictable on mixed streams and a mispredicting
// ternary here costs ~2x on the whole hot loop.
inline unsigned delta_bucket(std::int32_t delta) {
  const std::uint32_t sign =
      static_cast<std::uint32_t>(delta >> 31);  // 0 or 0xFFFFFFFF
  const std::uint32_t mag = (static_cast<std::uint32_t>(delta) ^ sign) - sign;
  return (sign & 31u) + std::bit_width(mag);
}

inline std::int32_t block_delta(std::uint32_t block, std::uint32_t prev) {
  return static_cast<std::int32_t>(block) - static_cast<std::int32_t>(prev);
}

}  // namespace

void SignatureAccum::add(std::span<const std::uint32_t> words,
                         unsigned offset_mod, std::uint32_t& prev_block) {
  const std::uint32_t* p = words.data();
  const std::size_t n = words.size();
  sig_.words += n;
  std::size_t i = (kSampleStride - offset_mod) % kSampleStride;
  std::uint32_t prev = prev_block;
  std::uint64_t samples = 0, writes = 0, seq = 0, rep = 0;
  if (i < n && prev == kNoPrevBlock) {
    // First sample ever for this prev-chain: no predecessor to compare.
    const std::uint32_t w = p[i];
    const std::uint32_t block = w & kPackedBlockMask;
    ++samples;
    writes += w >> 31;
    const std::uint32_t idx = (block * 0x9E3779B9u) >> 20;
    bitmap_[idx >> 6] |= 1ull << (idx & 63);
    prev = block;
    i += kSampleStride;
  } else if (i < n && sig_.samples == 0) {
    // This stretch's first sample takes its delta against a sample before
    // the stretch: remember the bucket, which merge() leaves out at a
    // chain start. The loop below counts the sample as usual.
    first_bucket_ = static_cast<std::uint8_t>(
        delta_bucket(block_delta(p[i] & kPackedBlockMask, prev)));
  }
  for (; i < n; i += kSampleStride) {
    const std::uint32_t w = p[i];
    const std::uint32_t block = w & kPackedBlockMask;
    ++samples;
    writes += w >> 31;
    const std::uint32_t idx = (block * 0x9E3779B9u) >> 20;
    bitmap_[idx >> 6] |= 1ull << (idx & 63);
    const std::int32_t delta = block_delta(block, prev);
    ++sig_.buckets[delta_bucket(delta)];
    seq += (delta == 0) | (delta == 1);
    rep += delta == 0;
    prev = block;
  }
  sig_.samples += samples;
  sig_.writes += writes;
  sig_.seq += seq;
  sig_.rep += rep;
  prev_block = prev;
}

void SignatureAccum::merge(const SignatureAccum& other, bool chain_start) {
  const bool empty = sig_.samples == 0;
  sig_.words += other.sig_.words;
  sig_.samples += other.sig_.samples;
  sig_.writes += other.sig_.writes;
  sig_.seq += other.sig_.seq;
  sig_.rep += other.sig_.rep;
  for (std::size_t i = 0; i < sig_.buckets.size(); ++i)
    sig_.buckets[i] += other.sig_.buckets[i];
  for (std::size_t i = 0; i < bitmap_.size(); ++i)
    bitmap_[i] |= other.bitmap_[i];
  const std::uint8_t first = other.first_bucket_;
  if (chain_start && first != kNoBucket) {
    --sig_.buckets[first];
    sig_.seq -= first <= 1;
    sig_.rep -= first == 0;
  }
  if (empty) first_bucket_ = chain_start ? kNoBucket : first;
}

void SignatureAccum::reset() {
  sig_ = PhaseSignature{};
  bitmap_.fill(0);
  first_bucket_ = kNoBucket;
}

PhaseSignature SignatureAccum::snapshot() const {
  PhaseSignature s = sig_;
  std::uint64_t fp = 0;
  for (const std::uint64_t w : bitmap_) fp += std::popcount(w);
  s.footprint = fp;
  return s;
}

double signature_distance(const PhaseSignature& a, const PhaseSignature& b) {
  const double an = static_cast<double>(std::max<std::uint64_t>(1, a.samples));
  const double bn = static_cast<double>(std::max<std::uint64_t>(1, b.samples));
  // Histogram L1 over normalized stride-shape buckets, halved so the term
  // is 1.0 for fully disjoint shapes.
  double hist = 0.0;
  for (std::size_t i = 0; i < a.buckets.size(); ++i)
    hist += std::abs(static_cast<double>(a.buckets[i]) / an -
                     static_cast<double>(b.buckets[i]) / bn);
  hist *= 0.5;
  // Footprint compares *counts*, not which blocks: working-set size drives
  // the cache-size choice and is stable across recurrences of a behavior
  // at shifted addresses.
  const double fa = static_cast<double>(a.footprint);
  const double fb = static_cast<double>(b.footprint);
  const double fp = std::abs(fa - fb) / std::max({fa, fb, 1.0});
  const double wr = std::abs(static_cast<double>(a.writes) / an -
                             static_cast<double>(b.writes) / bn);
  const double sq = std::abs(static_cast<double>(a.seq) / an -
                             static_cast<double>(b.seq) / bn);
  return 0.40 * hist + 0.35 * fp + 0.15 * wr + 0.10 * sq;
}

PhaseClassifier::PhaseClassifier(Params params, Sink sink)
    : params_(params), sink_(std::move(sink)) {}

void PhaseClassifier::feed(std::span<const std::uint32_t> words) {
  while (!words.empty()) {
    const std::uint64_t room = params_.window_words - window_fill_;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(words.size(), room));
    cur_.add(words.first(take),
             static_cast<unsigned>(words_seen_ % SignatureAccum::kSampleStride),
             prev_block_);
    words_seen_ += take;
    window_fill_ += take;
    if (window_fill_ == params_.window_words) complete_window(window_fill_);
    words = words.subspan(take);
  }
}

void PhaseClassifier::finish() {
  if (window_fill_ > 0) complete_window(window_fill_);
}

void PhaseClassifier::complete_window(std::uint64_t window_words) {
  Window ev;
  ev.index = windows_;
  ev.begin = words_seen_ - window_words;
  ev.words = window_words;
  // A final sliver carries too few samples for a stable signature: always
  // fold it into the current phase.
  const bool tiny = window_words < params_.window_words / 4;
  if (!phase_started_) {
    phase_.merge(cur_);
    phase_started_ = true;
  } else {
    ev.distance = signature_distance(cur_.snapshot(), phase_.snapshot());
    if (tiny || ev.distance <= params_.boundary_threshold) {
      ev.action = Action::kContinue;
      ev.resolved_pending = static_cast<unsigned>(pending_.size());
      if (!pending_.empty()) {
        ++blips_;
        for (const SignatureAccum& p : pending_) phase_.merge(p);
        pending_.clear();
      }
      phase_.merge(cur_);
    } else {
      if (pending_.empty()) pending_begin_ = ev.begin;
      pending_.push_back(cur_);
      if (pending_.size() >= params_.debounce) {
        ev.action = Action::kBoundary;
        ev.resolved_pending = static_cast<unsigned>(pending_.size());
        ev.phase_begin = pending_begin_;
        ++boundaries_;
        phase_.reset();
        for (const SignatureAccum& p : pending_) phase_.merge(p);
        pending_.clear();
      } else {
        ev.action = Action::kPending;
      }
    }
  }
  ++windows_;
  window_fill_ = 0;
  ev.signature = &cur_;
  if (sink_) sink_(ev);
  cur_.reset();
}

}  // namespace stcache
