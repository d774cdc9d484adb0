// Phase-adaptive tuning: classifier + phase table + Fig. 6 sweep.
//
// PhaseAdaptiveTuner consumes a packed stream (whole, or chunk by chunk —
// the timeline is invariant to the slicing) and produces a tuning
// timeline: one record per detected phase, each phase either *reusing* the
// configuration of a previously tuned phase whose signature is within the
// reuse threshold (phase distance mapping, Adegbija et al.) or paying for
// a fresh full-space sweep over the phase's first sweep_windows windows
// (BankAccumulator with its three line-size groups on up to sweep-jobs
// threads, closed by the paper's Fig. 6 heuristic over a primed
// TraceEvaluator).
//
// Phase lifecycle, per detected phase:
//   warmup   — buffer windows; after key_skip_windows + key_windows
//              windows, build the lookup key from the post-skip windows
//              (the boundary-straddling window is excluded: it mixes two
//              behaviors) and decide reuse vs. sweep;
//   sweeping — feed the buffered + live windows to a fresh bank until
//              sweep_windows windows are in, then tune and table the
//              result;
//   locked   — configuration chosen; windows stream through the
//              classifier only (no buffering beyond the current window).
//
// Signatures: the tuner samples no word itself. Each buffered window
// keeps the classifier's accumulator of it (PhaseClassifier::Window::
// signature), and the lookup key and the whole-phase signature are merges
// of those, each chain starting at its first window (the key's first
// window, the phase's first window): bit for bit what sampling the key
// windows and the phase's words afresh would give.
//
// Determinism: windows close at fixed absolute word offsets and bank
// stats are bit-identical across --sweep-jobs values and feed slicings, so
// the timeline (boundaries, verdicts, configs, distances) is byte-identical
// across all of them — repro.sh cmp-gates this through stcache_tune
// --phases.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "cache/config.hpp"
#include "cache/stats.hpp"
#include "energy/energy_model.hpp"
#include "phase/classifier.hpp"
#include "phase/table.hpp"
#include "trace/replay.hpp"

namespace stcache {

struct PhaseTunerParams {
  PhaseClassifier::Params classifier{};
  double reuse_threshold = 0.18;  // table distance at or under which we reuse
  unsigned key_skip_windows = 1;  // boundary windows excluded from the key
  unsigned key_windows = 2;       // windows folded into the lookup key
  unsigned sweep_windows = 4;     // windows a fresh sweep measures
  bool distance_mapping = true;   // false = naive: every phase re-sweeps
  unsigned sweep_jobs = 0;  // 0 = default_sweep_jobs()
  TimingParams timing{};
};

enum class PhaseVerdict : std::uint8_t { kSwept, kReused };

// One phase of the tuning timeline.
struct PhaseRecord {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // exclusive; set when the phase closes
  PhaseVerdict verdict = PhaseVerdict::kSwept;
  CacheConfig config;
  // kReused: distance to the matched table entry. kSwept: distance to the
  // nearest entry at decision time (-1 when the table was empty).
  double table_distance = -1.0;
  std::int64_t matched_phase = -1;  // kReused: phase that swept the entry
  std::uint64_t swept_words = 0;    // words fed to this phase's bank
  unsigned configs_examined = 0;    // Fig. 6 evaluations (0 when reused)
};

class PhaseAdaptiveTuner {
 public:
  PhaseAdaptiveTuner(std::span<const CacheConfig> configs,
                     const EnergyModel& model, PhaseTunerParams params = {});

  void feed(std::span<const std::uint32_t> words);
  // Close the final phase and return the timeline. With metrics enabled
  // (util/metrics), prints the "[phase] boundaries/reuses/sweeps" summary
  // to stderr. Call exactly once.
  std::vector<PhaseRecord> finish();

  const PhaseTable& table() const { return table_; }
  std::uint64_t boundaries() const { return classifier_.boundaries(); }
  std::uint64_t blips() const { return classifier_.blips(); }
  std::uint64_t windows() const { return classifier_.windows_completed(); }
  std::uint64_t words_seen() const { return classifier_.words_seen(); }
  std::uint64_t reuses() const { return reuses_; }
  std::uint64_t sweeps() const { return sweeps_; }
  std::uint64_t swept_words() const { return swept_words_; }

 private:
  enum class State : std::uint8_t { kWarmup, kSweeping, kLocked };
  // One classifier window: its words, and the classifier's accumulator of
  // them.
  struct Buffer {
    std::vector<std::uint32_t> words;
    SignatureAccum signature;
  };

  void on_window(const PhaseClassifier::Window& ev);
  Buffer take_buffer();
  void recycle(Buffer&& buf);
  void phase_window(Buffer&& buf);
  void decide();
  void close_sweep();
  void finalize_phase(std::uint64_t end);
  void start_phase(std::uint64_t begin);

  std::span<const CacheConfig> configs_;
  const EnergyModel* model_;
  PhaseTunerParams params_;
  PhaseClassifier classifier_;
  PhaseTable table_;
  std::vector<PhaseRecord> timeline_;
  bool finished_ = false;

  // Word-level buffering, window aligned: cur_buf_ mirrors the
  // classifier's in-progress window; pending_bufs_ holds windows the
  // classifier has not yet assigned to a phase; warm_bufs_ holds the
  // current phase's windows until the reuse/sweep decision.
  Buffer cur_buf_;
  std::deque<Buffer> pending_bufs_;
  std::deque<Buffer> warm_bufs_;
  // Buffers of finished windows (dropped once locked, fed to the bank, or
  // discarded by a reuse verdict), kept for later windows: a stream of any
  // length allocates only as many window buffers as are ever in flight.
  std::vector<Buffer> spare_bufs_;

  // Current-phase state.
  State state_ = State::kWarmup;
  PhaseRecord current_;
  std::uint64_t phase_windows_ = 0;  // windows assigned to this phase
  SignatureAccum key_accum_;
  unsigned key_windows_seen_ = 0;
  // Whole-phase signature: when a swept phase closes, it is inserted as a
  // second table key for the same config. Early-window keys drift when a
  // recurring behavior resumes at a different position; the whole-phase
  // average is the stable complement (docs/phases.md).
  SignatureAccum whole_accum_;
  PhaseSignature pending_key_;  // inserted into the table at close_sweep
  std::optional<BankAccumulator> bank_;
  unsigned bank_windows_ = 0;

  std::uint64_t reuses_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t swept_words_ = 0;
};

// Render a timeline as a deterministic table (stdout-stable across
// --sweep-jobs values). Used by stcache_tune --phases and the example.
void print_phase_timeline(std::ostream& os,
                          std::span<const PhaseRecord> timeline);

}  // namespace stcache
