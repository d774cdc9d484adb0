#include "phase/adaptive.hpp"

#include <algorithm>
#include <iostream>
#include <utility>

#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"

namespace stcache {

PhaseAdaptiveTuner::PhaseAdaptiveTuner(std::span<const CacheConfig> configs,
                                       const EnergyModel& model,
                                       PhaseTunerParams params)
    : configs_(configs),
      model_(&model),
      params_(params),
      classifier_(params.classifier,
                  [this](const PhaseClassifier::Window& ev) { on_window(ev); }) {
  if (configs_.empty()) fail("PhaseAdaptiveTuner: empty configuration space");
  if (params_.classifier.window_words % SignatureAccum::kSampleStride != 0)
    fail("PhaseAdaptiveTuner: window_words must be a multiple of the "
         "sample stride");
  if (params_.key_windows == 0 || params_.sweep_windows == 0)
    fail("PhaseAdaptiveTuner: key_windows and sweep_windows must be > 0");
  cur_buf_.reserve(params_.classifier.window_words);
  start_phase(0);
}

void PhaseAdaptiveTuner::feed(std::span<const std::uint32_t> words) {
  if (finished_) fail("PhaseAdaptiveTuner: feed after finish");
  while (!words.empty()) {
    const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(
        words.size(), params_.classifier.window_words - cur_buf_.size()));
    cur_buf_.insert(cur_buf_.end(), words.begin(), words.begin() + take);
    // May complete a window, which fires on_window() synchronously and
    // consumes cur_buf_ (it holds exactly the completed window).
    classifier_.feed(words.first(take));
    words = words.subspan(take);
  }
}

void PhaseAdaptiveTuner::on_window(const PhaseClassifier::Window& ev) {
  Buffer buf = std::move(cur_buf_);
  cur_buf_.clear();
  cur_buf_.reserve(params_.classifier.window_words);
  switch (ev.action) {
    case PhaseClassifier::Action::kContinue:
      // Any pending streak was a blip: those windows, then this one, all
      // belong to the current phase.
      while (!pending_bufs_.empty()) {
        phase_window(std::move(pending_bufs_.front()));
        pending_bufs_.pop_front();
      }
      phase_window(std::move(buf));
      break;
    case PhaseClassifier::Action::kPending:
      pending_bufs_.push_back(std::move(buf));
      break;
    case PhaseClassifier::Action::kBoundary:
      finalize_phase(ev.phase_begin);
      start_phase(ev.phase_begin);
      while (!pending_bufs_.empty()) {
        phase_window(std::move(pending_bufs_.front()));
        pending_bufs_.pop_front();
      }
      phase_window(std::move(buf));
      break;
  }
}

void PhaseAdaptiveTuner::phase_window(Buffer&& buf) {
  ++phase_windows_;
  whole_accum_.add(buf, 0, whole_prev_);
  if (state_ == State::kWarmup) {
    if (phase_windows_ > params_.key_skip_windows &&
        key_windows_seen_ < params_.key_windows) {
      // Window buffers start on a window boundary, so offset_mod is 0.
      key_accum_.add(buf, 0, key_prev_);
      ++key_windows_seen_;
    }
    warm_bufs_.push_back(std::move(buf));
    if (key_windows_seen_ >= params_.key_windows) decide();
  } else if (state_ == State::kSweeping && bank_) {
    bank_->feed(buf);
    current_.swept_words += buf.size();
    swept_words_ += buf.size();
    if (++bank_windows_ >= params_.sweep_windows) close_sweep();
  }
  // kLocked: the phase's configuration is chosen; nothing to retain.
}

void PhaseAdaptiveTuner::decide() {
  pending_key_ = key_accum_.snapshot();
  const std::optional<PhaseTable::Match> m = table_.nearest(pending_key_);
  if (m) current_.table_distance = m->distance;
  if (params_.distance_mapping && m &&
      m->distance <= params_.reuse_threshold) {
    const PhaseTableEntry& e = table_.entries()[m->entry];
    current_.verdict = PhaseVerdict::kReused;
    current_.config = e.config;
    current_.matched_phase = static_cast<std::int64_t>(e.phase);
    table_.note_reuse(m->entry);
    ++reuses_;
    warm_bufs_.clear();
    state_ = State::kLocked;
    return;
  }
  current_.verdict = PhaseVerdict::kSwept;
  state_ = State::kSweeping;
  bank_.emplace(configs_, params_.timing, params_.sweep_jobs);
  bank_windows_ = 0;
  std::deque<Buffer> bufs;
  bufs.swap(warm_bufs_);
  for (Buffer& b : bufs) {
    if (!bank_) break;  // sweep filled and closed mid-drain
    bank_->feed(b);
    current_.swept_words += b.size();
    swept_words_ += b.size();
    if (++bank_windows_ >= params_.sweep_windows) close_sweep();
  }
}

void PhaseAdaptiveTuner::close_sweep() {
  const std::vector<CacheStats> stats = bank_->stats();
  TraceEvaluator eval(std::span<const std::uint32_t>{}, *model_);
  prime_all(eval, configs_, stats);
  const SearchResult r = tune(eval);
  current_.config = r.best;
  current_.configs_examined = r.configs_examined;
  table_.insert(pending_key_, r.best, timeline_.size());
  ++sweeps_;
  bank_.reset();
  state_ = State::kLocked;
}

void PhaseAdaptiveTuner::finalize_phase(std::uint64_t end) {
  if (state_ == State::kWarmup) {
    // Phase ended before the key filled: key off whatever it had (all
    // buffered windows when even the post-skip prefix is empty).
    if (key_windows_seen_ == 0)
      for (const Buffer& b : warm_bufs_) key_accum_.add(b, 0, key_prev_);
    decide();
  }
  if (state_ == State::kSweeping && bank_) close_sweep();
  current_.end = end;
  // A swept phase also files its whole-phase signature: early-window keys
  // drift when a behavior recurs at a shifted position, and the
  // whole-phase average is the stable complement.
  if (current_.verdict == PhaseVerdict::kSwept)
    table_.insert(whole_accum_.snapshot(), current_.config,
                  timeline_.size());
  timeline_.push_back(current_);
}

void PhaseAdaptiveTuner::start_phase(std::uint64_t begin) {
  current_ = PhaseRecord{};
  current_.begin = begin;
  phase_windows_ = 0;
  state_ = State::kWarmup;
  key_accum_.reset();
  key_prev_ = SignatureAccum::kNoPrevBlock;
  key_windows_seen_ = 0;
  whole_accum_.reset();
  whole_prev_ = SignatureAccum::kNoPrevBlock;
  bank_.reset();
  bank_windows_ = 0;
  warm_bufs_.clear();
}

std::vector<PhaseRecord> PhaseAdaptiveTuner::finish() {
  if (finished_) fail("PhaseAdaptiveTuner: finish called twice");
  classifier_.finish();
  // A pending streak shorter than the debounce at end of stream never got
  // a verdict from the classifier: it belongs to the final phase.
  while (!pending_bufs_.empty()) {
    phase_window(std::move(pending_bufs_.front()));
    pending_bufs_.pop_front();
  }
  if (classifier_.words_seen() > 0) finalize_phase(classifier_.words_seen());
  finished_ = true;
  if (metrics_enabled()) {
    std::cerr << "[phase] windows=" << classifier_.windows_completed()
              << " boundaries=" << classifier_.boundaries()
              << " blips=" << classifier_.blips()
              << " phases=" << timeline_.size() << " reuses=" << reuses_
              << " sweeps=" << sweeps_ << " swept-words=" << swept_words_
              << " table=" << table_.size() << "\n";
  }
  return timeline_;
}

void print_phase_timeline(std::ostream& os,
                          std::span<const PhaseRecord> timeline) {
  Table table({"phase", "begin", "end", "verdict", "configuration", "dist",
               "evals"});
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const PhaseRecord& r = timeline[i];
    const bool reused = r.verdict == PhaseVerdict::kReused;
    table.add_row(
        {std::to_string(i), std::to_string(r.begin), std::to_string(r.end),
         reused ? "reuse<-" + std::to_string(r.matched_phase) : "sweep",
         r.config.name(),
         r.table_distance < 0 ? "-" : fmt_double(r.table_distance, 3),
         std::to_string(r.configs_examined)});
  }
  table.print(os);
}

}  // namespace stcache
