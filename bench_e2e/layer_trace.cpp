// layer_trace — the in-process traced run of the end-to-end benchmark.
//
//   layer_trace --workload tune|space|phases|serve --requests FILE
//               --seconds S --spans OUT.jsonl [--socket PATH]
//
// Replays the seeded request list that run.py generated (one request key
// per line, the tool arguments of one end-to-end request) through the
// public calls the tools make, and records a span around every call into a
// layer: name, start, end, parent span and request id. Layer names follow
// the src/ modules (sim, trace, replay, core, phase, serve); the request
// span itself is the harness's own glue ("bench"). Spans are kept in
// memory and written as JSON lines at exit. Spans inside the program are
// not recorded: a layer's time includes whatever it calls internally.
//
// For --seconds, each request runs twice in a row, once with spans off and
// once on. The wall-time ratio of the two halves is trace.overhead_frac,
// and the traced half gives the per-layer metrics. Then each layer's
// kernel is probed once over the workload's own streams (the 38 kernel
// captures, or the opening words of the phase scenarios), so every rate
// metric is measured on every workload, including layers its path
// bypasses.
//
// The last stdout line is one JSON object: attempted, failed, errors,
// spans, the digest of every rendered exhaustive report per request key
// (run.py checks them against expected.json), and the per-layer metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "core/report.hpp"
#include "core/scaled_space.hpp"
#include "phase/adaptive.hpp"
#include "phase/classifier.hpp"
#include "phase/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "trace/replay.hpp"
#include "trace/stream.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- spans -----------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;    // index into the span list, -1 = root
  std::int64_t request;   // -1 = set-up and probes
};

// Single-threaded span recorder. Off, it records nothing; the difference
// between traced and untraced executions is what recording costs.
class Tracer {
 public:
  bool on = false;
  std::int64_t request = -1;
  std::vector<Span> spans;

  void open(const char* name) {
    if (!on) return;
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<std::int32_t>(spans.size()));
    spans.push_back({name, now_ns(), 0, parent, request});
  }
  // Closes the innermost span and returns its index (-1 when off).
  std::int32_t close() {
    if (!on) return -1;
    const std::int32_t i = stack_.back();
    stack_.pop_back();
    spans[i].end_ns = now_ns();
    return i;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::int32_t> stack_;
};

Tracer g_tracer;

struct Scope {
  explicit Scope(const char* name) { g_tracer.open(name); }
  ~Scope() { g_tracer.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

// --- counters and digests --------------------------------------------------

struct Counters {
  std::uint64_t capture_instructions = 0;  // simulated inside sim.capture
  std::uint64_t chunks = 0;
  std::uint64_t config_replays = 0;
  std::uint64_t configs_examined = 0;
  std::uint64_t phase_sweeps = 0;
  std::uint64_t phase_reuses = 0;
};
Counters g_count;

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Digest {
  std::uint64_t fnv = 0;
  std::size_t bytes = 0;
  std::uint64_t count = 0;
};

struct Run {
  std::map<std::string, Digest> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail_with(const std::string& msg) {
    ++failed;
    if (errors.size() < 20) errors.push_back(msg);
  }
  // Every rendering of one key must be the same bytes; run.py then checks
  // the first against the golden digest.
  void record(const std::string& key, const std::string& text) {
    Digest& d = digests[key];
    const std::uint64_t h = fnv1a64(text);
    if (d.count == 0) {
      d.fnv = h;
      d.bytes = text.size();
    } else if (d.fnv != h || d.bytes != text.size()) {
      fail_with("'" + key + "' rendered differently across requests");
    }
    ++d.count;
  }
};

// Evaluator decorator: a query for a configuration the memo has not seen
// replays the stream (replay.config_replay); a repeated one is a lookup.
class TracedEvaluator final : public Evaluator {
 public:
  explicit TracedEvaluator(TraceEvaluator& inner) : inner_(inner) {}
  double energy(const CacheConfig& cfg) override {
    const unsigned before = inner_.evaluations();
    g_tracer.open("replay.config_replay");
    const double e = inner_.energy(cfg);
    const std::int32_t i = g_tracer.close();
    if (inner_.evaluations() != before) {
      ++g_count.config_replays;
    } else if (i >= 0) {
      g_tracer.spans[i].name = "core.memo_lookup";
    }
    return e;
  }
  unsigned evaluations() const override { return inner_.evaluations(); }

 private:
  TraceEvaluator& inner_;
};

// --- requests --------------------------------------------------------------

std::vector<std::string> split_words(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  for (std::string w; in >> w;) out.push_back(w);
  return out;
}

struct Context {
  std::string workload;
  EnergyModel model;
  std::map<std::string, PackedCapture> captures;  // set-up, by kernel
  std::optional<serve::TuningServer> server;
  std::string socket;
  std::vector<const std::uint32_t*> session_streams;  // serve: per session
};

const std::vector<std::uint32_t>& pick(const PackedCapture& cap,
                                       bool instruction) {
  return instruction ? cap.ifetch : cap.data;
}

// stcache_tune --workload K S [--exhaustive]. The heuristic half captures
// materialized (the tool's --pipeline materialized, same output) so the
// capture is its own span; the exhaustive half streams as the tool does.
void tune_request(Context& ctx, Run& run, const std::string& key,
                  const std::vector<std::string>& w) {
  const Workload& wl = find_workload(w.at(0));
  const bool instruction = w.at(1) == "I";
  const std::vector<CacheConfig>& configs = all_configs();
  if (w.size() == 2) {
    PackedCapture cap;
    {
      Scope s("sim.capture");
      cap = capture_packed(wl);
    }
    g_count.capture_instructions += cap.run.instructions;
    Scope s("core.search");
    TraceEvaluator eval(std::span<const std::uint32_t>(pick(cap, instruction)),
                        ctx.model);
    TracedEvaluator traced(eval);
    const SearchResult heur = tune(traced);
    traced.energy(base_cache());
    g_count.configs_examined += heur.configs_examined;
    return;
  }
  BankAccumulator bank(configs);
  std::vector<std::uint32_t> sel;
  {
    Scope s("trace.stream");
    stream_workload(wl, [&](const PackedChunk& chunk) {
      Scope c("trace.consume");
      const std::span<const std::uint32_t> words =
          instruction ? chunk.ifetch_words() : chunk.data_words();
      sel.insert(sel.end(), words.begin(), words.end());
      Scope f("replay.bank_feed");
      bank.feed(words);
      ++g_count.chunks;
    });
  }
  std::vector<CacheStats> measured;
  {
    Scope s("replay.bank_stats");
    measured = bank.stats();
  }
  Scope s("core.render");
  std::ostringstream os;
  print_exhaustive_report(os, instruction, sel.size(), configs, measured,
                          ctx.model);
  run.record(key, os.str());
}

// stcache_tune --workload K S --space embedded|desktop.
void space_request(Context& ctx, const std::vector<std::string>& w) {
  const Workload& wl = find_workload(w.at(0));
  const bool instruction = w.at(1) == "I";
  const ScaledSpace space = w.at(3) == "embedded" ? ScaledSpace::embedded_32k()
                                                  : ScaledSpace::desktop_64k();
  PackedCapture cap;
  {
    Scope s("sim.capture");
    cap = capture_packed(wl);
  }
  g_count.capture_instructions += cap.run.instructions;
  const std::vector<std::uint32_t>& sel = pick(cap, instruction);
  std::vector<CacheStats> measured;
  {
    Scope s("replay.geom_bank");
    measured = measure_geometry_bank(space.configs(),
                                     std::span<const std::uint32_t>(sel));
  }
  Scope s("core.search");
  ScaledEvaluator eval(std::span<const std::uint32_t>{}, ctx.model);
  eval.prime_from(space.configs(), measured);
  const ScaledSearchResult heur = tune_scaled(eval, space);
  const ScaledSearchResult ex = tune_scaled_exhaustive(eval, space);
  g_count.configs_examined += heur.configs_examined + ex.configs_examined;
}

// stcache_tune --phases SCENARIO.
void phases_request(Context& ctx, const std::string& name) {
  PhaseMixedStream mix;
  {
    Scope s("phase.scenario_build");
    mix = build_phase_scenario(name, 1);
  }
  PhaseAdaptiveTuner tuner(all_configs(), ctx.model, PhaseTunerParams{});
  const std::span<const std::uint32_t> words(mix.words);
  constexpr std::size_t kChunk = 64 * 1024;  // the tool's feed granularity
  for (std::size_t off = 0; off < words.size(); off += kChunk) {
    Scope s("phase.tuner_feed");
    tuner.feed(words.subspan(off, std::min(kChunk, words.size() - off)));
  }
  std::vector<PhaseRecord> timeline;
  {
    Scope s("phase.finish");
    timeline = tuner.finish();
  }
  {
    Scope s("core.render");
    std::ostringstream os;
    print_phase_timeline(os, timeline);
  }
  g_count.phase_sweeps += tuner.sweeps();
  g_count.phase_reuses += tuner.reuses();
  for (const PhaseRecord& r : timeline)
    g_count.configs_examined += r.configs_examined;
}

// One stcache_tunec session over a stream captured in set-up.
void serve_request(Context& ctx, Run& run, const std::string& key,
                   const std::vector<std::string>& w) {
  const bool instruction = w.at(1) == "I";
  const std::vector<std::uint32_t>& words =
      pick(ctx.captures.at(w.at(0)), instruction);
  serve::Verdict verdict;
  {
    std::optional<serve::TuneClient> client;
    {
      Scope s("serve.connect");
      client.emplace(ctx.socket, instruction);
    }
    {
      Scope s("serve.send");
      client->send(words);
    }
    Scope s("serve.verdict_wait");
    verdict = client->finish();
  }
  if (g_tracer.on) ctx.session_streams.push_back(words.data());
  Scope s("core.render");
  std::ostringstream os;
  print_exhaustive_report(os, instruction, verdict.accesses, all_configs(),
                          verdict.stats, ctx.model);
  run.record(key, os.str());
}

void run_request(Context& ctx, Run& run, const std::string& key,
                 std::int64_t id) {
  g_tracer.request = id;
  ++run.attempted;
  try {
    Scope s("request");
    const std::vector<std::string> w = split_words(key);
    if (ctx.workload == "tune") tune_request(ctx, run, key, w);
    else if (ctx.workload == "space") space_request(ctx, w);
    else if (ctx.workload == "phases") phases_request(ctx, key);
    else serve_request(ctx, run, key, w);
  } catch (const std::exception& e) {
    run.fail_with("'" + key + "': " + e.what());
  }
  g_tracer.request = -1;
}

// --- probes ----------------------------------------------------------------

struct Rate {
  double work = 0.0;
  double seconds = 0.0;
  double per_s() const { return seconds > 0.0 ? work / seconds : 0.0; }
};

struct Probes {
  Rate bank, geom_bank, classifier, wire;
  std::map<const std::uint32_t*, double> bank_s;  // per stream, for serve
};

// Keeps the probed results observable, so no build can drop the work.
volatile std::size_t g_sink = 0;

template <typename F>
double timed(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_since(t0);
}

// Probes read at most the first 4 Mi words of a stream: every kernel
// capture fits, and the 10-19 M-word phase scenarios would otherwise make
// the geometry-bank probe outlast the traced requests.
constexpr std::size_t kProbeWords = std::size_t{1} << 22;

void probe_stream(std::span<const std::uint32_t> words, Probes& p) {
  words = words.first(std::min(words.size(), kProbeWords));
  if (words.empty()) return;
  const double n = static_cast<double>(words.size());
  const double bank_s = timed([&] {
    BankAccumulator bank(all_configs());
    bank.feed(words);
    g_sink = g_sink + bank.stats().size();
  });
  p.bank.work += n;
  p.bank.seconds += bank_s;
  p.bank_s[words.data()] = bank_s;
  static const ScaledSpace space = ScaledSpace::embedded_32k();
  p.geom_bank.work += n;
  p.geom_bank.seconds += timed([&] {
    g_sink = g_sink + measure_geometry_bank(space.configs(), words).size();
  });
  p.classifier.work += n;
  p.classifier.seconds += timed([&] {
    PhaseClassifier c(PhaseClassifier::Params{});
    c.feed(words);
    c.finish();
    g_sink = g_sink + c.windows_completed();
  });
  p.wire.work += n;
  p.wire.seconds += timed([&] {
    constexpr std::size_t kFrame = serve::TuneClient::kDefaultChunkWords;
    for (std::size_t off = 0; off < words.size(); off += kFrame) {
      const std::vector<std::uint8_t> frame = serve::encode_chunk(
          words.subspan(off, std::min(kFrame, words.size() - off)));
      g_sink = g_sink + frame[frame.size() / 2];
    }
  });
}

// --- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string layer_of(const char* span_name) {
  const char* dot = std::strchr(span_name, '.');
  return dot ? std::string(span_name, dot) : std::string("bench");
}

std::vector<Metric> layer_metrics(const Context& ctx, const Probes& probes,
                                  double overhead, std::uint64_t requests) {
  const std::vector<Span>& spans = g_tracer.spans;
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child[s.parent] += double(s.end_ns - s.start_ns);
  std::map<std::string, double> self;
  double total = 0.0, verdict_wait = 0.0, session_ns = 0.0;
  double capture_s = 0.0;
  std::vector<double> request_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = double(s.end_ns - s.start_ns);
    const std::string name = s.name;
    if (name == "sim.capture") capture_s += (dur - child[i]) * 1e-9;
    if (s.request < 0) continue;
    self[layer_of(s.name)] += dur - child[i];
    if (name == "request") {
      total += dur;
      request_ms.push_back(dur * 1e-6);
    } else if (layer_of(s.name) == "serve") {
      session_ns += dur;
      if (name == "serve.verdict_wait") verdict_wait += dur;
    }
  }
  const auto frac = [&](double ns) { return total > 0.0 ? ns / total : 0.0; };
  std::sort(request_ms.begin(), request_ms.end());
  const double p50 =
      request_ms.empty() ? 0.0 : request_ms[(request_ms.size() - 1) / 2];

  // serve.gap_ratio: session time (connect + send + verdict) over the
  // in-process bank time of the same streams, from the bank probe.
  double bank_s = 0.0;
  for (const std::uint32_t* stream : ctx.session_streams)
    bank_s += probes.bank_s.at(stream);
  const double gap = bank_s > 0.0 ? session_ns * 1e-9 / bank_s : 0.0;
  const double reuse_den = double(g_count.phase_sweeps + g_count.phase_reuses);
  return {
      {"bench.self_frac", frac(self["bench"]), "frac"},
      {"sim.self_frac", frac(self["sim"]), "frac"},
      {"sim.instr_per_s",
       capture_s > 0.0 ? double(g_count.capture_instructions) / capture_s : 0.0,
       "1/s"},
      {"trace.self_frac", frac(self["trace"]), "frac"},
      {"trace.chunks", double(g_count.chunks), "count"},
      {"replay.self_frac", frac(self["replay"]), "frac"},
      {"replay.config_replays", double(g_count.config_replays), "count"},
      {"replay.bank_words_per_s", probes.bank.per_s(), "words/s"},
      {"replay.geom_bank_words_per_s", probes.geom_bank.per_s(), "words/s"},
      {"core.self_frac", frac(self["core"]), "frac"},
      {"core.configs_examined", double(g_count.configs_examined), "count"},
      {"phase.self_frac", frac(self["phase"]), "frac"},
      {"phase.sweeps", double(g_count.phase_sweeps), "count"},
      {"phase.reuse_frac",
       reuse_den > 0.0 ? double(g_count.phase_reuses) / reuse_den : 0.0,
       "frac"},
      {"phase.classifier_words_per_s", probes.classifier.per_s(), "words/s"},
      {"serve.self_frac", frac(self["serve"]), "frac"},
      {"serve.verdict_wait_frac", frac(verdict_wait), "frac"},
      {"serve.wire_encode_words_per_s", probes.wire.per_s(), "words/s"},
      {"serve.gap_ratio", gap, "ratio"},
      {"trace.overhead_frac", overhead, "frac"},
      {"traced.request_ms_p50", p50, "ms"},
      {"traced.requests", double(requests), "count"},
  };
}

// --- output ----------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot write span file " + path);
  const std::vector<Span>& spans = g_tracer.spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  if (!out) fail("cannot write span file " + path);
}

int usage() {
  std::cerr << "usage: layer_trace --workload tune|space|phases|serve "
               "--requests FILE --seconds S --spans OUT.jsonl "
               "[--socket PATH]\n";
  return 2;
}

int run(int argc, char** argv) {
  Context ctx;
  std::string requests_path, spans_path;
  double seconds = 0.0;
  ctx.socket = "layer_trace.sock";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    if (a == "--workload") ctx.workload = argv[++i];
    else if (a == "--requests") requests_path = argv[++i];
    else if (a == "--seconds") seconds = std::atof(argv[++i]);
    else if (a == "--spans") spans_path = argv[++i];
    else if (a == "--socket") ctx.socket = argv[++i];
    else return usage();
  }
  if (ctx.workload != "tune" && ctx.workload != "space" &&
      ctx.workload != "phases" && ctx.workload != "serve")
    return usage();
  if (requests_path.empty() || spans_path.empty() || !(seconds > 0.0))
    return usage();

  std::vector<std::string> plan;
  {
    std::ifstream in(requests_path);
    for (std::string line; std::getline(in, line);)
      if (!line.empty()) plan.push_back(line);
  }
  if (plan.empty()) fail("no requests in " + requests_path);

  // Set-up: every kernel captured once (sim spans outside any request).
  // serve streams these to the daemon; the probes below replay them.
  g_tracer.on = true;
  for (const Workload& w : all_workloads()) {
    Scope s("sim.capture");
    PackedCapture cap = capture_packed(w);
    g_count.capture_instructions += cap.run.instructions;
    ctx.captures.emplace(w.name, std::move(cap));
  }
  if (ctx.workload == "serve") {
    serve::ServerOptions opts;
    opts.socket_path = ctx.socket;
    opts.workers = 2;
    ctx.server.emplace(opts);
    ctx.server->start();
  }
  g_tracer.on = false;
  const Counters setup_counts = g_count;

  // Warm-up, then every request twice in a row, once with spans off and
  // once on, alternating which goes first so drift and warm caches cancel.
  // Counters keep only the traced executions.
  Run run;
  for (std::size_t i = 0; i < std::min<std::size_t>(3, plan.size()); ++i)
    run_request(ctx, run, plan[i], -1);
  g_count = setup_counts;
  double off_s = 0.0, on_s = 0.0;
  std::size_t n = 0;
  const Clock::time_point t0 = Clock::now();
  while (n < plan.size() && (n == 0 || seconds_since(t0) < seconds)) {
    for (int k = 0; k < 2; ++k) {
      g_tracer.on = (k == 0) == (n % 2 == 1);
      const Counters before = g_count;
      const Clock::time_point r0 = Clock::now();
      run_request(ctx, run, plan[n],
                  g_tracer.on ? static_cast<std::int64_t>(n) : -1);
      (g_tracer.on ? on_s : off_s) += seconds_since(r0);
      if (!g_tracer.on) g_count = before;
    }
    ++n;
  }
  g_tracer.on = false;

  if (ctx.server) {
    ctx.server->drain(5'000);
    const std::uint64_t bad = ctx.server->sessions_poisoned() +
                              ctx.server->sessions_shed() +
                              ctx.server->sessions_timed_out();
    for (std::uint64_t i = 0; i < bad; ++i)
      run.fail_with("daemon poisoned, shed or timed out a session");
  }

  Probes probes;
  if (ctx.workload == "phases") {
    for (const PhaseScenario& sc : phase_scenarios()) {
      const PhaseMixedStream mix = build_phase_scenario(sc.name, 1);
      probe_stream(mix.words, probes);
    }
  } else {
    for (const auto& [name, cap] : ctx.captures) {
      probe_stream(cap.ifetch, probes);
      probe_stream(cap.data, probes);
    }
  }

  write_spans(spans_path);
  const std::vector<Metric> metrics =
      layer_metrics(ctx, probes, on_s / off_s - 1.0, n);

  std::ostringstream os;
  os << "{\"attempted\":" << run.attempted << ",\"failed\":" << run.failed
     << ",\"spans\":" << g_tracer.spans.size() << ",\"errors\":[";
  for (std::size_t i = 0; i < run.errors.size(); ++i)
    os << (i ? "," : "") << json_str(run.errors[i]);
  os << "],\"digests\":{";
  bool first = true;
  for (const auto& [key, d] : run.digests) {
    char fnv[17];
    std::snprintf(fnv, sizeof fnv, "%016llx",
                  static_cast<unsigned long long>(d.fnv));
    os << (first ? "" : ",") << json_str(key) << ":[\"" << fnv << "\","
       << d.bytes << "," << d.count << "]";
    first = false;
  }
  os << "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << json_str(metrics[i].name) << ":{\"value\":"
       << json_num(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace stcache

int main(int argc, char** argv) {
  try {
    return stcache::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
