// bench_fault_resilience — how much energy does the self-tuning heuristic
// lose when its measurement counters arrive corrupted, with and without the
// hardened tuner's plausibility guards?
//
// Methodology. For every benchmark's instruction stream the 27-point
// configuration space is measured once (a parallel sweep job per
// benchmark), and a BankTunerPort then serves every tuning session from
// that bank, so thousands of faulty sessions cost table lookups instead of
// trace replays. The fault-free FSMD choice is the drift reference. Then,
// per (benchmark x fault rate x trial), a FaultInjector running the default
// campaign (drop / bit-flip / saturate / coherent noise in equal parts,
// seeded per-trial via FaultPlan::reseeded) is interposed on the counter
// path and the tuner runs twice: guarded (TunerGuards defaults) and
// unguarded (TunerGuards::off). Each run's chosen configuration is scored
// with its CLEAN energy; drift is that energy relative to the fault-free
// choice, and the table reports the worst drift over the trials.
//
// The stdout table is byte-identical for any --jobs value: the sweep is
// index-keyed and every fault stream is a pure function of
// (benchmark, rate, trial), never of scheduling.
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ports.hpp"
#include "core/tuner_fsmd.hpp"
#include "fault/fault.hpp"
#include "util/error.hpp"

namespace stcache::bench {
namespace {

constexpr double kRates[] = {0.0025, 0.01, 0.05};  // corrupted-interval rates
constexpr int kTrials = 32;                        // fault streams per cell
constexpr std::uint64_t kCampaignSeed = 0xFA17CA5E;
// The acceptance bar: the guarded tuner must stay within 5% of the
// fault-free choice at the default (1%) campaign rate.
constexpr double kDriftBudget = 0.05;
constexpr double kDefaultRate = 0.01;

struct WorkloadBank {
  const std::string* name;
  const Trace* stream;
  std::vector<CacheStats> stats;  // one per all_configs() entry
};

int run_bench(const BenchOptions& opts) {
  print_header(
      "Tuner energy drift under injected counter faults, guarded vs. "
      "unguarded",
      "robustness extension; fault model in docs/robustness.md");

  const EnergyModel model;
  const TimingParams timing;
  const std::vector<NamedSplitTrace> traces = ordered_split_traces();
  const std::vector<CacheConfig>& cfgs = all_configs();

  // Phase 1: one sweep job per benchmark measures the full bank.
  SweepRunner runner(opts.sweep);
  std::vector<WorkloadBank> banks = runner.map<WorkloadBank>(
      traces.size(),
      [&](std::size_t w) {
        WorkloadBank bank;
        bank.name = traces[w].name;
        bank.stream = &traces[w].split->ifetch;
        BankAccumulator acc(cfgs, timing);
        acc.feed(pack_stream(*bank.stream));
        bank.stats = acc.stats();
        runner.add_accesses(bank.stream->size() * cfgs.size());
        return bank;
      },
      [&](std::size_t w) { return *traces[w].name + " x 27-config bank"; });

  // Clean (double-precision) energy of one configuration, from the bank.
  auto clean_energy = [&](const WorkloadBank& bank, const CacheConfig& cfg) {
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      if (cfgs[i] == cfg) return model.evaluate(cfg, bank.stats[i]).total();
    }
    fail("bench_fault_resilience: choice outside the bank");
  };

  Table table({"Ben.", "fault-free choice", "grd 0.25%", "ungrd 0.25%",
               "grd 1%", "ungrd 1%", "grd 5%", "ungrd 5%"});

  double worst_guarded_default = 0.0;
  unsigned unguarded_breaches_default = 0;
  std::uint64_t faults_total = 0;
  std::uint64_t retries_total = 0;
  std::uint64_t exhausted_sessions = 0;

  for (std::size_t w = 0; w < banks.size(); ++w) {
    const WorkloadBank& bank = banks[w];
    const unsigned shift = TunerFsmd::shift_for(bank.stream->size() * 4);

    // Fault-free reference: guarded and unguarded walks must agree on a
    // pristine port (the guards are free when nothing fires).
    BankTunerPort clean_port(cfgs, bank.stats);
    TunerFsmd ref_tuner(model, timing, shift);
    const TunerFsmd::Result ref = ref_tuner.run(clean_port);
    {
      BankTunerPort port2(cfgs, bank.stats);
      TunerFsmd off_tuner(model, timing, shift, TunerGuards::off());
      const TunerFsmd::Result off = off_tuner.run(port2);
      if (!(off.best == ref.best)) {
        fail("bench_fault_resilience: guards changed the zero-fault walk on " +
             *bank.name);
      }
    }
    const double ref_energy = clean_energy(bank, ref.best);

    std::vector<std::string> row = {*bank.name, ref.best.name()};
    for (std::size_t ri = 0; ri < std::size(kRates); ++ri) {
      double worst[2] = {0.0, 0.0};  // [guarded, unguarded] max drift
      for (int trial = 0; trial < kTrials; ++trial) {
        const FaultPlan plan =
            FaultPlan::campaign(kRates[ri], kCampaignSeed)
                .reseeded((w * std::size(kRates) + ri) * kTrials +
                          static_cast<std::uint64_t>(trial));
        for (int mode = 0; mode < 2; ++mode) {
          const bool guarded = mode == 0;
          FaultInjector injector(plan);
          BankTunerPort bank_port(cfgs, bank.stats);
          TappedTunerPort port(bank_port, injector);
          TunerFsmd tuner(model, timing, shift,
                          guarded ? TunerGuards{} : TunerGuards::off());
          const TunerFsmd::Result r = tuner.run(port);
          const double drift = clean_energy(bank, r.best) / ref_energy - 1.0;
          worst[mode] = std::max(worst[mode], drift);
          faults_total += injector.faults_injected();
          if (guarded) {
            retries_total += r.remeasurements;
            if (r.guard_exhausted) ++exhausted_sessions;
          }
        }
      }
      row.push_back(fmt_percent(worst[0], 1));
      row.push_back(fmt_percent(worst[1], 1));
      if (kRates[ri] == kDefaultRate) {
        worst_guarded_default = std::max(worst_guarded_default, worst[0]);
        if (worst[1] > kDriftBudget) ++unguarded_breaches_default;
      }
    }
    table.add_row(row);
  }
  table.print(std::cout);

  std::cout << "\nEach cell: worst clean-energy drift from the fault-free "
               "choice over "
            << kTrials << " seeded fault streams (default campaign: drop / "
            << "bit-flip / saturate / coherent noise in equal parts).\n";
  std::cout << "At the default 1% corrupted-interval rate:\n";
  std::cout << "  guarded worst drift:   " << fmt_percent(worst_guarded_default, 2)
            << " (budget " << fmt_percent(kDriftBudget, 0) << ")\n";
  std::cout << "  unguarded breaches:    " << unguarded_breaches_default << "/"
            << banks.size() << " benchmarks beyond the budget\n";
  std::cout << "Fault accounting across all campaigns: " << faults_total
            << " faults injected, " << retries_total
            << " guard re-measurements, " << exhausted_sessions
            << " guarded sessions exhausted.\n";

  finish_sweep(runner, opts);
  return 0;
}

}  // namespace
}  // namespace stcache::bench

int main(int argc, char** argv) {
  const auto opts = stcache::bench::parse_bench_args(argc, argv);
  try {
    return stcache::bench::run_bench(opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
