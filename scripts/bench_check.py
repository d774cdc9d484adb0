#!/usr/bin/env python3
"""Gate replay-engine, capture, and serving throughput against baselines.

Usage: bench_check.py BASELINE.json FRESH.json
                      [--mode replay|serving|resilience|scaled]
                      [--tolerance FRAC]

In the default --mode replay, both files are bench_replay_throughput --out
snapshots. Four checks run:

1. Engine regression: the overall records/second of each replay engine
   (reference, fast, oneshot) must stay within the tolerance of the
   baseline (default 0.20, i.e. a fresh run slower than 80% of baseline
   fails; override with --tolerance or STCACHE_BENCH_TOLERANCE). Speedups
   are never a failure — the baseline is a floor, not a target band.
2. Capture floor: the fast interpreter's overall capture speedup over the
   reference route (capture + split + pack) must be at least
   --capture-min (default 3.0, STCACHE_CAPTURE_MIN) in the FRESH run.
3. End-to-end floor: the streaming exhaustive-tune pipeline must be at
   least --e2e-min (default 2.0, STCACHE_E2E_MIN) times faster than the
   capture-to-disk round trip in the FRESH run.
4. Parallel floor: the group-threaded parallel exhaustive sweep must
   sustain at least --parallel-min (default 5e9, STCACHE_PARALLEL_MIN)
   aggregate simulated records/second in the FRESH run. One core cannot
   outrun itself, so (like the serving scaling floor) this is enforced
   only when the fresh snapshot reports cpus >= 2; on a single-core host
   the check prints an explicit skip.

The capture/end-to-end sections also regression-compare against the
baseline when the baseline snapshot has them (older snapshots may not).

In --mode serving, both files are bench_serving --out snapshots. The
single-client and multi-client aggregate words/second must stay within the
tolerance of the baseline, and the fresh run's aggregate/single scaling
must be at least --serving-min (default 2.0, STCACHE_SERVING_MIN). One CPU
cannot run two sweep workers faster than one, so the scaling floor is
enforced only when the fresh snapshot reports cpus >= 2; on a single-core
host the check prints an explicit skip and only the rate regressions gate.

In --mode resilience, both files are bench_serving_resilience --out
snapshots. The clean and under-chaos words/second must stay within the
tolerance of the baseline, and the fresh run's chaos/clean ratio — the
clean tenant's throughput while a neighbor injects wire faults — must be
at least --resilience-min (default 0.8, STCACHE_RESILIENCE_MIN). On a
single-core host the neighbor steals real CPU from the clean tenant, so
(like the serving scaling floor) the ratio floor is enforced only when
the fresh snapshot reports cpus >= 2; the rate regressions always gate.

In --mode phase, both files are bench_phase_adaptive --out snapshots. Four
checks run on the FRESH snapshot: phase-adaptive tuning must beat the
static Fig. 6 configuration's energy on >= 2 phase-mixed scenarios; its
energy must be within --phase-oracle-max (default 0.10,
STCACHE_PHASE_ORACLE_MAX) of the per-phase oracle on >= 2 scenarios; the
overall naive/adaptive full-sweep ratio must be at least --phase-reuse-min
(default 3.0, STCACHE_PHASE_REUSE_MIN); and the classifier's overall
paired overhead on the streaming sweep pipeline must be at most
--phase-overhead-max (default 0.05, STCACHE_PHASE_OVERHEAD_MAX). The
classifier words/second must also stay within the tolerance of the
baseline. Energy and sweep counts are deterministic (bit-identical bank
stats), so only the overhead and throughput legs are wall-clock.

In --mode scaled, both files are bench_scaled_space --out snapshots. The
full embedded_32k space sweep through the generalized oneshot engine (one
nested traversal per line-size family) must be at least --scaled-min
(default 5.0, STCACHE_SCALED_MIN) times faster than the per-config fast
engine on at least two workloads in the FRESH run. The comparison is
serial engine-vs-engine (both sides single-threaded), so the floor is
armed even on one core. The overall oneshot records/second must also stay
within the tolerance of the baseline.

repro.sh runs this in full (non-sanitizer) mode; sanitizer builds skip it
because their throughput is not comparable to the committed snapshot.
"""

import argparse
import json
import os
import sys

ENGINES = ("reference", "fast", "oneshot")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def overall_rates(doc, path):
    overall = doc.get("overall")
    if not isinstance(overall, dict):
        sys.exit(f"error: {path}: no 'overall' object")
    rates = {}
    for engine in ENGINES:
        key = f"{engine}_records_per_second"
        value = overall.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            sys.exit(f"error: {path}: missing or non-positive '{key}'")
        rates[engine] = float(value)
    return rates


def section_overall(doc, section, key, path, required):
    sec = doc.get(section)
    if not isinstance(sec, dict) or not isinstance(sec.get("overall"), dict):
        if required:
            sys.exit(f"error: {path}: no '{section}.overall' object")
        return None
    value = sec["overall"].get(key)
    if not isinstance(value, (int, float)) or value <= 0:
        if required:
            sys.exit(f"error: {path}: missing or non-positive '{section}.overall.{key}'")
        return None
    return float(value)


def serving_rate(doc, section, key, path):
    sec = doc.get(section)
    if not isinstance(sec, dict):
        sys.exit(f"error: {path}: no '{section}' object")
    value = sec.get(key)
    if not isinstance(value, (int, float)) or value <= 0:
        sys.exit(f"error: {path}: missing or non-positive '{section}.{key}'")
    return float(value)


def check_serving(base_doc, fresh_doc, args):
    failed = False
    rates = (
        ("single", "single", "words_per_second"),
        ("aggregate", "multi", "aggregate_words_per_second"),
    )
    for label, section, key in rates:
        base = serving_rate(base_doc, section, key, args.baseline)
        fresh = serving_rate(fresh_doc, section, key, args.fresh)
        ratio = fresh / base
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSION"
            failed = True
        print(
            f"[bench_check] serving {label:9s} baseline {base:.3e} words/s, "
            f"fresh {fresh:.3e} words/s ({ratio:.2f}x) {status}"
        )

    scaling = fresh_doc.get("scaling")
    cpus = fresh_doc.get("cpus")
    if not isinstance(scaling, (int, float)) or scaling <= 0:
        sys.exit(f"error: {args.fresh}: missing or non-positive 'scaling'")
    if not isinstance(cpus, int) or cpus < 1:
        sys.exit(f"error: {args.fresh}: missing or non-positive 'cpus'")
    if cpus < 2:
        print(
            f"[bench_check] serving scaling   {scaling:.2f}x measured, floor "
            f"{args.serving_min:.2f}x SKIPPED (fresh run had {cpus} cpu; "
            "concurrent sessions cannot outrun one worker on one core)"
        )
    else:
        status = "ok" if scaling >= args.serving_min else "BELOW FLOOR"
        failed = failed or scaling < args.serving_min
        print(
            f"[bench_check] serving scaling   aggregate vs single "
            f"{scaling:.2f}x (floor {args.serving_min:.2f}x) {status}"
        )
    return failed


def check_resilience(base_doc, fresh_doc, args):
    for doc, path in ((base_doc, args.baseline), (fresh_doc, args.fresh)):
        if doc.get("bench") != "serving_resilience":
            sys.exit(f"error: {path}: not a serving_resilience snapshot")
    failed = False
    rates = (
        ("clean", "clean", "words_per_second"),
        ("chaos", "chaos", "words_per_second"),
    )
    for label, section, key in rates:
        base = serving_rate(base_doc, section, key, args.baseline)
        fresh = serving_rate(fresh_doc, section, key, args.fresh)
        ratio = fresh / base
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSION"
            failed = True
        print(
            f"[bench_check] resilience {label:6s} baseline {base:.3e} words/s, "
            f"fresh {fresh:.3e} words/s ({ratio:.2f}x) {status}"
        )

    ratio = fresh_doc.get("ratio")
    cpus = fresh_doc.get("cpus")
    if not isinstance(ratio, (int, float)) or ratio <= 0:
        sys.exit(f"error: {args.fresh}: missing or non-positive 'ratio'")
    if not isinstance(cpus, int) or cpus < 1:
        sys.exit(f"error: {args.fresh}: missing or non-positive 'cpus'")
    if cpus < 2:
        print(
            f"[bench_check] resilience ratio  {ratio:.2f}x measured, floor "
            f"{args.resilience_min:.2f}x SKIPPED (fresh run had {cpus} cpu; "
            "the chaos neighbor steals real CPU from the clean tenant)"
        )
    else:
        status = "ok" if ratio >= args.resilience_min else "BELOW FLOOR"
        failed = failed or ratio < args.resilience_min
        print(
            f"[bench_check] resilience ratio  clean-under-chaos "
            f"{ratio:.2f}x (floor {args.resilience_min:.2f}x) {status}"
        )
    return failed


def check_scaled(base_doc, fresh_doc, args):
    for doc, path in ((base_doc, args.baseline), (fresh_doc, args.fresh)):
        if not isinstance(doc.get("workloads"), list) or doc.get("space") is None:
            sys.exit(f"error: {path}: not a bench_scaled_space snapshot")
    failed = False

    base_rate = serving_rate(base_doc, "overall", "oneshot_records_per_second", args.baseline)
    fresh_rate = serving_rate(fresh_doc, "overall", "oneshot_records_per_second", args.fresh)
    ratio = fresh_rate / base_rate
    status = "ok"
    if ratio < 1.0 - args.tolerance:
        status = "REGRESSION"
        failed = True
    print(
        f"[bench_check] scaled oneshot   baseline {base_rate:.3e} rec/s, "
        f"fresh {fresh_rate:.3e} rec/s ({ratio:.2f}x) {status}"
    )

    # Speedup floor: serial oneshot vs serial per-config fast, per workload.
    # Engine against engine on the same core, so no cpu-count skip.
    passing = 0
    for w in fresh_doc["workloads"]:
        name = w.get("name")
        speedup = w.get("speedup")
        if not isinstance(speedup, (int, float)) or speedup <= 0:
            sys.exit(f"error: {args.fresh}: workload '{name}' has no speedup")
        mark = "meets floor" if speedup >= args.scaled_min else "below floor"
        if speedup >= args.scaled_min:
            passing += 1
        print(
            f"[bench_check] scaled sweep     {name:10s} oneshot vs fast "
            f"{speedup:.2f}x ({mark} {args.scaled_min:.2f}x)"
        )
    status = "ok" if passing >= 2 else "BELOW FLOOR"
    failed = failed or passing < 2
    print(
        f"[bench_check] scaled sweep     {passing}/{len(fresh_doc['workloads'])} "
        f"workloads >= {args.scaled_min:.2f}x (need >= 2) {status}"
    )
    return failed


def check_phase(base_doc, fresh_doc, args):
    for doc, path in ((base_doc, args.baseline), (fresh_doc, args.fresh)):
        if doc.get("bench") != "phase_adaptive":
            sys.exit(f"error: {path}: not a phase_adaptive snapshot")
    failed = False

    # Classifier throughput regression vs the committed snapshot.
    base_rate = serving_rate(
        base_doc, "overall", "classifier_words_per_second", args.baseline
    )
    fresh_rate = serving_rate(
        fresh_doc, "overall", "classifier_words_per_second", args.fresh
    )
    ratio = fresh_rate / base_rate
    status = "ok"
    if ratio < 1.0 - args.tolerance:
        status = "REGRESSION"
        failed = True
    print(
        f"[bench_check] phase classifier baseline {base_rate:.3e} words/s, "
        f"fresh {fresh_rate:.3e} words/s ({ratio:.2f}x) {status}"
    )

    scenarios = fresh_doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        sys.exit(f"error: {args.fresh}: no 'scenarios' list")
    beating = 0
    within_oracle = 0
    for s in scenarios:
        name = s.get("name")
        vs_static = s.get("adaptive_vs_static")
        vs_oracle = s.get("adaptive_vs_oracle")
        if not isinstance(vs_static, (int, float)) or not isinstance(
            vs_oracle, (int, float)
        ):
            sys.exit(f"error: {args.fresh}: scenario '{name}' has no gaps")
        if vs_static < 0:
            beating += 1
        if vs_oracle <= args.phase_oracle_max:
            within_oracle += 1
        print(
            f"[bench_check] phase scenario   {name:10s} vs static "
            f"{vs_static:+.2%}, vs oracle {vs_oracle:+.2%}"
        )
    status = "ok" if beating >= 2 else "BELOW FLOOR"
    failed = failed or beating < 2
    print(
        f"[bench_check] phase energy     beats static on {beating}/"
        f"{len(scenarios)} scenarios (need >= 2) {status}"
    )
    status = "ok" if within_oracle >= 2 else "BELOW FLOOR"
    failed = failed or within_oracle < 2
    print(
        f"[bench_check] phase oracle     within {args.phase_oracle_max:.0%} of "
        f"oracle on {within_oracle}/{len(scenarios)} scenarios (need >= 2) "
        f"{status}"
    )

    # Search-reduction floor: full sweeps issued, naive / distance-mapped.
    sweep_ratio = serving_rate(fresh_doc, "overall", "sweep_ratio", args.fresh)
    status = "ok" if sweep_ratio >= args.phase_reuse_min else "BELOW FLOOR"
    failed = failed or sweep_ratio < args.phase_reuse_min
    print(
        f"[bench_check] phase reuse      naive/adaptive sweeps "
        f"{sweep_ratio:.2f}x (floor {args.phase_reuse_min:.2f}x) {status}"
    )

    # Classifier overhead ceiling on the streaming sweep pipeline. The
    # paired estimator can come out slightly negative in noise; anything
    # at or under the ceiling passes.
    overhead = fresh_doc.get("overall", {}).get("overhead")
    if not isinstance(overhead, (int, float)):
        sys.exit(f"error: {args.fresh}: missing 'overall.overhead'")
    status = "ok" if overhead <= args.phase_overhead_max else "ABOVE CEILING"
    failed = failed or overhead > args.phase_overhead_max
    print(
        f"[bench_check] phase overhead   classifier on sweep pipeline "
        f"{overhead:+.2%} (ceiling {args.phase_overhead_max:.0%}) {status}"
    )
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--mode",
        choices=("replay", "serving", "resilience", "scaled", "phase"),
        default="replay",
        help="which bench snapshot pair is being gated (default replay)",
    )
    parser.add_argument(
        "--serving-min",
        type=float,
        default=float(os.environ.get("STCACHE_SERVING_MIN", "2.0")),
        help="minimum aggregate-vs-single serving scaling (default 2.0)",
    )
    parser.add_argument(
        "--resilience-min",
        type=float,
        default=float(os.environ.get("STCACHE_RESILIENCE_MIN", "0.8")),
        help="minimum clean-under-chaos throughput ratio (default 0.8)",
    )
    parser.add_argument(
        "--scaled-min",
        type=float,
        default=float(os.environ.get("STCACHE_SCALED_MIN", "5.0")),
        help="minimum oneshot-vs-fast scaled-space sweep speedup (default 5.0)",
    )
    parser.add_argument(
        "--phase-oracle-max",
        type=float,
        default=float(os.environ.get("STCACHE_PHASE_ORACLE_MAX", "0.10")),
        help="maximum adaptive-vs-oracle energy gap per scenario (default 0.10)",
    )
    parser.add_argument(
        "--phase-reuse-min",
        type=float,
        default=float(os.environ.get("STCACHE_PHASE_REUSE_MIN", "3.0")),
        help="minimum naive/adaptive full-sweep ratio (default 3.0)",
    )
    parser.add_argument(
        "--phase-overhead-max",
        type=float,
        default=float(os.environ.get("STCACHE_PHASE_OVERHEAD_MAX", "0.05")),
        help="maximum classifier overhead on the sweep pipeline (default 0.05)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("STCACHE_BENCH_TOLERANCE", "0.20")),
        help="allowed fractional regression per engine (default 0.20)",
    )
    parser.add_argument(
        "--capture-min",
        type=float,
        default=float(os.environ.get("STCACHE_CAPTURE_MIN", "3.0")),
        help="minimum fast-vs-reference capture speedup (default 3.0)",
    )
    parser.add_argument(
        "--e2e-min",
        type=float,
        default=float(os.environ.get("STCACHE_E2E_MIN", "2.0")),
        help="minimum streaming-vs-disk end-to-end speedup (default 2.0)",
    )
    parser.add_argument(
        "--parallel-min",
        type=float,
        default=float(os.environ.get("STCACHE_PARALLEL_MIN", "5e9")),
        help="minimum aggregate parallel-sweep records/second (default 5e9)",
    )
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        sys.exit("error: --tolerance must be in [0, 1)")

    base_doc = load(args.baseline)
    fresh_doc = load(args.fresh)

    if args.mode == "serving":
        if check_serving(base_doc, fresh_doc, args):
            print(
                "[bench_check] FAILED: a serving gate fell below its floor; "
                "investigate or regenerate the baseline if intended."
            )
            return 1
        print("[bench_check] all serving gates passed")
        return 0

    if args.mode == "phase":
        if check_phase(base_doc, fresh_doc, args):
            print(
                "[bench_check] FAILED: a phase-adaptive gate fell below its "
                "floor; investigate or regenerate the baseline if intended."
            )
            return 1
        print("[bench_check] all phase-adaptive gates passed")
        return 0

    if args.mode == "scaled":
        if check_scaled(base_doc, fresh_doc, args):
            print(
                "[bench_check] FAILED: a scaled-sweep gate fell below its "
                "floor; investigate or regenerate the baseline if intended."
            )
            return 1
        print("[bench_check] all scaled-sweep gates passed")
        return 0

    if args.mode == "resilience":
        if check_resilience(base_doc, fresh_doc, args):
            print(
                "[bench_check] FAILED: a resilience gate fell below its "
                "floor; investigate or regenerate the baseline if intended."
            )
            return 1
        print("[bench_check] all resilience gates passed")
        return 0

    base = overall_rates(base_doc, args.baseline)
    fresh = overall_rates(fresh_doc, args.fresh)

    failed = False
    for engine in ENGINES:
        ratio = fresh[engine] / base[engine]
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSION"
            failed = True
        print(
            f"[bench_check] {engine:9s} baseline {base[engine]:.3e} rec/s, "
            f"fresh {fresh[engine]:.3e} rec/s ({ratio:.2f}x) {status}"
        )

    # Absolute floors on the fresh run (the PR acceptance metrics).
    capture = section_overall(fresh_doc, "capture", "speedup", args.fresh, True)
    status = "ok" if capture >= args.capture_min else "BELOW FLOOR"
    failed = failed or capture < args.capture_min
    print(
        f"[bench_check] capture   fast vs reference {capture:.2f}x "
        f"(floor {args.capture_min:.2f}x) {status}"
    )
    e2e = section_overall(fresh_doc, "end_to_end", "speedup", args.fresh, True)
    status = "ok" if e2e >= args.e2e_min else "BELOW FLOOR"
    failed = failed or e2e < args.e2e_min
    print(
        f"[bench_check] end2end   streaming vs disk {e2e:.2f}x "
        f"(floor {args.e2e_min:.2f}x) {status}"
    )

    # Parallel aggregate floor: only meaningful with real parallelism.
    par_sec = fresh_doc.get("parallel")
    if not isinstance(par_sec, dict):
        sys.exit(f"error: {args.fresh}: no 'parallel' section")
    par_cpus = par_sec.get("cpus")
    if not isinstance(par_cpus, int) or par_cpus < 1:
        sys.exit(f"error: {args.fresh}: missing or non-positive 'parallel.cpus'")
    par = section_overall(
        fresh_doc, "parallel", "aggregate_records_per_second", args.fresh, True
    )
    if par_cpus < 2:
        print(
            f"[bench_check] parallel  {par:.3e} rec/s measured, floor "
            f"{args.parallel_min:.2e} rec/s SKIPPED (fresh run had "
            f"{par_cpus} cpu; sharded sweep cannot outrun serial on one core)"
        )
    else:
        status = "ok" if par >= args.parallel_min else "BELOW FLOOR"
        failed = failed or par < args.parallel_min
        print(
            f"[bench_check] parallel  aggregate {par:.3e} rec/s "
            f"(floor {args.parallel_min:.2e} rec/s) {status}"
        )

    # Rate regressions for the capture section when the baseline has it.
    base_cap = section_overall(
        base_doc, "capture", "fast_instructions_per_second", args.baseline, False
    )
    fresh_cap = section_overall(
        fresh_doc, "capture", "fast_instructions_per_second", args.fresh, True
    )
    if base_cap is not None:
        ratio = fresh_cap / base_cap
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSION"
            failed = True
        print(
            f"[bench_check] capture   baseline {base_cap:.3e} instr/s, "
            f"fresh {fresh_cap:.3e} instr/s ({ratio:.2f}x) {status}"
        )

    if failed:
        print(
            "[bench_check] FAILED: a throughput gate fell below its floor; "
            "investigate or regenerate the baseline if the change is intended."
        )
        return 1
    print("[bench_check] all throughput gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
