#!/bin/sh
# Reproduce everything: build, run the full test suite, and regenerate every
# table/figure harness. Outputs land in test_output.txt and bench_output.txt
# at the repository root (the files EXPERIMENTS.md numbers come from).
#
#   ./repro.sh           full pipeline (build, all tests, TSan sweep+bank
#                        threading+stream+serving+chaos+phase tests, the
#                        concurrent scenario builds and
#                        the kernel-registry race,
#                        ASan/UBSan fault+trace-reader+bank threading
#                        +interpreter+crc32+serving+wire+chaos+phase
#                        +synthetic+search tests, the one bench gate
#                        over the five BENCH_*.json snapshots (replay,
#                        serving, resilience, scaled, phase), the --sweep-jobs,
#                        trace-file, scaled-space, serving (serial and
#                        threaded daemon) and phase-timeline determinism
#                        gates, every bench binary)
#   ./repro.sh --quick   build + the parallel-sweep, streaming and serving
#                        tests (native, TSan, one chaos campaign; the
#                        kernel-registry race and the concurrent scenario
#                        builds under TSan) + the
#                        fault-injection, trace-reader (every
#                        single-byte mutant, a 2 M-record RSS pass),
#                        replay-equivalence, stack-sweep, bank-threading,
#                        fast-interpreter differential, stream, CRC-32,
#                        serving, wire and chaos tests (native and
#                        ASan/UBSan) + the search-layer tests (heuristic,
#                        exhaustive, evaluators, scaled and two-level spaces,
#                        tuner FSMD and stepper; native and ASan/UBSan)
#                        + --jobs/--sweep-jobs determinism checks on
#                        bench_fig3 and stcache_tune (heuristic and
#                        --exhaustive), the trace-file vs workload-mode
#                        cmps (heuristic, --exhaustive and --space),
#                        the --space and --phases cmps
#                        across --sweep-jobs values, + the daemon-vs-
#                        in-process serving cmp (serial and threaded
#                        daemon); minutes, not the full regeneration
# See docs/experiments.md for what each bench binary reproduces.
set -e
cd "$(dirname "$0")"

QUICK=0
[ "$1" = "--quick" ] && QUICK=1

# No -G: respect whatever generator an existing build/ was configured with
# (fresh checkouts get the platform default; Ninja works fine if you prefer
# it — configure once by hand).
cmake -B build -S .
cmake --build build -j "$(nproc)"

# The sweep engine's and streaming pipeline's tests also run under
# ThreadSanitizer: data races in the thread pool, in shared sweep state, or
# in the SPSC chunk queue between the capture and consumer threads would
# pass the functional tests by luck, so the concurrency test binaries are
# rebuilt with -DSTCACHE_SANITIZE=thread and executed directly. The
# sharded N-producer queues and the tuning server (accept thread, reader
# threads, shard workers, client threads) join them for the same reason.
cmake -B build-tsan -S . -DSTCACHE_SANITIZE=thread > /dev/null
cmake --build build-tsan -j "$(nproc)" --target thread_pool_test sweep_runner_test sharded_sweep_test stream_test shard_queue_test serving_test serving_resilience_test phase_test phase_mix_test workloads_test
./build-tsan/tests/thread_pool_test
./build-tsan/tests/sweep_runner_test
# A threaded bank hands each feed's line-size groups to pool workers that
# read the caller's chunk and write their own group's sim, group by group
# across feeds; the exactness tests re-run under TSan so a missed
# synchronization point in the pool handoff cannot hide behind results
# that are deterministic by luck.
./build-tsan/tests/sharded_sweep_test
./build-tsan/tests/stream_test
./build-tsan/tests/shard_queue_test
./build-tsan/tests/serving_test
# The chaos campaigns race a misbehaving wire client against clean tenants,
# server timeouts, and a drain — the richest thread interleavings the
# serving stack has; TSan must stay silent through all of them. --quick
# picks one campaign; the full run replays all five fault classes.
RESILIENCE_FILTER=
[ "$QUICK" = "1" ] && RESILIENCE_FILTER='--gtest_filter=ServingResilience.CorruptFrameCampaign:ServingResilience.GracefulDrainFinishesInFlightAndRefusesNew'
./build-tsan/tests/serving_resilience_test $RESILIENCE_FILTER
# The phase-adaptive tuner drives threaded bank sweeps from inside a
# streaming classifier; its reference/--sweep-jobs equivalence tests re-run
# under TSan so the sweep handoff stays clean when the tuner owns the
# threads.
./build-tsan/tests/phase_test
# A phase scenario captures its kernel sources on one thread each and joins
# them in plan order; the scenario cases build every scenario that way
# (about 45 s under TSan).
./build-tsan/tests/phase_mix_test '--gtest_filter=PhaseScenarioStream.*:PhaseMix.ScenarioCatalogAndDeterminism'
# find_workload builds a kernel on its first lookup from any thread; eight
# threads race that first build, which must happen once.
./build-tsan/tests/workloads_test --gtest_filter=Workloads.RacingFirstLookupsBuildOneKernel

# The fault-injection, trace-format, replay-equivalence and stack-sweep
# tests run under Address/UB sanitizers too: they exercise bit-level
# corruption, CRC footers, retry paths, and the fast/sweep kernels' SoA
# indexing / bitmap arithmetic, where an off-by-one would read out of
# bounds without necessarily failing a functional assertion.
# fast_cpu_test and stream_test join them: the fast interpreter's
# bump-pointer trace cursors and SMC rollback arithmetic are exactly the
# kind of code where an off-by-one scribbles out of bounds silently.
# shard_queue_test and serving_test run here too: the wire codec's
# length-prefixed frame parsing and the chunk pool's recycled buffers are
# classic overrun territory. sharded_sweep_test joins them: it drives
# NestedSweepSim's per-group stats path, which settles open dirty epochs
# into a copy of the write-back counters by level and way offsets.
cmake -B build-asan -S . -DSTCACHE_SANITIZE=address,undefined > /dev/null
cmake --build build-asan -j "$(nproc)" --target fault_test trace_io_test replay_equivalence_test stack_sweep_test sharded_sweep_test fast_cpu_test stream_test crc32_test shard_queue_test serving_test wire_test serving_resilience_test phase_test phase_mix_test trace_test heuristic_test evaluator_test scaled_space_test multilevel_test tuner_fsmd_test tuner_stepper_test search_test
./build-asan/tests/fault_test
# The STCT reader decodes untrusted bytes: chunk slices of a reused
# buffer, a hand-decoded header and footer, every single-byte mutant of a
# small file. That is where an off-by-one reads out of bounds without
# failing a functional assertion. The 100 M-record RSS-bound test runs
# here too — --quick trims it to 2 M records to stay fast; the full run
# keeps the acceptance-size pass.
if [ "$QUICK" = "1" ]; then
  STCACHE_BIG_TRACE_RECORDS=2000000 ./build-asan/tests/trace_io_test
else
  ./build-asan/tests/trace_io_test
fi
./build-asan/tests/replay_equivalence_test
./build-asan/tests/stack_sweep_test
./build-asan/tests/sharded_sweep_test
./build-asan/tests/fast_cpu_test
./build-asan/tests/stream_test
# The slicing-by-16 CRC-32 indexes sixteen tables from loaded words and
# hands every unaligned tail to the byte loop: its property test walks
# every length and start offset, where an over-read would hide.
./build-asan/tests/crc32_test
./build-asan/tests/shard_queue_test
./build-asan/tests/serving_test
# wire_test feeds the frame codec torn prefixes, oversized declarations and
# zero-length payloads; serving_resilience_test feeds the whole server
# corrupted and truncated frames — precisely where an overrun would hide.
# --quick picks one chaos campaign (same filter as the TSan leg).
./build-asan/tests/wire_test
./build-asan/tests/serving_resilience_test $RESILIENCE_FILTER
# The phase classifier's sampled bitmap/histogram indexing and the phase
# table's nearest-neighbor scan are raw-array arithmetic over packed
# streams; the composer and the streamed scenario do cursor arithmetic
# over borrowed spans. Both suites re-run under ASan/UBSan where an
# off-by-one cannot hide. phase_mix_test's scale-8 RSS bound runs here at
# full size: the tuner recycles its window buffers, so ASan's quarantine
# does not fill with freed windows.
./build-asan/tests/phase_test
./build-asan/tests/phase_mix_test
# The parser-like generator's Zipf sampler reads guide[b + 1] for its last
# bucket, and the packed generator writes into a precomputed reservation.
./build-asan/tests/trace_test
# Every search runs through core/search.hpp's walks over descriptor-keyed
# memo evaluators whose stats() references must survive memo growth; the
# search suites re-run here so a dangling reference or an out-of-range axis
# value cannot hide behind a passing assertion.
./build-asan/tests/heuristic_test
./build-asan/tests/evaluator_test
./build-asan/tests/scaled_space_test
./build-asan/tests/multilevel_test
./build-asan/tests/tuner_fsmd_test
./build-asan/tests/tuner_stepper_test
./build-asan/tests/search_test

# Serving determinism gate helpers: a loopback stcache_tuned daemon must
# render verdicts byte-identical to the in-process `stcache_tune
# --exhaustive` on the same stream (same bank, same renderer, a socket in
# between). The daemon is started once per batch, with any extra flags
# given, and shut down via SIGTERM, which must itself exit 0.
start_serving_daemon() {
    STC_SRVDIR=$(mktemp -d /tmp/stcreproXXXXXX)
    STC_SOCK="$STC_SRVDIR/repro.sock"
    ./build/tools/stcache_tuned --socket "$STC_SOCK" "$@" > "$STC_SRVDIR/log" 2>&1 &
    STC_SRVPID=$!
    i=0
    until grep -q '^listening on ' "$STC_SRVDIR/log" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 100 ] || ! kill -0 "$STC_SRVPID" 2>/dev/null; then
            echo "error: stcache_tuned did not become ready" >&2
            cat "$STC_SRVDIR/log" >&2
            exit 1
        fi
        sleep 0.1
    done
}
stop_serving_daemon() {
    kill -TERM "$STC_SRVPID"
    wait "$STC_SRVPID"
    rm -rf "$STC_SRVDIR"
}
serve_cmp() {
    ./build/tools/stcache_tunec --socket "$STC_SOCK" --workload "$1" "$2" > /tmp/stcache_serve_remote.txt
    ./build/tools/stcache_tune --workload "$1" "$2" --exhaustive --sweep-jobs 1 > /tmp/stcache_serve_local.txt
    cmp /tmp/stcache_serve_remote.txt /tmp/stcache_serve_local.txt
}

if [ "$QUICK" = "1" ]; then
    STCACHE_BIG_TRACE_RECORDS=2000000 ctest --test-dir build -R 'ThreadPool|SweepRunner|ShardedSweep|Fault|TraceIo|MmapTrace|ReplayEquivalence|StackSweep|FastCpu|Workload|Spsc|Stream|BankAccumulator|PackedTraceIo|Crc32|ChunkPool|ShardQueue|Serving|Wire|Phase|Heuristic|Exhaustive|ParamOrders|AscendingCandidates|TraceEvaluator|ScaledEvaluator|ScaledSpace|ScaledTune|TwoLevel|TunerFsmdTest|TunerStepperTest|SearchLayer|_rejects_bad_flags' --output-on-failure

    # Determinism gate: the parallel sweep must reproduce the serial table
    # byte for byte (metrics go to stderr, so stdout is comparable).
    ./build/bench/bench_fig3_icache_space --jobs 1 > /tmp/stcache_fig3_j1.txt
    ./build/bench/bench_fig3_icache_space --jobs "$(nproc)" > /tmp/stcache_fig3_jn.txt
    cmp /tmp/stcache_fig3_j1.txt /tmp/stcache_fig3_jn.txt
    # Baselines for the tune gates below: the serial workload-mode
    # exhaustive and heuristic tunes (capture streamed into the bank).
    # stcache_tune's bank defaults to the host's cores, so every baseline
    # pins --sweep-jobs 1.
    ./build/tools/stcache_tune --workload crc --exhaustive --sweep-jobs 1 > /tmp/stcache_tune_stream.txt
    ./build/tools/stcache_tune --workload crc --sweep-jobs 1 > /tmp/stcache_tune_heur.txt
    # --sweep-jobs gate: the threaded bank must reproduce the serial
    # exhaustive and heuristic tunes byte for byte; 2 threads share three
    # line-size groups, 4 and 7 clamp to one thread per group.
    for sj in 2 4 7; do
        ./build/tools/stcache_tune --workload crc --exhaustive --sweep-jobs "$sj" > /tmp/stcache_tune_sj.txt
        cmp /tmp/stcache_tune_stream.txt /tmp/stcache_tune_sj.txt
        ./build/tools/stcache_tune --workload crc --sweep-jobs "$sj" > /tmp/stcache_tune_sj.txt
        cmp /tmp/stcache_tune_heur.txt /tmp/stcache_tune_sj.txt
    done
    # Trace-file gate: the file reader, serial and with a threaded bank,
    # must reproduce the workload-mode run of the same stream byte for
    # byte, for the platform bank (exhaustive and heuristic) and for the
    # streamed --space bank.
    ./build/tools/stcache_trace capture crc /tmp/stcache_repro.stct
    for sj in 1 4; do
        ./build/tools/stcache_tune /tmp/stcache_repro.stct --exhaustive --sweep-jobs "$sj" > /tmp/stcache_tune_file.txt
        cmp /tmp/stcache_tune_stream.txt /tmp/stcache_tune_file.txt
        ./build/tools/stcache_tune /tmp/stcache_repro.stct --sweep-jobs "$sj" > /tmp/stcache_tune_file.txt
        cmp /tmp/stcache_tune_heur.txt /tmp/stcache_tune_file.txt
    done
    ./build/tools/stcache_tune --workload crc I --space embedded --sweep-jobs 1 > /tmp/stcache_tune_space.txt
    ./build/tools/stcache_tune /tmp/stcache_repro.stct I --space embedded > /tmp/stcache_tune_file.txt
    cmp /tmp/stcache_tune_space.txt /tmp/stcache_tune_file.txt
    rm -f /tmp/stcache_repro.stct
    # Scaled-space gate: the generalized sweep's --space report must be
    # byte-identical across --sweep-jobs values.
    ./build/tools/stcache_tune --workload crc I --space embedded --sweep-jobs 4 > /tmp/stcache_tune_space_v.txt
    cmp /tmp/stcache_tune_space.txt /tmp/stcache_tune_space_v.txt
    # Phase-timeline gate: the per-phase tuning timeline (verdicts,
    # configs, distances) must be byte-identical across --sweep-jobs values
    # on a phase-mixed scenario.
    ./build/tools/stcache_tune --phases squarewave --sweep-jobs 1 > /tmp/stcache_tune_phase.txt
    ./build/tools/stcache_tune --phases squarewave --sweep-jobs 4 > /tmp/stcache_tune_phase_v.txt
    cmp /tmp/stcache_tune_phase.txt /tmp/stcache_tune_phase_v.txt
    # Serving gate: a daemon round trip must be byte-identical too, with
    # each session's bank serial and on three threads.
    start_serving_daemon
    serve_cmp crc I
    stop_serving_daemon
    start_serving_daemon --sweep-jobs 3
    serve_cmp crc I
    stop_serving_daemon
    echo "Quick pass done: sweep/equivalence/interpreter/serving tests (native + sanitizers), --jobs, --sweep-jobs (heuristic and --exhaustive), trace-file, --space, --phases and daemon determinism ok."
    exit 0
fi

ctest --test-dir build 2>&1 | tee test_output.txt

# --sweep-jobs and trace-file determinism gates: thread counts (7 clamps
# to the three line-size groups), the file reader, and the file reader with
# a threaded bank must all reproduce the serial workload-mode output byte
# for byte, for --exhaustive and for the Fig. 6 heuristic, which read the
# same streamed 27-config bank. stcache_tune's bank defaults to the host's
# cores, so every baseline pins --sweep-jobs 1. The file reader's streamed
# --space report must match the workload mode's too.
for wl in crc ucbqsort; do
  for streamsel in I D; do
    ./build/tools/stcache_trace capture "$wl" /tmp/stcache_repro.stct
    for mode in --exhaustive ""; do
      # $mode is left unquoted: the heuristic passes no mode flag at all.
      ./build/tools/stcache_tune --workload "$wl" "$streamsel" $mode --sweep-jobs 1 > /tmp/stcache_tune_serial.txt
      for sj in 2 4 7; do
        ./build/tools/stcache_tune --workload "$wl" "$streamsel" $mode --sweep-jobs "$sj" > /tmp/stcache_tune_sj.txt
        cmp /tmp/stcache_tune_serial.txt /tmp/stcache_tune_sj.txt
      done
      for sj in 1 4; do
        ./build/tools/stcache_tune /tmp/stcache_repro.stct "$streamsel" $mode --sweep-jobs "$sj" > /tmp/stcache_tune_file.txt
        cmp /tmp/stcache_tune_serial.txt /tmp/stcache_tune_file.txt
      done
    done
    ./build/tools/stcache_tune --workload "$wl" "$streamsel" --space embedded --sweep-jobs 1 > /tmp/stcache_tune_serial.txt
    ./build/tools/stcache_tune /tmp/stcache_repro.stct "$streamsel" --space embedded > /tmp/stcache_tune_file.txt
    cmp /tmp/stcache_tune_serial.txt /tmp/stcache_tune_file.txt
    rm -f /tmp/stcache_repro.stct
  done
done
echo "[repro] --sweep-jobs and trace-file tune determinism ok"

# Scaled-space tune determinism gate: the --space report (generalized
# sweep over 64 generic geometries, integer counts per config) must be
# byte-identical across --sweep-jobs values, each in a fresh process.
for wl in crc ucbqsort; do
  for streamsel in I D; do
    ./build/tools/stcache_tune --workload "$wl" "$streamsel" --space embedded --sweep-jobs 1 > /tmp/stcache_tune_space.txt
    for sj in 2 4; do
      ./build/tools/stcache_tune --workload "$wl" "$streamsel" --space embedded --sweep-jobs "$sj" > /tmp/stcache_tune_space_v.txt
      cmp /tmp/stcache_tune_space.txt /tmp/stcache_tune_space_v.txt
    done
    ./build/tools/stcache_tune --workload "$wl" "$streamsel" --space desktop --sweep-jobs 1 > /tmp/stcache_tune_space.txt
    ./build/tools/stcache_tune --workload "$wl" "$streamsel" --space desktop --sweep-jobs 4 > /tmp/stcache_tune_space_v.txt
    cmp /tmp/stcache_tune_space.txt /tmp/stcache_tune_space_v.txt
  done
done
echo "[repro] scaled-space tune determinism ok"

# Phase-timeline determinism gate: the phase-adaptive tuner's per-phase
# timeline must be byte-identical across --sweep-jobs values on every named
# scenario, each in a fresh process (the classifier samples on global
# stream offsets and bank stats are bit-identical, so any divergence is a
# real bug, not jitter).
for scen in squarewave taskset datamix; do
  ./build/tools/stcache_tune --phases "$scen" --sweep-jobs 1 > /tmp/stcache_tune_phase.txt
  for sj in 2 4; do
    ./build/tools/stcache_tune --phases "$scen" --sweep-jobs "$sj" > /tmp/stcache_tune_phase_v.txt
    cmp /tmp/stcache_tune_phase.txt /tmp/stcache_tune_phase_v.txt
  done
done
echo "[repro] phase-timeline determinism ok"

# Serving determinism gate: the daemon's verdict over the wire must be
# byte-identical to the in-process exhaustive tuner for both cache streams
# of two representative workloads, with each session's bank serial and on
# three threads.
for daemon_flags in "" "--sweep-jobs 3"; do
  start_serving_daemon $daemon_flags
  for wl in crc ucbqsort; do
    for streamsel in I D; do
      serve_cmp "$wl" "$streamsel"
    done
  done
  stop_serving_daemon
done
echo "[repro] daemon-vs-in-process serving determinism ok"

# Bench gates: each of the five gated benches writes a fresh snapshot
# (--out) and one scripts/bench_check.py pass compares all five with the
# committed BENCH_*.json files. Every bound and floor comes from the
# committed file: rates within 20%, deterministic counts and energies
# exact, and the ratio floors each bench's source sets (capture >= 3x,
# streaming >= 2x, parallel bank >= 2x, serving scaling >= 2x,
# clean-under-chaos >= 0.8x, scaled sweep >= 5x on two workloads, and the
# phase energy, sweep-reduction and classifier-overhead floors); a floor
# with min_cpus is skipped on a host with fewer cpus. Every pair is
# checked before the pass fails. Skipped when the main build tree is
# sanitized (throughput is not comparable) or python3 is unavailable.
SAN=$(grep -E '^STCACHE_SANITIZE:' build/CMakeCache.txt | cut -d= -f2)
if [ -n "$SAN" ]; then
  echo "[bench_check] skipped: build/ is sanitized (STCACHE_SANITIZE=$SAN)"
elif ! command -v python3 > /dev/null 2>&1; then
  echo "[bench_check] skipped: python3 not available"
else
  SNAPDIR=$(mktemp -d /tmp/stcsnapXXXXXX)
  ./build/bench/bench_replay_throughput --out "$SNAPDIR/replay.json" > /dev/null
  ./build/bench/bench_serving --out "$SNAPDIR/serving.json" > /dev/null
  ./build/bench/bench_serving_resilience --out "$SNAPDIR/resilience.json" > /dev/null
  ./build/bench/bench_scaled_space --out "$SNAPDIR/scaled.json" > /dev/null
  ./build/bench/bench_phase_adaptive --out "$SNAPDIR/phase.json" > /dev/null
  GATE=0
  python3 scripts/bench_check.py \
    BENCH_replay.json "$SNAPDIR/replay.json" \
    BENCH_serving.json "$SNAPDIR/serving.json" \
    BENCH_serving_resilience.json "$SNAPDIR/resilience.json" \
    BENCH_scaled.json "$SNAPDIR/scaled.json" \
    BENCH_phase.json "$SNAPDIR/phase.json" || GATE=$?
  rm -rf "$SNAPDIR"
  [ "$GATE" -eq 0 ] || exit "$GATE"
fi

# Every bench binary, bare: tables to bench_output.txt. A bench writes a
# snapshot only when given --out, so this loop leaves BENCH_*.json alone.
: > bench_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "\n########## $(basename "$b") ##########\n" >> bench_output.txt
  "$b" >> bench_output.txt 2>&1
done

echo "Done. See test_output.txt and bench_output.txt."
