#!/usr/bin/env python3
"""End-to-end benchmark of the stcache tuning paths.

Builds the tools from this checkout, runs one workload against them and
prints every end-to-end metric by name with its unit. With --trace 1 it
runs the in-process traced run (layer_trace) instead and prints the
per-layer metrics. Every tool output is checked against the golden digests
in expected.json. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

  python3 bench_e2e/run.py --workload tune --seed 1 --seconds 20 --trace 0
  python3 bench_e2e/run.py --workload serve --seed 2 --runs 5
  python3 bench_e2e/run.py                   # smoke pass, exit 0 iff correct
  python3 bench_e2e/run.py --regen-expected  # rewrite expected.json

Workloads (README.md says why each was chosen):
  tune    stcache_tune --workload K S [--exhaustive], closed loop, 1 caller
  space   stcache_tune --workload K S --space embedded|desktop, 1 caller
  phases  stcache_tune --phases squarewave|taskset|datamix, 1 caller
  serve   stcache_tunec sessions against one stcache_tuned --workers 2:
          Poisson open loop at 20/s then 40/s, then 4 closed-loop callers
"""

import argparse
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("tune", "space", "phases", "serve")
SCENARIOS = ("squarewave", "taskset", "datamix")
TOOLS = ("stcache_tune", "stcache_tuned", "stcache_tunec", "stcache_trace")
WARMUPS = 5          # fixed untimed requests per set-up
# Set-ups per run (setup_s is their median): at least 3, more while they
# add up to under 1.5 s, since a set-up of a few short requests is noisy.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 11, 1.5
CALLERS = 4          # client threads and connections of the serve workload
SERVE_WORKERS = 2
OPEN_RATES = (20, 40)  # sessions/s of the two serve open-loop legs
PLAN_LENGTH = 20000    # requests generated per seed (a run uses a prefix)
FAILED_MS = 1e9        # latency recorded for a failed request

# Name, unit, direction. The bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("best_latency_ms_p50", "ms", "lower"),
    ("best_latency_ms_p90", "ms", "lower"),
    ("best_words_per_s", "words/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def check_sources():
    for rel in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError("the repository sources are missing (no %s next "
                             "to bench_e2e/); run from a full checkout" % rel)


def build(targets):
    """Configure (once) and build `targets`; build logs go to stderr."""
    check_sources()
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
           "--target"] + list(targets)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed: " + " ".join(targets))


def tool_paths(tools_dir):
    paths = {t: os.path.join(tools_dir, t) for t in TOOLS}
    missing = [p for p in paths.values() if not os.access(p, os.X_OK)]
    if missing:
        raise BenchError("tools not found: %s (build them, or pass --tools "
                         "DIR)" % ", ".join(missing))
    return paths


def fingerprint(seed, plan_digest):
    cpu, avx2 = "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu == "unknown":
                    cpu = line.split(":", 1)[1].strip()
                elif line.startswith("flags"):
                    avx2 = avx2 or " avx2" in line
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"(CMAKE_BUILD_TYPE|STCACHE_SANITIZE|"
                             r"STCACHE_NATIVE_OPT):\w+=(.*)", line)
                if m:
                    cache[m.group(1)] = m.group(2).strip()
    except OSError:
        pass
    return {"seed": seed, "plan_digest": plan_digest,
            "nproc": os.cpu_count(), "cpu": cpu, "avx2": avx2,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "native_opt": cache.get("STCACHE_NATIVE_OPT", "OFF"),
            "sanitize": cache.get("STCACHE_SANITIZE", "")}


# --- digests and requests ---------------------------------------------------

def fnv1a64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (EXPECTED, e))


def catalogue(expected, workload):
    """Request keys of a workload, sorted, with their golden entries."""
    if workload == "serve":
        # Sessions carry one captured kernel stream; the daemon answers
        # with the exhaustive verdict, rendered like tune --exhaustive.
        golden = {k[:-len(" --exhaustive")]: v
                  for k, v in expected["tune"].items()
                  if k.endswith(" --exhaustive")}
    else:
        golden = expected[workload]
    return sorted(golden), golden


def make_plan(keys, workload, seed):
    """Seeded request sequence: back-to-back shuffled copies of the key
    catalogue, so every key recurs at the same rate on every seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    plan = []
    while len(plan) < PLAN_LENGTH:
        block = list(keys)
        rng.shuffle(block)
        plan.extend(block)
    digest = fnv1a64("\n".join(plan).encode())
    return plan, digest


def tool_argv(tools, workload, key, sock=None, stct=None):
    if workload == "phases":
        return [tools["stcache_tune"], "--phases", key]
    if workload == "serve":
        kernel, stream = key.split()
        return [tools["stcache_tunec"], "--socket", sock, stct[kernel], stream]
    return [tools["stcache_tune"], "--workload"] + key.split()


# --- processes --------------------------------------------------------------

class Outcome:
    __slots__ = ("key", "seconds", "rc", "out", "rss_kb", "err", "late",
                 "ok")

    def __init__(self, key, seconds, rc, out, rss_kb, err):
        self.key, self.seconds, self.rc = key, seconds, rc
        self.out, self.rss_kb, self.err = out, rss_kb, err
        self.late = 0.0
        self.ok = False  # set by Checker.check


def run_tool(argv, key, errfile):
    """Spawn one tool process; return its wall time, exit code, stdout and
    peak RSS (wait4)."""
    r, w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, w, 1),
               (os.POSIX_SPAWN_OPEN, 2, errfile,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    os.close(w)
    chunks = []
    while True:
        b = os.read(r, 1 << 16)
        if not b:
            break
        chunks.append(b)
    os.close(r)
    _, status, ru = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    rc = os.waitstatus_to_exitcode(status)
    err = ""
    if rc != 0:
        with open(errfile, errors="replace") as f:
            lines = f.read().strip().splitlines()
        err = lines[-1] if lines else ""
    return Outcome(key, seconds, rc, b"".join(chunks), ru.ru_maxrss, err)


class Checker:
    """Counts operations and failures; digests each distinct output once."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.memo = {}
        self.lock = threading.Lock()

    def check(self, o):
        ok = o.rc == 0
        if ok:
            with self.lock:
                memo_key = (o.key, o.out)
                ok = self.memo.get(memo_key)
                if ok is None:
                    g = self.golden[o.key]
                    ok = (len(o.out) == g["bytes"]
                          and fnv1a64(o.out) == g["fnv"])
                    self.memo[memo_key] = ok
            if not ok:
                self.note("digest mismatch for '%s'" % o.key)
        else:
            self.note("'%s' exited %d: %s" % (o.key, o.rc, o.err))
        with self.lock:
            self.attempted += 1
            self.failed += 0 if ok else 1
        o.ok = ok
        return ok

    def note(self, msg):
        with self.lock:
            if len(self.errors) < 20:
                self.errors.append(msg)


# --- statistics -------------------------------------------------------------

def percentile(values, p):
    s = sorted(values)
    if not s:
        return 0.0
    x = (len(s) - 1) * p / 100.0
    lo = int(x)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (x - lo)


def tail_percentile(n):
    """Highest of the usual percentiles with at least ten samples beyond."""
    for p in (99.9, 99, 98, 95, 90, 80, 75, 50):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return 50


def latency_block(prefix, outcomes):
    """Request-level p50, p90 and the highest well-sampled tail in ms. A
    failed request counts as FAILED_MS, missing any latency limit."""
    ms = [1000.0 * o.seconds if o.ok else FAILED_MS for o in outcomes]
    p = tail_percentile(len(ms))
    tag = ("%g" % p).replace(".", "_")
    return {prefix + "_p50": percentile(ms, 50),
            prefix + "_p90": percentile(ms, 90),
            "%s_p%s" % (prefix, tag): percentile(ms, p),
            prefix + "_n": len(ms)}


def best_of_keys(outcomes, golden):
    """The gated latency and throughput come from each request key's
    fastest latency in the run: the host's on-CPU noise comes in bursts of
    seconds that slow every request caught in them, and a key's minimum
    over its repeats stays out of them."""
    best = {}
    for o in outcomes:
        if o.ok:
            best[o.key] = min(o.seconds, best.get(o.key, o.seconds))
    ms = [1000.0 * s for s in best.values()]
    return {
        "best_latency_ms_p50": percentile(ms, 50),
        "best_latency_ms_p90": percentile(ms, 90),
        "best_words_per_s": (sum(golden[k]["words"] for k in best)
                             / sum(best.values())) if best else 0.0,
    }, len(best)


def words_per_s(outcomes, golden, wall):
    return sum(golden[o.key]["words"] for o in outcomes if o.ok) / wall


# --- CLI workloads ----------------------------------------------------------

def want_setup(setups):
    return len(setups) < SETUP_MIN_REPS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPS)


def run_cli(ctx, workload, plan, seconds):
    tools, golden, checker, errfile = (ctx["tools"], ctx["golden"],
                                       ctx["checker"], ctx["errfile"])
    keys = sorted(golden)
    warm = [keys[i * len(keys) // WARMUPS] for i in range(WARMUPS)]
    setups = []
    rss = 0
    while want_setup(setups):
        t0 = time.perf_counter()
        for key in warm:
            o = run_tool(tool_argv(tools, workload, key), key, errfile)
            checker.check(o)
            rss = max(rss, o.rss_kb)
        setups.append(time.perf_counter() - t0)

    done = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        key = plan[i % len(plan)]
        o = run_tool(tool_argv(tools, workload, key), key, errfile)
        done.append(o)
        i += 1
    wall = time.perf_counter() - start

    for o in done:
        checker.check(o)
    rss = max([rss] + [o.rss_kb for o in done])
    gated, keys_seen = best_of_keys(done, golden)
    metrics = {"setup_s": statistics.median(setups), **gated,
               "peak_rss_mb": rss / 1024.0}
    diag = latency_block("latency_ms", done)
    diag.update(words_per_s=words_per_s(done, golden, wall),
                keys_seen=keys_seen, setup_s_all=setups)
    return metrics, diag


# --- serve workload ---------------------------------------------------------

class Daemon:
    def __init__(self, tools, sock, errfile):
        with open(errfile, "wb") as err:
            self.proc = subprocess.Popen(
                [tools["stcache_tuned"], "--socket", sock, "--workers",
                 str(SERVE_WORKERS)],
                stdout=subprocess.PIPE, stderr=err)
        deadline = time.monotonic() + 30
        line = b""
        while not line.startswith(b"listening on"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [],
                                              left)[0]:
                self.kill()
                raise BenchError("stcache_tuned did not report readiness")
            line = self.proc.stdout.readline()
            if not line:
                self.kill()
                raise BenchError("stcache_tuned exited during start-up")

    def peak_rss_kb(self):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def stop(self):
        """SIGTERM (graceful drain); returns the shutdown summary counts."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("stcache_tuned did not drain within 60 s")
        m = re.search(rb"served (\d+) sessions \((\d+) poisoned, (\d+) shed, "
                      rb"(\d+) timed out\)", out)
        if not m:
            raise BenchError("stcache_tuned printed no shutdown summary")
        return [int(x) for x in m.groups()]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def capture_streams(tools, kernels, outdir, errfile):
    """Pre-capture each kernel once (both split streams per .stct file)."""
    paths = {k: os.path.join(outdir, k + ".stct") for k in kernels}
    todo = list(kernels)
    failures = []
    lock = threading.Lock()

    def worker(n):
        while True:
            with lock:
                if not todo:
                    return
                k = todo.pop()
            argv = [tools["stcache_trace"], "capture", k, paths[k]]
            o = run_tool(argv, k, "%s.cap%d" % (errfile, n))
            if o.rc != 0:
                with lock:
                    failures.append("%s: %s" % (k, o.err))
    threads = [threading.Thread(target=worker, args=(n,))
               for n in range(CALLERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise BenchError("capture failed: " + "; ".join(failures))
    return paths


def run_sessions(ctx, keys, schedule, deadline, sock, stct, results):
    """Run sessions on CALLERS threads. With a schedule (open loop) session
    i is due at schedule[i] and timed from then; without one (closed loop)
    each caller sends its next session as soon as the last one answered,
    until `deadline`."""
    tools, errfile = ctx["tools"], ctx["errfile"]
    lock = threading.Lock()
    nxt = [0]

    def caller(c):
        err = "%s.c%d" % (errfile, c)
        while True:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            if schedule is not None:
                if i >= len(schedule):
                    return
                due = schedule[i]
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            elif time.perf_counter() >= deadline:
                return
            key = keys[i % len(keys)]
            o = run_tool(tool_argv(tools, "serve", key, sock, stct), key, err)
            if schedule is not None:
                end = time.perf_counter()
                o.late = max(0.0, end - o.seconds - due)
                o.seconds = end - due
            with lock:
                results.append(o)
    threads = [threading.Thread(target=caller, args=(c,))
               for c in range(CALLERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_serve(ctx, plan, seconds, seed):
    tools, golden, checker, errfile = (ctx["tools"], ctx["golden"],
                                       ctx["checker"], ctx["errfile"])
    keys = sorted(golden)
    kernels = sorted({k.split()[0] for k in keys})
    rundir = ctx["rundir"]
    stct = capture_streams(tools, kernels, rundir, errfile)
    # A short relative socket path keeps clear of the sun_path limit.
    sock = os.path.relpath(os.path.join(rundir, "tuned.sock"))
    warm = [keys[i * len(keys) // WARMUPS] for i in range(WARMUPS)]

    setups = []
    daemon = None
    summary = [0, 0, 0, 0]
    try:
        while want_setup(setups):
            t0 = time.perf_counter()
            daemon = Daemon(tools, sock, errfile + ".d")
            for key in warm:
                checker.check(run_tool(tool_argv(tools, "serve", key, sock,
                                                 stct), key, errfile))
            setups.append(time.perf_counter() - t0)
            if want_setup(setups):
                counts = daemon.stop()
                summary = [a + b for a, b in zip(summary, counts)]
                daemon = None

        rng = random.Random("serve-arrivals:%d" % seed)
        legs = {}
        pos = 0
        open_s = 0.25 * seconds
        for rate in OPEN_RATES:
            times, t = [], 0.0
            while True:
                t += rng.expovariate(rate)
                if t >= open_s:
                    break
                times.append(t)
            start = time.perf_counter() + 0.02
            results = []
            run_sessions(ctx, plan[pos:pos + len(times)],
                         [start + x for x in times], None, sock, stct,
                         results)
            pos += len(times)
            legs[rate] = (results, time.perf_counter() - start)

        closed = []
        start = time.perf_counter()
        run_sessions(ctx, plan[pos:], None, start + 0.5 * seconds, sock, stct,
                     closed)
        wall = time.perf_counter() - start
        rss_kb = daemon.peak_rss_kb()
        counts = daemon.stop()
        daemon = None
        summary = [a + b for a, b in zip(summary, counts)]
    finally:
        if daemon is not None:
            daemon.kill()

    # Daemon-side failures (poisoned, shed, timed out) are failures too.
    bad = sum(summary[1:])
    if bad:
        checker.note("daemon reported %d poisoned/shed/timed-out sessions"
                     % bad)
        checker.failed += bad

    diag = {}
    for rate, (results, leg_wall) in legs.items():
        for o in results:
            checker.check(o)
        diag.update(latency_block("open%d_latency_ms" % rate, results))
        diag["open%d_late_ms_p95" % rate] = 1000.0 * percentile(
            [o.late for o in results], 95)
        diag["open%d_sessions_per_s" % rate] = len(results) / leg_wall
    for o in closed:
        checker.check(o)
    diag.update(latency_block("closed_latency_ms", closed))
    # Sessions of every leg count towards a key's best session.
    gated, keys_seen = best_of_keys(
        [o for results, _ in legs.values() for o in results] + closed, golden)
    diag.update(capacity_sessions_per_s=sum(o.ok for o in closed) / wall,
                capacity_words_per_s=words_per_s(closed, golden, wall),
                keys_seen=keys_seen, daemon_summary=summary,
                setup_s_all=setups)
    metrics = {"setup_s": statistics.median(setups), **gated,
               "peak_rss_mb": rss_kb / 1024.0}
    return metrics, diag


# --- traced run -------------------------------------------------------------

def run_traced(ctx, workload, plan, seconds, trace_out):
    """The in-process traced run (layer_trace.cpp): per-layer metrics from
    spans recorded around the calls the tools make."""
    bdir = build_dir()
    exe = os.path.join(bdir, "layer_trace")
    if not os.access(exe, os.X_OK):
        raise BenchError("layer_trace not built (%s)" % exe)
    req = os.path.join(ctx["rundir"], "requests.txt")
    with open(req, "w") as f:
        f.write("\n".join(plan) + "\n")
    sock = os.path.relpath(os.path.join(ctx["rundir"], "trace.sock"))
    cmd = [exe, "--workload", workload, "--requests", req, "--seconds",
           repr(seconds), "--spans", trace_out, "--socket", sock]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=seconds + 120)
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError("layer_trace failed (exit %d)" % p.returncode)
    res = json.loads(p.stdout.decode().strip().splitlines()[-1])
    checker = ctx["checker"]
    checker.attempted += res["attempted"]
    checker.failed += res["failed"]
    for err in res.get("errors", []):
        checker.note(err)
    # Rendered reports that have a golden digest must match it.
    golden = ctx["golden"]
    for key, (fnv, nbytes, count) in res["digests"].items():
        g = golden.get(key)
        if g is None:
            continue
        if fnv != g["fnv"] or nbytes != g["bytes"]:
            checker.note("traced digest mismatch for '%s'" % key)
            checker.failed += count
    metrics = {}
    for name, m in res["metrics"].items():
        metrics[name] = m["value"]
        ctx["units"][name] = m["unit"]
    return metrics, {"spans_file": trace_out, "spans": res["spans"],
                     "digests_checked": len(res["digests"])}


# --- main -------------------------------------------------------------------

def run_once(ctx, workload, plan, args, run_index):
    ctx["rundir"] = os.path.join(build_dir(), "e2e-%d-%d" % (os.getpid(),
                                                              run_index))
    os.makedirs(ctx["rundir"], exist_ok=True)
    ctx["errfile"] = os.path.join(ctx["rundir"], "stderr")
    try:
        if args.trace:
            out = args.trace_out or os.path.join(
                build_dir(), "spans-%s-%d.jsonl" % (workload, args.seed))
            return run_traced(ctx, workload, plan, args.seconds, out)
        if workload == "serve":
            return run_serve(ctx, plan, args.seconds, args.seed)
        return run_cli(ctx, workload, plan, args.seconds)
    finally:
        shutil.rmtree(ctx["rundir"], ignore_errors=True)


def print_table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def bench(workload, args, expected):
    keys, golden = catalogue(expected, workload)
    plan, plan_digest = make_plan(keys, workload, args.seed)
    fp = fingerprint(args.seed, plan_digest)
    print("bench_e2e workload=%s seed=%d seconds=%g trace=%d runs=%d"
          % (workload, args.seed, args.seconds, args.trace, args.runs))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if fp["sanitize"]:
        log("warning: sanitized build (-fsanitize=%s); timings are not "
            "comparable" % fp["sanitize"])
    tools = tool_paths(args.tools)
    units = dict((n, u) for n, u, _ in END_TO_END)
    ctx = {"tools": tools, "golden": golden, "checker": Checker(golden),
           "units": units}
    runs = []
    for r in range(args.runs):
        metrics, diag = run_once(ctx, workload, plan, args, r)
        runs.append(metrics)
        print("diagnostics " + json.dumps(diag, sort_keys=True))

    names = list(runs[0])
    final = {}
    if args.runs == 1:
        rows = [("metric", "value", "unit")]
        for n in names:
            final[n] = runs[0][n]
            rows.append((n, "%.6g" % final[n], units[n]))
    else:
        rows = [("metric", "median", "q1", "q3", "unit")]
        for n in names:
            vals = [m[n] for m in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            final[n] = statistics.median(vals)
            rows.append((n, "%.6g" % final[n], "%.6g" % q1, "%.6g" % q3,
                         units[n]))
    print_table(rows)
    checker = ctx["checker"]
    for e in checker.errors:
        log("error: " + e)
    result = {
        "correct": checker.failed == 0,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in final.items()},
    }
    return result


def regen_expected(tools_dir):
    tools = tool_paths(tools_dir)
    listing = subprocess.run([tools["stcache_trace"], "list"],
                             stdout=subprocess.PIPE, check=True).stdout
    kernels = [line.split()[0] for line in listing.decode().splitlines()[2:]
               if line.strip()]
    keys = {"tune": [], "space": [], "phases": list(SCENARIOS)}
    for k in kernels:
        for s in ("I", "D"):
            keys["tune"] += ["%s %s" % (k, s), "%s %s --exhaustive" % (k, s)]
            keys["space"] += ["%s %s --space embedded" % (k, s),
                              "%s %s --space desktop" % (k, s)]
    errfile = os.path.join(build_dir(), "regen.stderr")
    os.makedirs(build_dir(), exist_ok=True)
    out = {"hash": "fnv1a64"}
    for workload, ks in keys.items():
        out[workload] = {}
        for key in ks:
            o = run_tool(tool_argv(tools, workload, key), key, errfile)
            if o.rc != 0:
                raise BenchError("'%s' failed: %s" % (key, o.err))
            first = o.out.split(b"\n", 1)[0].decode()
            m = re.search(r"(\d+) (?:accesses|words)", first)
            if not m:
                raise BenchError("no access count in '%s' output" % key)
            out[workload][key] = {"fnv": fnv1a64(o.out), "bytes": len(o.out),
                                  "words": int(m.group(1))}
    with open(EXPECTED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    os.remove(errfile)
    log("wrote %s (%d tune, %d space, %d phases keys)"
        % (EXPECTED, len(out["tune"]), len(out["space"]),
           len(out["phases"])))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="span file (JSON lines)")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--tools", help="directory holding the stcache tools "
                    "(default: build them from this checkout)")
    ap.add_argument("--regen-expected", action="store_true")
    args = ap.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        ap.error("--runs and --seconds must be positive")

    targets = ([] if args.tools else list(TOOLS)) + (
        ["layer_trace"] if args.trace else [])
    if targets:
        build(targets)
    args.tools = args.tools or os.path.join(build_dir(), "stcache", "tools")
    if args.regen_expected:
        regen_expected(args.tools)
        return 0
    expected = load_expected()

    if args.workload:
        result = bench(args.workload, args, expected)
        print(json.dumps(result))
        return 0

    # No workload: a short smoke pass over all four, digests checked.
    args.seconds, ok = 1.0, True
    for w in WORKLOADS:
        result = bench(w, args, expected)
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log("error: %s" % e)
        sys.exit(1)
