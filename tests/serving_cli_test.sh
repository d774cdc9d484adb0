#!/bin/sh
# End-to-end contract of the serving CLI pair, driven over a loopback
# unix-domain socket:
#   - stcache_tuned starts, prints its readiness line, serves, and exits 0
#     on SIGTERM and when --max-sessions is reached;
#   - stcache_tunec renders a verdict byte-identical to
#     `stcache_tune --exhaustive` on the same stream;
#   - runtime failures (empty stream, poisoned session, a missing or
#     corrupt .stct in file mode) exit 1 with exactly one "error: ..."
#     line; usage errors exit 2; a daemon that cannot be reached exits 3
#     (distinct from mid-session loss);
#   - SIGINT and SIGTERM both drain gracefully and print the shutdown
#     summary (`served N sessions (P poisoned, S shed, T timed out)`).
# Invoked by ctest as:
#   serving_cli_test.sh <stcache_tuned> <stcache_tunec> <stcache_tune> <stcache_trace>
set -u

TUNED=$1
TUNEC=$2
TUNE=$3
TRACE=$4

# Sockets live in a short mktemp dir: sun_path caps paths at ~100 chars.
TMPDIR=$(mktemp -d /tmp/stccliXXXXXX)
DAEMON_PID=
trap '[ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null; rm -rf "$TMPDIR"' EXIT

failures=0

# expect <code> <description> <cmd...>   (same contract as cli_exit_codes)
expect() {
    want=$1
    desc=$2
    shift 2
    err="$TMPDIR/err"
    "$@" >/dev/null 2>"$err"
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $desc: expected exit $want, got $got" >&2
        sed 's/^/  stderr: /' "$err" >&2
        failures=$((failures + 1))
        return
    fi
    if [ "$want" -eq 1 ] || [ "$want" -eq 3 ]; then
        errlines=$(grep -c '^error: ' "$err")
        if [ "$errlines" -ne 1 ]; then
            echo "FAIL: $desc: expected one 'error: ...' line, got $errlines" >&2
            sed 's/^/  stderr: /' "$err" >&2
            failures=$((failures + 1))
            return
        fi
    fi
    echo "ok: $desc"
}

check() {
    desc=$1
    shift
    if "$@"; then
        echo "ok: $desc"
    else
        echo "FAIL: $desc" >&2
        failures=$((failures + 1))
    fi
}

# start_daemon <socket> [extra args...]; waits for the readiness line.
start_daemon() {
    sock=$1
    shift
    : > "$TMPDIR/daemon.log"
    "$TUNED" --socket "$sock" --workers 2 "$@" > "$TMPDIR/daemon.log" 2>&1 &
    DAEMON_PID=$!
    i=0
    while [ $i -lt 100 ]; do
        grep -q '^listening on ' "$TMPDIR/daemon.log" && return 0
        kill -0 "$DAEMON_PID" 2>/dev/null || break
        sleep 0.1
        i=$((i + 1))
    done
    echo "FAIL: daemon did not become ready" >&2
    cat "$TMPDIR/daemon.log" >&2
    exit 1
}

SOCK="$TMPDIR/t.sock"

# --- usage errors need no daemon --------------------------------------------

expect 2 "tunec with no arguments" "$TUNEC"
expect 2 "tunec without --socket" "$TUNEC" --workload crc
expect 2 "tunec with unknown flag" "$TUNEC" --socket "$SOCK" --workload crc --frobnicate
expect 2 "tunec with bad probe" "$TUNEC" --socket "$SOCK" --probe frobnicate
expect 2 "tunec with probe and workload at once" "$TUNEC" --socket "$SOCK" --probe empty --workload crc
expect 2 "tuned without --socket" "$TUNED"
expect 2 "tuned with unknown flag" "$TUNED" --socket "$SOCK" --frobnicate
expect 3 "tunec with no daemon listening" "$TUNEC" --socket "$SOCK" --workload crc

# With retries the client backs off, tries again, and still reports the
# connect failure distinctly (exit 3, "cannot connect" in the message).
: > "$TMPDIR/retry.err"
"$TUNEC" --socket "$SOCK" --workload crc --retries 2 --backoff 5 \
    >/dev/null 2>"$TMPDIR/retry.err"
code=$?
check "tunec exits 3 after exhausting retries" [ "$code" -eq 3 ]
check "tunec printed its retry notices" \
    [ "$(grep -c '^retrying in ' "$TMPDIR/retry.err")" -eq 2 ]
check "tunec names the connect failure" \
    grep -q '^error: cannot connect: ' "$TMPDIR/retry.err"

# --- happy path: daemon verdict == in-process exhaustive tune ---------------

start_daemon "$SOCK" --max-sessions 4

expect 0 "tunec streams a workload" "$TUNEC" --socket "$SOCK" --workload crc I
"$TUNEC" --socket "$SOCK" --workload crc I > "$TMPDIR/remote.txt" 2>/dev/null
"$TUNE" --workload crc I --exhaustive > "$TMPDIR/local.txt" 2>/dev/null
check "daemon verdict byte-identical to stcache_tune --exhaustive" \
    cmp -s "$TMPDIR/remote.txt" "$TMPDIR/local.txt"

# File mode through the daemon matches too.
"$TRACE" capture crc "$TMPDIR/crc.stct" >/dev/null 2>&1
"$TUNEC" --socket "$SOCK" "$TMPDIR/crc.stct" I > "$TMPDIR/remote_file.txt" 2>/dev/null
check "file-mode verdict matches workload mode" \
    cmp -s "$TMPDIR/remote_file.txt" "$TMPDIR/local.txt"

# Session 4 of 4: the daemon must now exit 0 on its own.
expect 0 "tunec streams the data side" \
    "$TUNEC" --socket "$SOCK" --workload crc D
wait "$DAEMON_PID"
code=$?
check "daemon exits 0 after --max-sessions" [ "$code" -eq 0 ]
check "daemon reports served sessions" grep -q '^served 4 sessions' "$TMPDIR/daemon.log"
check "clean batch summary shows zero failures" \
    grep -q '^served 4 sessions (0 poisoned, 0 shed, 0 timed out)' "$TMPDIR/daemon.log"
DAEMON_PID=

# --- protocol violations: sessions get typed ERRORs, the daemon survives ----

start_daemon "$SOCK" --max-sessions 3

# The probes misbehave on purpose (FIN with no data; a CRC-corrupted
# chunk) and succeed only if the daemon answers with the right ERROR code.
expect 0 "empty stream answered with ERROR empty-stream" \
    "$TUNEC" --socket "$SOCK" --probe empty
expect 0 "corrupt chunk answered with ERROR chunk-crc" \
    "$TUNEC" --socket "$SOCK" --probe bad-crc

# Both sessions were poisoned/refused; a clean one must still be served.
expect 0 "daemon survives the poisoned sessions" \
    "$TUNEC" --socket "$SOCK" --workload crc I
wait "$DAEMON_PID"
code=$?
check "daemon exits 0 after its second session batch" [ "$code" -eq 0 ]
check "summary counts the poisoned session" \
    grep -q '^served 3 sessions (1 poisoned, 0 shed, 0 timed out)' "$TMPDIR/daemon.log"
DAEMON_PID=

# --- file-mode failures: the client rejects a bad trace before any session --

start_daemon "$SOCK" --max-sessions 1

expect 1 "tunec on a missing trace file" \
    "$TUNEC" --socket "$SOCK" "$TMPDIR/nope.stct" I

# Corrupt an address byte of the first record, as cli_exit_codes_test.sh
# does: the kind byte stays valid, so only the v2 footer CRC catches it.
# Two candidate bytes guarantee the overwrite changes the file.
cp "$TMPDIR/crc.stct" "$TMPDIR/corrupt.stct"
printf '\027' | dd of="$TMPDIR/corrupt.stct" bs=1 seek=18 count=1 conv=notrunc 2>/dev/null
if cmp -s "$TMPDIR/crc.stct" "$TMPDIR/corrupt.stct"; then
    printf '\031' | dd of="$TMPDIR/corrupt.stct" bs=1 seek=18 count=1 conv=notrunc 2>/dev/null
fi
expect 1 "tunec on a trace whose footer CRC fails" \
    "$TUNEC" --socket "$SOCK" "$TMPDIR/corrupt.stct" I
"$TUNEC" --socket "$SOCK" "$TMPDIR/corrupt.stct" I > "$TMPDIR/corrupt.out" 2>/dev/null
check "tunec prints no report for a corrupt trace" [ ! -s "$TMPDIR/corrupt.out" ]

# Neither failure reached the daemon: its one session is a clean file-mode
# run, byte-identical to the in-process exhaustive tune.
"$TUNEC" --socket "$SOCK" "$TMPDIR/crc.stct" I > "$TMPDIR/after_bad.txt" 2>/dev/null
check "clean file-mode session after the rejected traces" \
    cmp -s "$TMPDIR/after_bad.txt" "$TMPDIR/local.txt"
wait "$DAEMON_PID"
code=$?
check "daemon exits 0 after the file-mode batch" [ "$code" -eq 0 ]
check "file-mode failures never became sessions" \
    grep -q '^served 1 sessions (0 poisoned, 0 shed, 0 timed out)' "$TMPDIR/daemon.log"
DAEMON_PID=

# --- SIGTERM shutdown --------------------------------------------------------

start_daemon "$SOCK"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
code=$?
check "daemon exits 0 on SIGTERM" [ "$code" -eq 0 ]
check "daemon unlinked its socket" [ ! -e "$SOCK" ]
check "SIGTERM prints the shutdown summary" \
    grep -q '^served 0 sessions (0 poisoned, 0 shed, 0 timed out)' "$TMPDIR/daemon.log"
DAEMON_PID=

# --- SIGINT drains exactly like SIGTERM --------------------------------------

start_daemon "$SOCK"
kill -INT "$DAEMON_PID"
wait "$DAEMON_PID"
code=$?
check "daemon exits 0 on SIGINT" [ "$code" -eq 0 ]
check "daemon unlinked its socket after SIGINT" [ ! -e "$SOCK" ]
check "SIGINT prints the shutdown summary" \
    grep -q '^served 0 sessions (0 poisoned, 0 shed, 0 timed out)' "$TMPDIR/daemon.log"
DAEMON_PID=

if [ "$failures" -ne 0 ]; then
    echo "$failures check(s) failed" >&2
    exit 1
fi
echo "all serving CLI checks passed"
