#!/bin/sh
# Exit-code contract of the CLI tools, exercised end to end:
#   0 = success, 1 = runtime error (one-line "error: ..." on stderr),
#   2 = usage / bad arguments, 3 = stcache_tunec could not connect.
# It also checks that stcache_tune's streamed heuristic and --space reports
# are the same bytes from a file and from an in-process capture, serial or
# threaded.
# Invoked by ctest as:
#   cli_exit_codes_test.sh <stcache_tune> <stcache_trace> <stcache_asm> \
#                          <stcache_tuned> <stcache_tunec>
set -u

TUNE=$1
TRACE=$2
ASM=$3
TUNED=$4
TUNEC=$5

TMPDIR=$(mktemp -d)
trap 'rm -rf "$TMPDIR"' EXIT

failures=0

# expect <code> <description> <cmd...>
# Runs cmd, checks the exit code, and (for nonzero codes) checks that
# exactly one diagnostic line was printed to stderr.
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

# --- fixtures ---------------------------------------------------------------

GOOD="$TMPDIR/good.stct"
expect 0 "trace capture succeeds" "$TRACE" capture crc "$GOOD"

# Corrupt an address byte in the first record: the kind byte stays valid,
# so only the v2 CRC footer can reject this file. Two candidate bytes are
# tried so the overwrite is guaranteed to change the file.
CORRUPT="$TMPDIR/corrupt.stct"
cp "$GOOD" "$CORRUPT"
printf '\027' | dd of="$CORRUPT" bs=1 seek=18 count=1 conv=notrunc 2>/dev/null
if cmp -s "$GOOD" "$CORRUPT"; then
    printf '\031' | dd of="$CORRUPT" bs=1 seek=18 count=1 conv=notrunc 2>/dev/null
fi

# Bytes the header does not account for: two traces concatenated, and
# seven bytes appended. The header fixes a trace file's size exactly.
TWICE="$TMPDIR/twice.stct"
cat "$GOOD" "$GOOD" > "$TWICE"
APPENDED="$TMPDIR/appended.stct"
cp "$GOOD" "$APPENDED"
printf '1234567' >> "$APPENDED"

GOOD_ASM="$TMPDIR/good.s"
"$ASM" --workload crc > "$GOOD_ASM"

BAD_ASM="$TMPDIR/bad.s"
printf 'this is not an instruction\n' > "$BAD_ASM"

# --- stcache_trace ----------------------------------------------------------

expect 0 "trace list" "$TRACE" list
expect 0 "trace info on a good file" "$TRACE" info "$GOOD"
expect 2 "trace with no arguments" "$TRACE"
expect 2 "trace with unknown command" "$TRACE" frobnicate
expect 1 "trace info on a missing file" "$TRACE" info "$TMPDIR/nope.stct"
expect 1 "trace info on a corrupted file" "$TRACE" info "$CORRUPT"
expect 1 "trace info on two concatenated traces" "$TRACE" info "$TWICE"
expect 1 "trace info on a file with appended bytes" \
    "$TRACE" info "$APPENDED"
expect 2 "trace list with a trailing argument" "$TRACE" list extra
expect 1 "trace capture of unknown workload" "$TRACE" capture nope "$TMPDIR/x.stct"
expect 1 "trace capture to unwritable path" "$TRACE" capture crc /nonexistent/dir/x.stct

# --- stcache_tune -----------------------------------------------------------

expect 0 "tune on a good trace" "$TUNE" "$GOOD"
expect 2 "tune with no arguments" "$TUNE"
expect 2 "tune with unknown flag" "$TUNE" "$GOOD" --frobnicate
expect 1 "tune on a missing file" "$TUNE" "$TMPDIR/nope.stct"
expect 1 "tune on a corrupted file" "$TUNE" "$CORRUPT"
expect 1 "tune on two concatenated traces" "$TUNE" "$TWICE"
expect 1 "tune on a file with appended bytes" "$TUNE" "$APPENDED"
expect 1 "tune with unwritable metrics path" \
    "$TUNE" "$GOOD" --exhaustive --metrics-out /nonexistent/dir/m.json
expect 1 "tune (heuristic) with unwritable metrics path" \
    "$TUNE" "$GOOD" --metrics-out /nonexistent/dir/m.json

# A flag that the selected mode would ignore is a usage error, not a no-op:
# --naive and --scale only steer --phases, and --phases picks its own
# stream and bank. Each exits 2 with one diagnostic line. --metrics and
# --sweep-jobs apply to every mode.
expect_misplaced() {
    desc=$1
    shift
    expect 2 "$desc" "$@"
    if [ "$(wc -l <"$TMPDIR/err")" -ne 1 ]; then
        echo "FAIL: $desc: expected one diagnostic line" >&2
        sed 's/^/  stderr: /' "$TMPDIR/err" >&2
        failures=$((failures + 1))
    fi
}
expect_misplaced "tune rejects --naive without --phases" \
    "$TUNE" --workload crc --naive
expect_misplaced "tune rejects --scale without --phases" \
    "$TUNE" "$GOOD" --scale 2
# $flag is left unquoted: a flag and its value are two words.
for flag in I D --exhaustive "--space embedded" \
    "--metrics-out $TMPDIR/m.json"; do
    expect_misplaced "tune rejects ${flag%% *} with --phases" \
        "$TUNE" --phases squarewave $flag
done
expect 0 "tune --phases takes --metrics and --sweep-jobs" \
    "$TUNE" --phases squarewave --metrics --sweep-jobs 2

# Every mode but --phases folds each decoded (file) or captured
# (--workload) chunk into its bank as it arrives: the 27-config platform
# bank for the Fig. 6 heuristic and --exhaustive, a geometry bank for
# --space. The report must not depend on where the chunks come from, nor on
# the threads the bank's line-size groups run on (the default, the host's
# cores, or --sweep-jobs 1).
# expect_stdout <reference> <description> <cmd...>: cmd exits 0 and prints
# exactly the reference's bytes.
expect_stdout() {
    ref=$1
    desc=$2
    shift 2
    "$@" >"$TMPDIR/out" 2>"$TMPDIR/err"
    got=$?
    if [ "$got" -ne 0 ] || [ ! -s "$ref" ] || ! cmp -s "$ref" "$TMPDIR/out"; then
        echo "FAIL: $desc: exit $got, or stdout differs from the reference" >&2
        sed 's/^/  stderr: /' "$TMPDIR/err" >&2
        failures=$((failures + 1))
        return
    fi
    echo "ok: $desc"
}
for sel in I D; do
    REF="$TMPDIR/space_$sel.txt"
    "$TUNE" --workload crc "$sel" --space embedded --sweep-jobs 1 \
        >"$REF" 2>/dev/null
    expect_stdout "$REF" "tune --space workload mode, default threads ($sel)" \
        "$TUNE" --workload crc "$sel" --space embedded
    expect_stdout "$REF" "tune --space file mode, serial ($sel)" \
        "$TUNE" "$GOOD" "$sel" --space embedded --sweep-jobs 1
    expect_stdout "$REF" "tune --space file mode, default threads ($sel)" \
        "$TUNE" "$GOOD" "$sel" --space embedded
    REF="$TMPDIR/heuristic_$sel.txt"
    "$TUNE" --workload crc "$sel" --sweep-jobs 1 >"$REF" 2>/dev/null
    expect_stdout "$REF" "tune heuristic workload mode, default threads ($sel)" \
        "$TUNE" --workload crc "$sel"
    expect_stdout "$REF" "tune heuristic file mode, serial ($sel)" \
        "$TUNE" "$GOOD" "$sel" --sweep-jobs 1
    expect_stdout "$REF" "tune heuristic file mode, default threads ($sel)" \
        "$TUNE" "$GOOD" "$sel"
done

# Numeric flags are parsed strictly (whole token, no sign, bounded), with
# the same "invalid value for FLAG" diagnostic the serving tools print.
expect_invalid() {
    desc=$1
    flag=$2
    value=$3
    shift 3
    expect 2 "$desc" "$@" "$flag" "$value"
    if ! grep -q "^invalid value for $flag: '$value'" "$TMPDIR/err"; then
        echo "FAIL: $desc: no 'invalid value for $flag' diagnostic" >&2
        sed 's/^/  stderr: /' "$TMPDIR/err" >&2
        failures=$((failures + 1))
    fi
}
expect_invalid "tune with a non-numeric --scale" \
    --scale abc "$TUNE" --phases squarewave
expect_invalid "tune with --scale 0" --scale 0 "$TUNE" --phases squarewave
expect_invalid "tune with a non-numeric --sweep-jobs" \
    --sweep-jobs abc "$TUNE" --workload crc --exhaustive
expect_invalid "tune with --sweep-jobs 0" \
    --sweep-jobs 0 "$TUNE" --workload crc --exhaustive
expect_invalid "tune with --sweep-jobs above 32" \
    --sweep-jobs 33 "$TUNE" --workload crc --exhaustive

# Removed switches are unknown flags now (usage, exit 2) on every tool.
expect 2 "tune rejects --engine" "$TUNE" --workload crc --engine fast
expect 2 "tune rejects --pipeline" \
    "$TUNE" --workload crc --pipeline materialized
expect 2 "tune rejects --reader" "$TUNE" "$GOOD" --reader mmap
expect 2 "tune rejects --jobs" "$TUNE" --workload crc --exhaustive --jobs 2

# --- stcache_asm ------------------------------------------------------------

expect 0 "asm prints a bundled workload" "$ASM" --workload crc
expect 0 "asm assembles a good file" "$ASM" "$GOOD_ASM"
expect 2 "asm with no arguments" "$ASM"
expect 1 "asm on a missing file" "$ASM" "$TMPDIR/nope.s"
expect 1 "asm on a bad source file" "$ASM" "$BAD_ASM"
expect 1 "asm --workload with unknown name" "$ASM" --workload nope
expect 0 "asm --run without a budget" "$ASM" "$GOOD_ASM" --run
expect 2 "asm with an unknown flag" "$ASM" "$GOOD_ASM" --frobnicate
expect 2 "asm --run N with a trailing argument" \
    "$ASM" "$GOOD_ASM" --run 5 extra
expect 2 "asm --workload with a trailing argument" \
    "$ASM" --workload crc extra
expect_invalid "asm --run with a non-numeric budget" \
    --run twelve "$ASM" "$GOOD_ASM"
expect_invalid "asm --run with a negative budget" --run -1 "$ASM" "$GOOD_ASM"
expect_invalid "asm --run with a signed budget" --run +7 "$ASM" "$GOOD_ASM"
expect_invalid "asm --run with a space-padded budget" \
    --run ' 5' "$ASM" "$GOOD_ASM"
expect_invalid "asm --run with a zero budget" --run 0 "$ASM" "$GOOD_ASM"

# --- stcache_tuned: strict flag validation ----------------------------------
# A daemon that silently misreads a knob is a production incident: every
# numeric flag is parsed strictly (whole token, no sign, bounded).

SOCK="$TMPDIR/cli.sock"
expect 2 "tuned with --workers 0" "$TUNED" --socket "$SOCK" --workers 0
expect 2 "tuned with a negative session budget" \
    "$TUNED" --socket "$SOCK" --session-budget -1
expect 2 "tuned with a non-numeric pool size" \
    "$TUNED" --socket "$SOCK" --pool-chunks many
expect 2 "tuned with a negative idle timeout" \
    "$TUNED" --socket "$SOCK" --idle-timeout-ms -5
expect 2 "tuned with an oversized retry-after" \
    "$TUNED" --socket "$SOCK" --retry-after-ms 70000
expect 2 "tuned with trailing junk in --max-inflight" \
    "$TUNED" --socket "$SOCK" --max-inflight 4x
expect 1 "tuned with an unbindable socket path" \
    "$TUNED" --socket /nonexistent/dir/t.sock --max-sessions 1
expect 2 "tuned rejects --engine" "$TUNED" --socket "$SOCK" --engine fast
expect 2 "tuned rejects --pipeline" \
    "$TUNED" --socket "$SOCK" --pipeline streaming
expect 2 "tuned rejects --reader" "$TUNED" --socket "$SOCK" --reader mmap

# --- stcache_tunec: strict flag validation + connect exit code --------------

expect 2 "tunec with --chunk-words 0" \
    "$TUNEC" --socket "$SOCK" --workload crc --chunk-words 0
expect 2 "tunec with a negative timeout" \
    "$TUNEC" --socket "$SOCK" --workload crc --timeout -1
expect 2 "tunec with a non-numeric retry count" \
    "$TUNEC" --socket "$SOCK" --workload crc --retries lots
expect 2 "tunec with --backoff 0" \
    "$TUNEC" --socket "$SOCK" --workload crc --backoff 0
expect 2 "tunec rejects --engine" \
    "$TUNEC" --socket "$SOCK" --workload crc --engine fast
expect 2 "tunec rejects --pipeline" \
    "$TUNEC" --socket "$SOCK" --workload crc --pipeline materialized
expect 2 "tunec rejects --reader" \
    "$TUNEC" --socket "$SOCK" "$GOOD" --reader mmap
expect 3 "tunec distinguishes connect-refused (exit 3)" \
    "$TUNEC" --socket "$SOCK" --workload crc

if [ "$failures" -ne 0 ]; then
    echo "$failures check(s) failed" >&2
    exit 1
fi
echo "all CLI exit-code checks passed"
