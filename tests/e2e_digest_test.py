#!/usr/bin/env python3
"""Run every tune, space and phases request of bench_e2e/expected.json once
against the built tools and check each stdout's byte length and FNV-1a
digest, so a change to any tool output fails tier-1 instead of only a
benchmark run.

  e2e_digest_test.py TOOLS_DIR

The request list, the argv of each request, the process spawn and the
digest check are bench_e2e/run.py's own, imported read-only.
"""

import os
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ in bench_e2e/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench_e2e"))
import run as e2e  # noqa: E402


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tools = e2e.tool_paths(argv[0])
    expected = e2e.load_expected()
    failed = attempted = 0
    with tempfile.TemporaryDirectory() as tmp:
        errfile = os.path.join(tmp, "stderr")
        for workload in ("tune", "space", "phases"):
            keys, golden = e2e.catalogue(expected, workload)
            checker = e2e.Checker(golden)
            for key in keys:
                argv_ = e2e.tool_argv(tools, workload, key)
                checker.check(e2e.run_tool(argv_, key, errfile))
            for msg in checker.errors:
                print("%s: %s" % (workload, msg))
            print("%s: %d requests, %d failed"
                  % (workload, checker.attempted, checker.failed))
            attempted += checker.attempted
            failed += checker.failed
    print("%d of %d requests matched their digests"
          % (attempted - failed, attempted))
    return 1 if failed or attempted == 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
