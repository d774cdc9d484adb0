#!/usr/bin/env python3
"""Runs scripts/bench_check.py on small fixture snapshot pairs.

Usage: bench_check_test.py PATH/TO/bench_check.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = None  # set from argv in __main__


def snapshot(cpus=4):
    """A small snapshot in the bench/common.hpp schema."""
    return {
        "bench": "fixture",
        "cpus": cpus,
        "metrics": {
            "records": {"value": 600000, "unit": "records",
                        "better": "equal", "bound": 0},
            "rate": {"value": 1.0e9, "unit": "rec/s",
                     "better": "higher", "bound": 0.2},
            "latency": {"value": 10.0, "unit": "ms",
                        "better": "lower", "bound": 0.2},
            "speedup": {"value": 4.0, "unit": "x",
                        "better": "higher", "bound": None},
            "a.gain": {"value": 6.0, "unit": "x",
                       "better": "higher", "bound": None},
            "b.gain": {"value": 7.0, "unit": "x",
                       "better": "higher", "bound": None},
            "c.gain": {"value": 1.0, "unit": "x",
                       "better": "higher", "bound": None},
            "scaling": {"value": 2.5, "unit": "x",
                        "better": "higher", "bound": None},
        },
        "floors": [
            {"metric": "speedup", "min": 3},
            {"metrics": ["a.gain", "b.gain", "c.gain"], "at_least": 2,
             "min": 5},
            {"metric": "scaling", "min": 2, "min_cpus": 2},
        ],
    }


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.count = 0

    def tearDown(self):
        self.dir.cleanup()

    def write(self, doc):
        self.count += 1
        path = os.path.join(self.dir.name, f"snap{self.count}.json")
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_checker(self, *docs):
        paths = [self.write(d) for d in docs]
        proc = subprocess.run([sys.executable, CHECKER, *paths],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr, paths

    def fresh_with(self, **values):
        doc = snapshot()
        for name, value in values.items():
            doc["metrics"][name.replace("_", ".")]["value"] = value
        return doc

    def test_passing_pair_exits_0(self):
        code, out, _ = self.run_checker(snapshot(), snapshot())
        self.assertEqual(code, 0, out)
        self.assertIn("all gates passed", out)

    def test_rate_worse_than_bound_fails_and_is_named(self):
        code, out, _ = self.run_checker(snapshot(),
                                        self.fresh_with(rate=7.9e8))
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"fixture rate: .*FAIL")
        code, out, _ = self.run_checker(snapshot(),
                                        self.fresh_with(rate=8.1e8))
        self.assertEqual(code, 0, out)

    def test_lower_is_better_bound(self):
        code, out, _ = self.run_checker(snapshot(),
                                        self.fresh_with(latency=12.1))
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"fixture latency: .*FAIL")

    def test_exact_value_must_match(self):
        code, out, _ = self.run_checker(snapshot(),
                                        self.fresh_with(records=600001))
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"fixture records: .*exact.*FAIL")

    def test_min_floor_miss_fails(self):
        code, out, _ = self.run_checker(snapshot(),
                                        self.fresh_with(speedup=2.9))
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"floor speedup >= 3: .*FAIL")

    def test_max_floor(self):
        base = snapshot()
        base["floors"] = [{"metric": "speedup", "max": 5}]
        self.assertEqual(self.run_checker(base, self.fresh_with(speedup=5))[0],
                         0)
        code, out, _ = self.run_checker(base, self.fresh_with(speedup=5.1))
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"floor speedup <= 5: .*FAIL")

    def test_at_least_miss_fails(self):
        code, out, _ = self.run_checker(snapshot(),
                                        self.fresh_with(b_gain=4.9))
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"floor 2 of \[a.gain, b.gain, c.gain\].*FAIL")

    def test_min_cpus_floor_is_skipped_on_one_cpu(self):
        fresh = self.fresh_with(scaling=1.0)
        fresh["cpus"] = 1
        code, out, _ = self.run_checker(snapshot(), fresh)
        self.assertEqual(code, 0, out)
        self.assertRegex(out, r"floor scaling >= 2: .*skipped")
        fresh["cpus"] = 2
        self.assertEqual(self.run_checker(snapshot(), fresh)[0], 1)

    def test_committed_bound_and_floor_apply(self):
        fresh = self.fresh_with(rate=5e8, speedup=1.0)
        fresh["metrics"]["rate"]["bound"] = 0.9
        fresh["floors"] = [{"metric": "speedup", "min": 0.5}]
        code, out, _ = self.run_checker(snapshot(), fresh)
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"fixture rate: .*FAIL")
        self.assertRegex(out, r"floor speedup >= 3: .*FAIL")

    def test_missing_metric_exits_2_naming_file_and_key(self):
        fresh = snapshot()
        del fresh["metrics"]["rate"]
        code, out, paths = self.run_checker(snapshot(), fresh)
        self.assertEqual(code, 2, out)
        self.assertIn(paths[1], out)
        self.assertIn("metrics.rate", out)

    def test_non_json_file_exits_2_naming_file(self):
        code, out, paths = self.run_checker(snapshot(), "not json {")
        self.assertEqual(code, 2, out)
        self.assertIn(paths[1], out)

    def test_later_pair_is_checked_after_a_failure(self):
        second = snapshot()
        second["bench"] = "second"
        code, out, _ = self.run_checker(snapshot(), self.fresh_with(rate=1.0),
                                        second, second)
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"fixture rate: .*FAIL")
        self.assertRegex(out, r"second floor speedup >= 3: .*ok")

    def test_odd_argument_count_exits_2(self):
        code, out, _ = self.run_checker(snapshot())
        self.assertEqual(code, 2, out)


if __name__ == "__main__":
    CHECKER = sys.argv.pop(1)
    unittest.main()
