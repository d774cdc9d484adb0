#!/usr/bin/env python3
"""Gate fresh bench snapshots against the committed ones.

Usage: bench_check.py BASE FRESH [BASE FRESH ...]

Each pair is a committed snapshot (BASE, e.g. BENCH_replay.json) and a
fresh `--out` snapshot of the same bench. Both are in the one schema that
bench/common.hpp's Snapshot writes:

  {"bench": NAME, "cpus": N,
   "metrics": {NAME: {"value": V, "unit": U,
                      "better": "higher" | "lower" | "equal",
                      "bound": B | null}, ...},
   "floors": [{"metric": M | "metrics": [M, ...], "at_least": K,
               "min": X | "max": X, "min_cpus": C}, ...]}

Every bound and floor is read from BASE, so a fresh run cannot relax its
own gate. For each metric of BASE:

- bound B > 0: the fresh value may be worse than the committed one, in the
  direction of `better`, by at most the fraction B;
- bound 0: the fresh value must equal the committed one exactly (counts,
  energies and other deterministic values);
- bound null: not compared; floors read it.

Each floor holds when the fresh value is >= min (or <= max). A floor over a
list of metrics holds when at least `at_least` of them do (default all). A
floor with min_cpus is skipped when the fresh run had fewer cpus.

Every pair is checked and printed. Exit status: 0 when every check holds,
1 when any fails, 2 when a file is unreadable or lacks a key.
"""

import json
import sys

NUMBER = (int, float)


class Malformed(Exception):
    """A snapshot that cannot be read or lacks a key."""


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise Malformed(f"{path}: cannot read a JSON snapshot: {e}")
    if not isinstance(doc, dict):
        raise Malformed(f"{path}: not a JSON object")
    return doc


def get(obj, key, kinds, path, where=""):
    """obj[key] if it is one of `kinds` (never a bool), else Malformed."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise Malformed(f"{path}: missing or malformed '{where}{key}'")
    return value


def value_of(doc, name, path):
    metric = get(get(doc, "metrics", dict, path), name, dict, path, "metrics.")
    return float(get(metric, "value", NUMBER, path, f"metrics.{name}."))


def check_metric(name, spec, base_path, fresh, fresh_path, bench):
    """Compares one metric; returns True when it holds."""
    where = f"metrics.{name}."
    if "bound" not in spec:
        raise Malformed(f"{base_path}: missing '{where}bound'")
    bound = spec["bound"]
    if bound is None:
        return True
    if isinstance(bound, bool) or not isinstance(bound, NUMBER) or bound < 0:
        raise Malformed(f"{base_path}: malformed '{where}bound'")
    old = float(get(spec, "value", NUMBER, base_path, where))
    unit = get(spec, "unit", str, base_path, where)
    better = get(spec, "better", str, base_path, where)
    new = value_of(fresh, name, fresh_path)
    if bound == 0:
        ok = new == old
        shown = f"{new:.17g} vs committed {old:.17g} {unit} (exact)"
    elif better in ("higher", "lower"):
        ok = new >= old * (1 - bound) if better == "higher" \
            else new <= old * (1 + bound)
        ratio = f"{new / old:.2f}x" if old else "-"
        shown = (f"{new:.6g} vs committed {old:.6g} {unit} ({ratio}, "
                 f"{better} is better, bound {bound:.0%})")
    else:
        raise Malformed(f"{base_path}: '{where}better' is '{better}'")
    print(f"[bench_check] {bench} {name}: fresh {shown} "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def check_floor(floor, base_path, fresh, fresh_path, cpus, bench):
    """Checks one floor on the fresh values; returns True when it holds."""
    if not isinstance(floor, dict):
        raise Malformed(f"{base_path}: malformed entry in 'floors'")
    if "metric" in floor:
        names = [get(floor, "metric", str, base_path, "floors[].")]
    else:
        names = get(floor, "metrics", list, base_path, "floors[].")
        if not names or not all(isinstance(n, str) for n in names):
            raise Malformed(f"{base_path}: malformed 'floors[].metrics'")
    need = get(floor, "at_least", int, base_path, "floors[].") \
        if "at_least" in floor else len(names)
    if ("min" in floor) == ("max" in floor):
        raise Malformed(f"{base_path}: a floor needs exactly one of min, max")
    op = "min" if "min" in floor else "max"
    limit = float(get(floor, op, NUMBER, base_path, "floors[]."))
    min_cpus = get(floor, "min_cpus", int, base_path, "floors[].") \
        if "min_cpus" in floor else 0
    values = [value_of(fresh, n, fresh_path) for n in names]
    held = sum(v >= limit if op == "min" else v <= limit for v in values)
    label = names[0] if len(names) == 1 else \
        f"{need} of [{', '.join(names)}]"
    shown = ", ".join(f"{v:.4g}" for v in values)
    rule = f"{label} {'>=' if op == 'min' else '<='} {limit:g}"
    if cpus < min_cpus:
        print(f"[bench_check] {bench} floor {rule}: {shown} skipped "
              f"(fresh run had {cpus} cpu, floor needs {min_cpus})")
        return True
    ok = held >= need
    print(f"[bench_check] {bench} floor {rule}: {shown} "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def check_pair(base_path, fresh_path):
    """Checks one pair; returns the number of failed checks."""
    base, fresh = load(base_path), load(fresh_path)
    bench = get(base, "bench", str, base_path)
    if get(fresh, "bench", str, fresh_path) != bench:
        raise Malformed(f"{fresh_path}: 'bench' is not '{bench}'")
    cpus = get(fresh, "cpus", int, fresh_path)
    failed = 0
    for name, spec in get(base, "metrics", dict, base_path).items():
        if not isinstance(spec, dict):
            raise Malformed(f"{base_path}: malformed 'metrics.{name}'")
        failed += not check_metric(name, spec, base_path, fresh, fresh_path,
                                   bench)
    for floor in get(base, "floors", list, base_path):
        failed += not check_floor(floor, base_path, fresh, fresh_path, cpus,
                                  bench)
    return failed


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    failed = malformed = 0
    for base_path, fresh_path in zip(argv[::2], argv[1::2]):
        try:
            failed += check_pair(base_path, fresh_path)
        except Malformed as e:
            malformed += 1
            print(f"[bench_check] error: {e}")
    if malformed:
        print(f"[bench_check] {malformed} pair(s) could not be checked")
        return 2
    if failed:
        print(f"[bench_check] FAILED: {failed} check(s); investigate, or "
              "re-take the snapshot if the change is intended")
        return 1
    print("[bench_check] all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
