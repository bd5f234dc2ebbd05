"""Compare two sets of benchmark runs: ``compare.py A.jsonl B.jsonl``.

Each file holds one or more lines written by ``run.py`` (``--out``); a file
with several lines is a set of runs of one commit.  ``A`` is the parent,
``B`` the change.  For every (end-to-end metric, workload) pair the medians
are compared in the metric's own direction against its own bound, and one
row is printed:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``regression``  it is worse by more than the bound;
* ``improved``    it is better by more than the bound, or the spread is wide
                  but every run of B beats every run of A;
* ``unresolved``  the run-to-run spread (interquartile range over median, on
                  either side) is wider than the bound, so the pair decides
                  nothing.

Exit status is non-zero on any ``regression`` or when B's ``fail_ratio`` is
higher than A's on any workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def relative_spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 when one run cannot say."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(label, share by which B's median is worse than A's)``."""
    sign = 1.0 if better == "lower" else -1.0
    base = median(a)
    worse = sign * (median(b) - base) / abs(base) if base else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if max(relative_spread(a), relative_spread(b)) > bound:
        if all_better:
            return "improved", worse
        if all_worse and worse > bound:
            return "regression", worse
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def compare(a_runs: list[dict], b_runs: list[dict]) -> int:
    failures = 0
    print(f"A: {len(a_runs)} run(s) of {a_runs[0].get('commit', '?')[:12]}   "
          f"B: {len(b_runs)} run(s) of {b_runs[0].get('commit', '?')[:12]}")
    print(f"{'metric@workload':34s} {'A median':>14s} {'B median':>14s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload in spec.workload_names():
        for name, _unit, better, bound in spec.END_TO_END:
            a = [run["end_to_end"][workload][name] for run in a_runs]
            b = [run["end_to_end"][workload][name] for run in b_runs]
            label, worse = verdict(a, b, better, bound)
            failures += label == "regression"
            print(f"{name + '@' + workload:34s} {median(a):14.6f} {median(b):14.6f} "
                  f"{worse:+9.4f} {bound:6.2f}  {label}")
        a_fail = max(run["fail_ratio"][workload] for run in a_runs)
        b_fail = max(run["fail_ratio"][workload] for run in b_runs)
        label = "regression" if b_fail > a_fail else "ok"
        failures += label == "regression"
        print(f"{'fail_ratio@' + workload:34s} {a_fail:14.6f} {b_fail:14.6f} "
              f"{b_fail - a_fail:+9.4f} {0:6.2f}  {label}")
    print(f"{failures} regression(s)")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
