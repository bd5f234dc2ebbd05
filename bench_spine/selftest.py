"""Self-test of the benchmark's own surface (a plain script, not a pytest file).

Checks the declared names against the contract's limits, that
``BENCHMARK.json`` is exactly what ``spec.py`` renders, that every per-layer
metric names the end-to-end metric and workload it should move, and — by
running ``run.py --smoke`` — that every declared name is actually printed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec() -> None:
    declared = json.loads(spec.BENCHMARK_JSON.read_text(encoding="utf-8"))
    check(declared == spec.render(),
          "BENCHMARK.json differs from spec.render(); run spec.py --write")
    check(2 <= len(spec.WORKLOADS) <= 8, "2 to 8 workloads")
    check(1 <= len(spec.END_TO_END) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(spec.PER_LAYER) <= 128, "1 to 128 per-layer metrics")
    check(1 <= spec.RUN_SECONDS <= 60, "run_seconds in 1..60")
    names = ([n for n, _ in spec.WORKLOADS] + [m[0] for m in spec.END_TO_END]
             + [m[0] for m in spec.PER_LAYER])
    check(len(names) == len(set(names)), "every name is used once")
    for name in names:
        check(bool(NAME.match(name)), f"bad name {name!r}")
    for _name, why in spec.WORKLOADS:
        check(len(why) <= 200 and "\n" not in why, f"why too long: {why[:40]}...")
    for name, unit, better, bound in spec.END_TO_END:
        check(bool(UNIT.match(unit)), f"bad unit {unit!r} on {name}")
        check(better in ("higher", "lower"), f"bad direction on {name}")
        check(0 < bound <= 0.25, f"bound out of range on {name}")
    check(("setup_s", "s", "lower") in [m[:3] for m in spec.END_TO_END],
          "setup_s must be declared in seconds, lower is better")
    workloads = set(spec.workload_names())
    end_to_end = set(spec.end_to_end_units())
    for name, unit, better, call, moves in spec.PER_LAYER:
        check(bool(UNIT.match(unit)), f"bad unit {unit!r} on {name}")
        check(better in ("higher", "lower"), f"bad direction on {name}")
        check(bool(call), f"{name} names no public call or counter")
        check(bool(moves), f"{name} names nothing it should move")
        for move in moves:
            metric, _, workload = move.partition("@")
            check(metric in end_to_end and workload in workloads,
                  f"{name} moves unknown {move!r}")
    check(len(spec.BENCHMARK_JSON.read_bytes()) <= 64 * 1024, "BENCHMARK.json over 64 KiB")


def check_smoke() -> None:
    started = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    sys.stdout.write(done.stdout[-2000:])
    check(done.returncode == 0, f"run.py --smoke exited {done.returncode}\n{done.stderr}")
    printed = set(re.findall(r"^\s+(\S+)@(\S+)\s", done.stdout, flags=re.M))
    for workload in spec.workload_names():
        for name in list(spec.end_to_end_units()) + list(spec.per_layer_units()):
            check((name, workload) in printed, f"{name}@{workload} was not printed")
    print(f"smoke run took {elapsed:.1f} s")


if __name__ == "__main__":
    check_spec()
    print("spec ok: "
          f"{len(spec.WORKLOADS)} workloads, {len(spec.END_TO_END)} end-to-end, "
          f"{len(spec.PER_LAYER)} per-layer metrics")
    if "--no-smoke" not in sys.argv[1:]:
        check_smoke()
    print("selftest ok")
