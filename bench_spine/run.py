"""The benchmark spine's one command.

Two ways in:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints, last, one JSON line
  ``{"correct", "attempted", "failed", "metrics"}`` — every end-to-end metric
  with ``--trace 0``, every per-layer metric with ``--trace 1``.
* ``run.py [--seed N] [--smoke] [--repeat N]`` runs all four workloads
  untraced, then the traced pass, each in a fresh process (so peak RSS is
  per workload), prints every metric by name and unit, and appends one JSON
  line per end-to-end pass to ``bench_spine/trajectory.jsonl`` (or ``--out``).

Exit status is non-zero when any answer failed the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

# One BLAS thread, set before numpy loads (workers and child runs inherit it).
# OpenBLAS worker threads spin-wait after each GEMM; on the 2-core reference
# host that is a third busy thread beside the load generator and the
# dispatcher, and it makes training no faster (3.5 s with one thread, 3.7 s
# with two) but twice as noisy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import spec  # noqa: E402
from compare import relative_spread  # noqa: E402

WARMUP_S = 2.0
#: The stack probe runs in blocks, one before and one after the window.  A
#: block is this many passes over a fixed slice of trained keys, then this
#: many unloaded targeted refreshes.
PROBE_PASSES, PROBE_REFRESHES, PROBE_KEYS = 5, 3, 150
PROBE_KEY_SEED = 97


# -- one workload, in this process ---------------------------------------------


class StackProbe:
    """The end-to-end numbers that describe the learned stack, not the window.

    The reference host slows by 40-70 % for a few seconds at a time.  A timing
    taken in one stretch reads 0.10 ms on one run and 0.18 ms on the next, so
    every timing here is taken in passes spread over the run (a block before
    the window, a block after) and reported as its *best* pass: a neighbour on
    the host only ever slows a pass down.

    * ``card_ms`` / ``index_ms`` / ``bloom_ms``: the guarded single calls over
      a fixed slice of trained keys.  One pass calls every key of the slice
      once per structure, so every pass's median is over the same calls; the
      metric is the smallest pass median.
    * ``refresh_s``: the fastest targeted shard refresh with no reads running
      and no served queries logged.
      Under reads the same refresh takes 1 s or 3 s from one run to the next
      (it queues for the interpreter lock), so that number is per-layer:
      ``adapt.refresh_loaded_s``.
    * accuracy and size use fixed evaluation sets, so they repeat exactly.
    """

    def __init__(self, fixture, seed: int) -> None:
        import streams as gen

        self.fixture = fixture
        self.picks = gen.direct_serial(
            seed, fixture, distinct=PROBE_KEYS, key_seed=PROBE_KEY_SEED)
        self.pass_ms: dict[str, list[float]] = {}
        self.refreshes: list[float] = []
        self.calls = self.violations = 0

    def block(self) -> None:
        import numpy as np

        import workloads
        from fixtures import NUM_SHARDS

        size = len(self.picks["card"].keys)
        # One pass unmeasured in the first block: plan arenas, lazy imports.
        passes = PROBE_PASSES + (not self.pass_ms)
        logs = workloads.serial_calls(
            self.fixture, self.picks, lambda rounds: rounds >= passes * size)
        ok = workloads.check_direct(self.fixture, self.picks, logs)
        self.violations += sum(int((~v).sum()) for v in ok.values())
        self.calls += 3 * passes * size
        for name in workloads.STRUCTURES:
            latency = workloads.rows(logs[name])[:, 1].reshape(passes, size)
            medians = np.median(latency[-PROBE_PASSES:], axis=1) * 1000.0
            self.pass_ms.setdefault(name, []).extend(medians.tolist())
        # Likewise one refresh unmeasured in the first block.  The log of
        # served queries is emptied first: after a ``refresh_mixed`` window it
        # holds 16 000 keys, the rebuild trains on them too, and the second
        # block would time a different refresh (0.35 s against 0.26 s).
        self.fixture.workload_log.clear()
        durations = []
        for number in range(PROBE_REFRESHES + (not self.refreshes)):
            started = time.perf_counter()
            self.fixture.refresher.refresh_now(
                [f"local_q_error:shard{number % NUM_SHARDS}"])
            durations.append(time.perf_counter() - started)
        self.refreshes.extend(durations[-PROBE_REFRESHES:])

    def report(self) -> dict[str, float]:
        import numpy as np
        from repro.core.qerror import q_error
        from repro.infer import attached_plans

        import streams as gen

        fixture = self.fixture
        report = {f"{name}_ms": min(values) for name, values in self.pass_ms.items()}
        report["refresh_s"] = min(self.refreshes)
        subsets, counts = fixture.card_pairs
        chosen = np.random.default_rng(99).choice(
            len(subsets), size=min(6000, len(subsets)), replace=False)
        estimates = fixture.g_est.estimate_many([subsets[i] for i in chosen])
        report["card_qerror"] = float(q_error(estimates, counts[chosen]).mean())
        absent = gen.absent_combos(
            np.random.default_rng(98), fixture, 10_000, oov_share=0.0)
        report["bloom_fpr"] = float(np.mean(fixture.g_bf.contains_many(absent)))
        structures = (fixture.est, fixture.idx, fixture.bf)
        report["structure_bytes"] = float(
            sum(s.total_bytes() for s in structures)
            + sum(p.size_bytes() for s in structures for p in attached_plans(s)))
        return report


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure(workload: str, seed: int, seconds: float, scale: float,
            warmup: float) -> tuple[dict, dict]:
    """Untraced run: ``(result line fields, human-readable extras)``."""
    from fixtures import build_fixture
    from workloads import RUNNERS

    # Set-up twice, the faster one reported: one slow stretch on the host
    # (see ``StackProbe``) otherwise reads as a 20-40 % slower set-up.
    spare = build_fixture(scale)
    spare.close()
    fixture = build_fixture(scale)
    try:
        probe = StackProbe(fixture, seed)
        probe.block()
        result = RUNNERS[workload](fixture, seed, warmup, seconds)
        probe.block()
        report = probe.report()
    finally:
        fixture.close()
    metrics = {
        "qps": result.qps, "p50_ms": result.p50_ms,
        **{name: report[name] for name in (
            "card_ms", "index_ms", "bloom_ms", "card_qerror", "bloom_fpr",
            "structure_bytes", "refresh_s")},
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": min(spare.setup_s, fixture.setup_s),
    }
    samples = {
        "latency": result.attempted - result.failed,
        "structure_passes": len(probe.pass_ms["card"]),
        "refresh_s": len(probe.refreshes),
        "setup_s": 2,
    }
    info = {"digests": result.digests, "samples": samples, "stages": fixture.stages,
            "tail_p99_ms": result.p99_ms, "setups_s": [spare.setup_s, fixture.setup_s],
            "pass_ms": probe.pass_ms, "refreshes_s": probe.refreshes}
    line = {
        "attempted": result.attempted + probe.calls,
        "failed": result.failed + probe.violations,
        "metrics": metrics,
    }
    return line, info


def measure_traced(workload: str, seed: int, seconds: float, scale: float,
                   warmup: float) -> tuple[dict, dict]:
    """Traced run: an untraced and a traced window, then the layer probes."""
    from fixtures import build_fixture
    from probes import run_probes
    from spans import SpanRecorder
    from workloads import RUNNERS

    fixture = build_fixture(scale)
    recorder = SpanRecorder()
    try:
        run = RUNNERS[workload]
        plain = run(fixture, seed, warmup, seconds / 4.0)
        traced = run(fixture, seed, min(warmup, 0.5), seconds / 4.0, recorder)
        metrics, probe_seconds = run_probes(
            fixture, seed, pace=min(1.0, seconds / spec.RUN_SECONDS))
    finally:
        fixture.close()
    metrics.update(traced.observed)
    metrics["bench.tail_p99_ms"] = traced.p99_ms
    metrics["bench.trace_overhead_ratio"] = traced.qps / plain.qps if plain.qps else 0.0
    trace_path = HERE / "out" / f"trace-{workload}.jsonl"
    recorder.write(trace_path)
    info = {
        "digests": traced.digests,
        "spans": len(recorder.spans),
        "probe_seconds": probe_seconds,
        "self_time_s": recorder.self_times(),
        "trace_file": str(trace_path.relative_to(HERE.parent)),
    }
    line = {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }
    return line, info


def stop_processes() -> None:
    """End and reap every process this run started, on every way out of it.

    ``Fixture.close`` stops the pool's workers; what is left is
    ``multiprocessing``'s resource tracker, which the pool's shared-memory
    plan segments start as a child of this process.  Left alone it ends only
    once this process is gone, so nothing waits for it; closing its pipe here
    ends it and ``_stop`` waits for it.  Any worker that outlived a failed
    close is killed first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join(10.0)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run_one(args) -> int:
    units = spec.per_layer_units() if args.trace else spec.end_to_end_units()
    run = measure_traced if args.trace else measure
    try:
        line, info = run(args.workload, args.seed, args.seconds, args.scale, args.warmup)
    finally:
        stop_processes()
    missing = sorted(set(units) - set(line["metrics"]))
    if missing:
        raise SystemExit(f"internal error: metrics not produced: {missing}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} scale {args.scale}")
    print("info " + json.dumps(info, sort_keys=True))
    for name in units:
        print(f"  {name:36s} {line['metrics'][name]:16.6f} {units[name]}")
    attempted, failed = line["attempted"], line["failed"]
    print(f"requests attempted {attempted} succeeded {attempted - failed} "
          f"failed {failed} fail_ratio {failed / max(attempted, 1):.6f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": line["metrics"][name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


# -- all workloads, one process each -------------------------------------------


def _spawn(workload: str, args, trace: int) -> subprocess.Popen:
    """Start one workload in a fresh interpreter."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", str(args.scale),
        "--warmup", str(args.warmup),
    ]
    return subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)


def _kill(child: subprocess.Popen) -> None:
    """Kill a child run with its pool workers (its own session) and reap it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.communicate()


def _collect(workload: str, child: subprocess.Popen) -> dict:
    """Wait for a child run and parse its result and ``info`` lines."""
    try:
        stdout, stderr = child.communicate(timeout=900)
    except BaseException as exc:  # timeout or interrupt: never leave it running
        _kill(child)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"{workload}: run did not finish within 900 s")
        raise
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(stdout + stderr)
        raise SystemExit(f"{workload}: run produced no result (exit {child.returncode})")
    out = json.loads(lines[-1])
    out["info"] = next(
        (json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    return out


def _children(args, trace: int) -> dict[str, dict]:
    """One run per workload, one at a time; all at once under ``--smoke``,
    which checks that every number is produced, not what it reads."""
    names = spec.workload_names()
    if args.smoke:
        started = {w: _spawn(w, args, trace) for w in names}
        try:
            return {w: _collect(w, child) for w, child in started.items()}
        finally:
            for child in started.values():
                if child.poll() is None:
                    _kill(child)
    return {w: _collect(w, _spawn(w, args, trace)) for w in names}


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _values(run: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in run["metrics"].items()}


def spread_table(passes: list[dict[str, dict]]) -> None:
    """Median, quartiles and relative spread per (metric, workload)."""
    print(f"\nnoise calibration over {len(passes)} end-to-end passes")
    print(f"  {'metric@workload':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'iqr/med':>8s} {'max dev':>8s}")
    for workload in spec.workload_names():
        for name in spec.end_to_end_units():
            values = [_values(p[workload])[name] for p in passes]
            mid = median(values)
            q1, _q2, q3 = quantiles(values, n=4)
            worst = max(abs(v - mid) for v in values) / mid if mid else 0.0
            print(f"  {name + '@' + workload:34s} {mid:14.6f} {q1:14.6f} {q3:14.6f} "
                  f"{relative_spread(values):8.4f} {worst:8.4f}")


def _record(args, run: dict[str, dict]) -> dict:
    """One trajectory line for one end-to-end pass."""
    import numpy

    names = spec.workload_names()
    return {
        "bench": "spine",
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "end_to_end": {w: _values(run[w]) for w in names},
        "fail_ratio": {w: run[w]["failed"] / run[w]["attempted"] for w in names},
        "requests": {w: {"attempted": run[w]["attempted"], "failed": run[w]["failed"]}
                     for w in names},
        "samples": {w: run[w]["info"].get("samples") for w in names},
        "streams": {w: run[w]["info"].get("digests") for w in names},
    }


def run_all(args) -> int:
    names = spec.workload_names()
    passes = []
    for number in range(args.repeat):
        print(f"end-to-end pass {number + 1}/{args.repeat} (tracing off)")
        passes.append(_children(args, 0))
        for workload, run in passes[-1].items():
            for name, value in _values(run).items():
                print(f"  {name + '@' + workload:34s} {value:16.6f} "
                      f"{spec.end_to_end_units()[name]}")
            print(f"  requests@{workload}: attempted {run['attempted']} succeeded "
                  f"{run['attempted'] - run['failed']} failed {run['failed']}")
    records = [_record(args, run) for run in passes]
    failed = sum(run["failed"] for p in passes for run in p.values())
    if args.repeat > 1:
        spread_table(passes)
    else:
        print("traced pass (per-layer metrics; end-to-end numbers never come from here)")
        traced = _children(args, 1)
        for workload, run in traced.items():
            for name, value in _values(run).items():
                print(f"  {name + '@' + workload:50s} {value:16.6f} "
                      f"{spec.per_layer_units()[name]}")
            print(f"  trace@{workload}: {run['info'].get('spans')} spans -> "
                  f"{run['info'].get('trace_file')}")
        failed += sum(run["failed"] for run in traced.values())
        records[0]["per_layer"] = {w: _values(traced[w]) for w in names}
        records[0]["self_time_s"] = {w: traced[w]["info"].get("self_time_s") for w in names}

    target = Path(args.out) if args.out else HERE / (
        "out/trajectory-smoke.jsonl" if args.smoke else "trajectory.jsonl")
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"appended {len(records)} line(s) to {target}")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.2, 2 s windows: a self-test, not a measurement")
    parser.add_argument("--repeat", type=int, default=1,
                        help="end-to-end passes; >1 prints the noise table and "
                             "skips the traced pass")
    parser.add_argument("--out", help="append result lines here instead of "
                                      "bench_spine/trajectory.jsonl")
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--warmup", type=float, default=WARMUP_S, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run unwinds like a failed one, so its children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.smoke:
        args.scale, args.seconds, args.warmup = 0.2, 2.0, 0.5
    if not (HERE.parent / "src" / "repro").is_dir():
        sys.stderr.write("bench_spine: src/repro not found next to bench_spine; "
                         "run from a checkout of the repository\n")
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
