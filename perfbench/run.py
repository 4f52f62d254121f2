"""Seeded benchmark of the turancover pipeline, end to end and per layer.

    python3 perfbench/run.py --workload exact_corpus --seed 1 --seconds 30 --trace 0

Runs one workload of ``workloads.py`` as a closed loop with one caller,
against the package in ``src/`` of the checkout this file sits in.
Every operation's output is checked outside the timed region.  Human-
readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Timings are host-speed corrected.  On a shared host the CPU speed can
drift by up to half between multi-second regimes, so a fixed
pure-Python reference loop is timed between operations, and each
operation's wall time is scaled by ``REFERENCE_S`` over the mean of the
reference times taken just before and after it: a reported second is a
second at the speed where that loop takes ``REFERENCE_S``.  The raw
wall-clock figures are printed alongside.

``--trace 0`` loops over whole input cycles until ``--seconds`` of wall
time have passed and reports the end-to-end metrics.  ``--trace 1``
runs a fixed pass of ``trace_cycles`` cycles twice, first without and
then with the span wrappers of ``spans.py``, and reports the per-layer
metrics plus the tracing overhead (traced time over untraced time,
minus one).  Spans and the self-time table go to
``.bench_out/<workload>-seed<seed>-spans.jsonl``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: one caller, on a host with two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_TIMEOUT_S = 60
REFERENCE_S = 0.003  # nominal duration of one reference loop


def _reference_seconds() -> float:
    """Best of three timings of a fixed pure-Python loop (about 3 ms)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(24000):
            key = (i * 7919) % 211
            table[key] = table.get(key, 0) + i * i % 13
        best = min(best, time.perf_counter() - start)
    return best


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact_corpus", "float_pairs", "cli_pipes"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: tiny inputs and one set-up probe, for the smoke test")
    return parser.parse_args(argv)


def _import_package():
    """Put the checkout's src/ first on sys.path and import turancover from it."""
    if not (SRC / "turancover" / "__init__.py").is_file():
        raise SystemExit(f"error: no turancover package under {SRC}")
    sys.path.insert(0, str(SRC))
    import turancover
    if Path(turancover.__file__).resolve().parent != (SRC / "turancover").resolve():
        raise SystemExit(f"error: imported turancover from {turancover.__file__}")


def _environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _setup_timings(repeats: int):
    """Set-up times of fresh interpreters, as (raw, reference before,
    reference after) triples.  One unmeasured probe first warms file caches.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timings = []
    before = _reference_seconds()
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, str(HERE / "warmup.py")], env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        after = _reference_seconds()
        if i:
            timings.append((float(proc.stdout.strip().splitlines()[-1]), before, after))
        before = after
    return timings


def _execute(op, tracer=None):
    """Run one operation (timed) and check it (untimed); never raises."""
    from workloads import Outcome

    if tracer is not None:
        tracer.op = op.key
        tracer.active = True
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an operation that raises counts as failed
        return Outcome(False, f"raised {type(exc).__name__}: {exc}"), time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter() - start
    try:
        outcome = op.check(out)
    except Exception as exc:  # a check that cannot even run is a failed check
        outcome = Outcome(False, f"check raised {type(exc).__name__}: {exc}")
    return outcome, elapsed


def _report_failures(keys, outcomes):
    for key, outcome in zip(keys, outcomes):
        if not outcome.ok:
            print(f"FAILED op {key}: {outcome.note}")


def _percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _run_ops(ops, tracer=None):
    """Run ops in order.

    Returns the outcomes and one (raw seconds, reference seconds before,
    reference seconds after) triple per operation.
    """
    outcomes, timings = [], []
    before = _reference_seconds()
    for op in ops:
        outcome, elapsed = _execute(op, tracer)
        after = _reference_seconds()
        outcomes.append(outcome)
        timings.append((elapsed, before, after))
        before = after
    return outcomes, timings


def _corrected(timings):
    return [raw * 2 * REFERENCE_S / (before + after) for raw, before, after in timings]


def _timed_run(workload, args, workdir, env):
    timings, outcomes, keys = [], [], []
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < args.seconds:
        ops = workload.cycle(args.seed, cycle, args.size, workdir)
        done, measured = _run_ops(ops)
        outcomes += done
        timings += measured
        keys += [op.key for op in ops]
        cycle += 1
        if cycle == 1:
            first_cycle = len(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _report_failures(keys, outcomes)
    raw = [t[0] for t in timings]
    durations = _corrected(timings)
    path = OUT / f"{workload.name}-seed{args.seed}-ops.jsonl"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(json.dumps({"workload": workload.name, "seed": args.seed,
                                 "env": env}) + "\n")
        for key, outcome, (wall, before, after) in zip(keys, outcomes, timings):
            handle.write(json.dumps({"op": key, "ok": outcome.ok, "note": outcome.note,
                                     "raw_s": wall, "reference_before_s": before,
                                     "reference_after_s": after,
                                     "sha256": outcome.digest}) + "\n")

    ok = [o for o in outcomes if o.ok]
    with_lp = [o for o in ok if o.lp_opt is not None]
    tail = _percentile(durations, workload.tail_pct)
    beyond = sum(1 for d in durations if d > tail)
    failed = len(outcomes) - len(ok)
    print(f"cycles {cycle}, operations {len(durations)}, op time {sum(durations):.3f} s "
          f"corrected, {sum(raw):.3f} s raw")
    print(f"raw wall clock: ops_per_s {len(ok) / sum(raw):.4f} 1/s, "
          f"op_p50_s {statistics.median(raw):.4f} s")
    print(f"op_tail_s is p{workload.tail_pct} of {len(durations)} samples, "
          f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than ten)"))
    digests = [o.digest for o in outcomes[:first_cycle] if o.digest]
    if digests:  # same seed and code: the same value on every run
        combined = hashlib.sha256(" ".join(digests).encode("ascii")).hexdigest()
        print(f"sha256 of the first cycle's outputs {combined}")
    print(f"per-operation times and digests written to {path.relative_to(ROOT)}")
    metrics = {
        "ops_per_s": _metric(len(ok) / sum(durations), "1/s"),
        "op_p50_s": _metric(statistics.median(durations), "s"),
        "op_tail_s": _metric(tail, "s"),
        "cover_ratio": _metric(sum(o.cover_size for o in with_lp)
                               / sum(o.lp_opt for o in with_lp) if with_lp else 0.0, "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    return len(outcomes), failed, metrics


def _traced_run(workload, args, workdir, env):
    from spans import Tracer, layer_metrics

    ops = [op for c in range(workload.trace_cycles)
           for op in workload.cycle(args.seed, c, args.size, workdir)]
    keys = [op.key for op in ops]
    plain, plain_timings = _run_ops(ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_timings = _run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    plain_s = sum(t[0] for t in plain_timings)
    traced_s = sum(t[0] for t in traced_timings)
    for a, b in zip(plain, traced):  # same inputs twice: output bytes must repeat
        if a.digest != b.digest:
            b.ok = False
            b.note = "output bytes differ between the untraced and traced pass"
    outcomes = plain + traced
    _report_failures(keys + keys, outcomes)
    failed = sum(1 for o in outcomes if not o.ok)

    metrics = layer_metrics(tracer)
    overhead = sum(_corrected(traced_timings)) / sum(_corrected(plain_timings)) - 1
    metrics["trace.overhead"] = _metric(overhead, "ratio")
    metrics["trace.ops"] = _metric(len(ops), "count")
    table = tracer.table()
    top_level = sum(end - start for _, start, end, parent, _, _ in tracer.spans if parent < 0)
    print(f"traced pass: {len(ops)} operations, untraced {plain_s:.3f} s, traced "
          f"{traced_s:.3f} s raw, tracing overhead {overhead:+.2%} (speed corrected)")
    print(f"self time by span ({workload.name}, seed {args.seed}):")
    print(f"  {'span':44} {'calls':>7} {'total_s':>10} {'self_s':>10} {'share':>7}")
    for key, calls, total, own in table:
        print(f"  {key:44} {calls:7d} {total:10.4f} {own:10.4f} {own / traced_s:7.1%}")
    outside = traced_s - top_level
    print(f"  {'(outside any span)':44} {'':7} {'':10} {outside:10.4f} {outside / traced_s:7.1%}")
    path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
    tracer.write_jsonl(path, table, {"workload": workload.name, "seed": args.seed,
                                     "untraced_s": plain_s, "traced_s": traced_s,
                                     "env": env})
    print(f"spans written to {path.relative_to(ROOT)}")
    return len(outcomes), failed, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    from warmup import warm
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = _environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} size {args.size}")
    setup_timings = _setup_timings(1 if args.size == "smoke" else 5)
    setup = _corrected(setup_timings)
    setup_s = statistics.median(setup)
    print(f"setup_s samples {' '.join(f'{s:.4f}' for s in setup)} corrected, "
          f"{' '.join(f'{t[0]:.4f}' for t in setup_timings)} raw")
    warm()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        # one untimed operation lets first-call costs inside the solvers pass
        _execute(workload.cycle(args.seed, 0, args.size, workdir)[0])
        if args.trace:
            attempted, failed, metrics = _traced_run(workload, args, workdir, env)
        else:
            attempted, failed, metrics = _timed_run(workload, args, workdir, env)
            metrics = {"setup_s": _metric(setup_s, "s"), **metrics}
    finally:
        shutil.rmtree(workdir)
    for name, m in metrics.items():
        print(f"{name:44} {m['value']!r:>24} {m['unit']}")
    print(f"{'failed_frac':44} {failed / attempted!r:>24} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
