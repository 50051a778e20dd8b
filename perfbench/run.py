#!/usr/bin/env python3
"""Run one workload of the latmin benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The run sets up several times (import plus input construction)
and reports the median, then runs whole rounds of operations in a closed
loop, one operation after another in this one process, until ``--seconds``
have passed.  Each output is checked against independent computations as
soon as its operation returns, outside the timed phase, and then dropped.
Times are scaled to a nominal machine speed measured by calibration work
run after each set-up and operation.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same loop runs with spans around every call into the program's layers
and the metrics are the per-layer ones.  The line before it, ``{"info":
...}``, carries the kernel backend, Python version, core count, round and
operation counts and the first failure messages.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
TAIL_MIN_OPS = 100  # op_p90_ms is reported only when a run holds this many operations
# After each operation the run spends this share of its time on calibration
# work, so the calibration samples the machine's speed in the same
# proportions as the operations do.  A set-up is short (tens of ms), so the
# sample after it is as long as the set-up itself.
CALIBRATION_SHARE = 0.1
SETUP_CALIBRATION_SHARE = 1.0
# Nominal time of one calibration chunk: reported times are scaled to a
# machine on which a chunk takes this long.
REF_CHUNK_S = 0.0015


def calibration_chunk():
    """Fixed integer and Fraction work in plain Python, the same in every run
    and on every commit; its time tracks how fast the machine runs now."""
    s, f = 0, Fraction(0)
    for i in range(1, 400):
        s += (i * i) % 7
        f += Fraction(i % 13, i % 11 + 1)
    return s, f


class Speed:
    """Calibration-chunk times, against REF_CHUNK_S."""

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0

    def sample(self, budget):
        """Run whole chunks for ``budget`` seconds, at least one, and return
        how many times slower than nominal the machine ran meanwhile."""
        chunks, seconds = 0, 0.0
        t_end = time.perf_counter() + budget
        while True:
            t0 = time.perf_counter()
            calibration_chunk()
            t1 = time.perf_counter()
            chunks += 1
            seconds += t1 - t0
            if t1 >= t_end:
                break
        self.chunks += chunks
        self.seconds += seconds
        return seconds / chunks / REF_CHUNK_S

    def factor(self):
        """How many times slower than nominal the machine ran over all samples."""
        return self.seconds / self.chunks / REF_CHUNK_S


def import_program():
    """Import the package afresh from ``src/`` and return its modules."""
    for name in [m for m in sys.modules if m == "latmin" or m.startswith("latmin.")]:
        del sys.modules[name]
    latmin = importlib.import_module("latmin")
    mods = {layer: importlib.import_module(f"latmin.{layer}") for layer in spans.LAYERS}
    if Path(latmin.__file__).resolve().parent != SRC / "latmin":
        raise SystemExit(f"error: imported latmin from {latmin.__file__}, not from {SRC}")
    return SimpleNamespace(latmin=latmin, **{k.lstrip("_"): v for k, v in mods.items()})


def setup(workload, plan):
    """One set-up: import, then build every planned operation's inputs."""
    P = import_program()
    rounds = [[workload.build(P, spec) for spec in rnd] for rnd in plan]
    return P, rounds


def timed_loop(workload, P, planner, plan, rounds, seed, seconds, speed):
    """Whole rounds, one operation after another, until ``seconds`` pass.

    Each output is checked as soon as its call returns and then dropped;
    only the outputs of the first ``workload.keep_rounds`` rounds are kept,
    for ``workload.finish``.  So what the run holds does not grow with the
    number of operations it completes.  After each operation, ``speed`` (if
    given) samples calibration work for a share of the operation's time.
    Checking, and planning more rounds when the planned ones run out, are
    left out of the phase."""
    state = workload.start(P, seed)
    loop = SimpleNamespace(times=[], factors=[], ok=[], errors=[], failures=[], kept=[],
                           pauses=[], checking_s=0.0, rounds=0)
    t_start = time.perf_counter()
    r = 0
    while True:
        if r == len(rounds):
            t_pause = time.perf_counter()
            extra = list(itertools.islice(planner, workload.plan_rounds))
            plan.extend(extra)
            rounds.extend([workload.build(P, spec) for spec in rnd] for rnd in extra)
            loop.pauses.append((t_pause, time.perf_counter()))
        for spec, item in zip(plan[r], rounds[r]):
            t0 = time.perf_counter()
            try:
                out = workload.run(P, state, item)
            except Exception as exc:  # a failed operation is counted, the run goes on
                out = exc
            t1 = time.perf_counter()
            loop.times.append(t1 - t0)
            loop.ok.append(not isinstance(out, Exception))
            if isinstance(out, Exception):
                loop.errors.append(f"{spec}: {type(out).__name__}: {out}")
            else:
                loop.failures.extend(workload.check(spec, out))
                if r < workload.keep_rounds:
                    loop.kept.append(out)
            loop.checking_s += time.perf_counter() - t1
            if speed is not None:
                loop.factors.append(speed.sample(CALIBRATION_SHARE * (t1 - t0)))
        rounds[r] = None  # built inputs are used once
        r += 1
        elapsed = time.perf_counter() - t_start - loop.checking_s - sum(b - a for a, b in loop.pauses)
        if elapsed >= seconds:
            break
    loop.rounds = r
    loop.phase = (t_start, time.perf_counter(), loop.pauses, loop.checking_s)
    return loop


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="with --trace 1, also write every span here (gzip CSV)")
    args = ap.parse_args(argv)
    if not (SRC / "latmin" / "__init__.py").is_file():
        print(f"error: no latmin package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    planner = workload.plan(args.seed)
    plan = list(itertools.islice(planner, workload.plan_rounds))
    setup_speed = Speed()
    setup_times, setup_factors = [], []
    for _ in range(SETUP_REPEATS):
        # the previous set-up's modules and inputs go before the next starts,
        # so the peak memory holds one set-up, however many are timed
        P = rounds = None
        gc.collect()
        t0 = time.perf_counter()
        P, rounds = setup(workload, plan)
        setup_times.append(time.perf_counter() - t0)
        setup_factors.append(setup_speed.sample(SETUP_CALIBRATION_SHARE * setup_times[-1]))

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(
            tracer, P.latmin, [m for k, m in sys.modules.items() if k == "latmin" or k.startswith("latmin.")]
        )
    speed = None if tracer else Speed()
    loop = timed_loop(workload, P, planner, plan, rounds, args.seed, args.seconds, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    failures = loop.failures + workload.finish(P, args.seed, loop.kept, span)
    times = sorted(t for t, ok in zip(loop.times, loop.ok) if ok)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": P.kernel.backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rounds": loop.rounds,
        "ops": len(loop.times),
        "setup_runs_s": setup_times,
        "failed_ops": loop.errors[:10],
        "check_failures": failures[:10],
    }
    if len(times) >= TAIL_MIN_OPS:
        info["op_p90_ms"] = statistics.quantiles(times, n=10)[-1] * 1000
    if tracer is None:
        # Raw figures, and the same with each operation's (and set-up's)
        # time divided by the speed factor sampled right after it.
        scaled = [t / f for t, f in zip(loop.times, loop.factors)]
        info["raw"] = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(loop.times) / sum(loop.times),
            "op_p50_ms": statistics.median(times) * 1000,
        }
        info["speed_factor"] = {"setup": setup_speed.factor(), "loop": speed.factor()}
        metrics = {
            "setup_s": (statistics.median(t / f for t, f in zip(setup_times, setup_factors)), "s"),
            "ref_ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "ref_op_p50_ms": (statistics.median(t for t, ok in zip(scaled, loop.ok) if ok) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = spans.layer_metrics(tracer, loop.phase)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(loop.times),
        "failed": len(loop.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
