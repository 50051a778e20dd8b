#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/sweep.py --out DIR [--seeds 1-10] [--trace 0|1]
    python3 perfbench/sweep.py --out DIR --before TREE --after TREE [--seeds 1-10]

Runs one process at a time, every workload in BENCHMARK.json for its
``run_seconds``, and writes the standard output of each run to
``DIR/<workload>-seed<N>-trace<T>.out``; traced runs also write their spans
to ``...spans.csv.gz``.

With ``--before`` and ``--after``, two source trees (checkouts holding
``src/`` and ``perfbench/``) are run seed by seed, each with its own
``perfbench/run.py``, into ``DIR/before`` and ``DIR/after``.  The two runs
of a seed follow each other, and odd seeds run the before tree first, even
seeds the after tree, so a drift in machine speed falls on both sides
alike.

Summarise a set, or compare two, with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(tree, out, workload, seed, trace):
    stem = out / f"{workload}-seed{seed}-trace{trace}"
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", f"{stem}.spans.csv.gz"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    Path(f"{stem}.out").write_text(proc.stdout)
    status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    print(f"{out.name} {workload} seed {seed} trace {trace}: {status}", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--before", type=Path, help="source tree of the before side")
    ap.add_argument("--after", type=Path, help="source tree of the after side")
    args = ap.parse_args(argv)
    if (args.before is None) != (args.after is None):
        ap.error("--before and --after go together")
    out = Path(args.out)
    if args.before is None:
        sides = [(HERE.parent, out)]
    else:
        sides = [(args.before.resolve(), out / "before"), (args.after.resolve(), out / "after")]
    for _, side_out in sides:
        side_out.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in BENCH["workloads"]):
        for seed in parse_seeds(args.seeds):
            for tree, side_out in sides if seed % 2 else sides[::-1]:
                run_one(tree, side_out, workload, seed, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
