#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py DIR              # spread of each metric
    python3 perfbench/compare.py BEFORE AFTER     # verdict per metric

A set is a directory of run outputs as ``sweep.py`` writes them.  For each
(workload, end-to-end metric) pair the summary gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median, against the
metric's bound in BENCHMARK.json.  It also gives the share of failed
operations.  It exits 1 when any spread exceeds its metric's bound or any
run's checks failed, else 0.

A comparison gives a verdict for each pair:

- ``worse``: the after median is worse than the before median by more than
  the bound;
- ``better``: after wins at least nine in ten runs paired by seed, and the
  medians differ by more than the before set's own quartile distance;
- ``unresolved``: either set spreads wider than the bound and not every
  after run beats every before run, or a gain falls short of the rule above
  but is not within the bound either;
- ``unchanged``: otherwise.

All runs of a set must share one run length; a comparison refuses two sets
whose run lengths differ (exit 2).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}


def load(directory):
    """({workload: {seed: result}}, run seconds) for the untraced runs in a
    directory; exits 2 if the runs differ in length."""
    runs = defaultdict(dict)
    seconds = set()
    for path in sorted(Path(directory).glob("*.out")):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        if len(lines) < 2:
            continue
        info = json.loads(lines[-2]).get("info", {})
        result = json.loads(lines[-1])
        if info.get("trace") == 0:
            runs[info["workload"]][info["seed"]] = result
            seconds.add(info["seconds"])
    if len(seconds) > 1:
        print(f"error: runs in {directory} differ in length: {sorted(seconds)} s", file=sys.stderr)
        sys.exit(2)
    return runs, seconds.pop() if seconds else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def values_of(runs, metric):
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items()}


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs.values())
    return sum(r["failed"] for r in runs.values()) / attempted if attempted else 0.0


def summarise(directory):
    runs, _ = load(directory)
    ok = True
    print(f"{'workload':16s} {'metric':12s} {'n':>3s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, by_seed in sorted(runs.items()):
        for metric, spec in METRICS.items():
            vals = sorted(values_of(by_seed, metric).values())
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "" if spread <= spec["bound"] else "  > bound"
            ok &= not mark
            print(f"{workload:16s} {metric:12s} {len(vals):3d} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:8.4f} {spec['bound']:6.2f}{mark}")
        correct = all(r["correct"] for r in by_seed.values())
        print(f"{workload:16s} failed share {failed_share(by_seed):.6f}, all correct: {correct}")
        ok &= correct
    return 0 if ok else 1


def verdict(before, after, spec):
    """Verdict for one metric, from {seed: value} of each side."""
    bound = spec["bound"]
    sign = 1 if spec["better"] == "lower" else -1
    b1, bmed, b3 = quartiles(sorted(before.values()))
    a1, amed, a3 = quartiles(sorted(after.values()))
    worse_by = sign * (amed - bmed) / bmed
    spread = max((b3 - b1) / bmed, (a3 - a1) / amed)
    if sign == 1:
        all_better = max(after.values()) < min(before.values())
    else:
        all_better = min(after.values()) > max(before.values())
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    seeds = sorted(set(before) & set(after))
    if not seeds:  # no common seed: pair the runs in seed order
        pairs = list(zip([before[s] for s in sorted(before)], [after[s] for s in sorted(after)]))
    else:
        pairs = [(before[s], after[s]) for s in seeds]
    wins = sum(1 for b, a in pairs if sign * a < sign * b)
    if worse_by < 0 and wins >= 0.9 * len(pairs) and abs(amed - bmed) > b3 - b1:
        return "better"
    if worse_by < -bound:
        return "unresolved"
    return "unchanged"


def _fmt(q):
    return "/".join(f"{x:.5g}" for x in q)


def compare(before_dir, after_dir):
    (before, b_seconds), (after, a_seconds) = load(before_dir), load(after_dir)
    if b_seconds != a_seconds:
        print(f"error: before runs last {b_seconds} s, after runs {a_seconds} s", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':12s} {'before q1/med/q3':>36s} {'after q1/med/q3':>36s} {'change':>8s}  verdict")
    for workload in sorted(set(before) & set(after)):
        for metric, spec in METRICS.items():
            b, a = values_of(before[workload], metric), values_of(after[workload], metric)
            bq, aq = quartiles(sorted(b.values())), quartiles(sorted(a.values()))
            change = (aq[1] - bq[1]) / bq[1]
            print(f"{workload:16s} {metric:12s} {_fmt(bq):>36s} {_fmt(aq):>36s} {change:+8.2%}  {verdict(b, a, spec)}")
        print(f"{workload:16s} failed share before {failed_share(before[workload]):.6f}, "
              f"after {failed_share(after[workload]):.6f}")
    return 0


def main(argv):
    if len(argv) == 1:
        return summarise(argv[0])
    if len(argv) == 2:
        return compare(*argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
