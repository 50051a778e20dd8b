"""The four workloads: seeded plans, calls into the program, output checks.

A workload runs in rounds.  A round is a short fixed list of operation
kinds; the seed picks the inputs of each operation, and no input repeats
within a run, so a cache that lives across calls cannot turn later rounds
into repeats of earlier ones.  Plans are made by this file alone; the program
receives only the bodies, lattices and matrices built from them.

Each workload has four steps:

- ``plan(seed)``: the inputs of round after round, as plain Python data,
  made without the program;
- ``build(P, spec)``: the program objects for one operation (set-up);
- ``run(P, state, item)``: one operation, the part that is timed;
- ``check(spec, out)``: failure messages for one operation's output, from the
  independent computations in ``oracles.py``.

``P`` holds the imported program modules; every call goes through a module
attribute so that a traced run sees it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import oracles


def _rng(name, seed, r):
    return random.Random(f"{name}:{seed}:{r}")


class Workload:
    """Defaults for the steps a workload does not need."""

    keep_rounds = 0  # outputs of this many first rounds are kept for ``finish``

    def build(self, P, spec):
        return spec

    def start(self, P, seed):
        """Per-run state handed to every ``run`` call."""
        return {}

    def finish(self, P, seed, outs, span):
        """Checks on the outputs of the first ``keep_rounds`` rounds as a
        whole, after the per-operation ones."""
        return []


# ---------------------------------------------------------------------------
# campaign: the randomized property campaign as ``latmin verify`` runs it
# ---------------------------------------------------------------------------


class Campaign(Workload):
    """One round is trial t of ``latmin verify --dims 2,3 --kinds
    lower,full,mixed --torus-trials``: six generated instances and one torus
    instance.  Instance generation is part of the operation, as in verify."""

    name = "campaign"
    plan_rounds = 128
    keep_rounds = 16
    KINDS = ("lower", "full", "mixed")
    S_CYCLE = {"lower": (1, 2, 3), "full": (1, 2), "mixed": (2, 3)}

    def plan(self, seed):
        for t in itertools.count():
            gen_seed = seed * 10007 + t
            rnd = [
                ("instance", t, kind, n, self.S_CYCLE[kind][t % len(self.S_CYCLE[kind])], gen_seed)
                for kind in self.KINDS
                for n in (2, 3)
            ]
            yield rnd + [("torus", t, gen_seed)]

    def start(self, P, seed):
        return {"rng": random.Random(seed)}

    def run(self, P, state, spec):
        if spec[0] == "torus":
            return None, P.harness.verify_torus(1, spec[2]).instances
        _, t, kind, n, s, gen_seed = spec
        inst = P.harness.generate(gen_seed, n, s, kind)
        inst = dataclasses.replace(inst, instance_id=f"{inst.instance_id}-t{t}")
        return inst, [P.harness.check_instance(inst, state["rng"])]

    def check(self, spec, out):
        inst, entries = out
        bad = [f"{e['instance_id']}: {f}" for e in entries for f in e.get("failures", [])]
        if spec[0] == "instance" and spec[3] == 2:
            box = {"type": "box", "halfwidths": list(inst.body.halfwidths)}
            basis = [list(r) for r in inst.lattice.basis]
            forb = [[list(r) for r in sub.basis] for sub in inst.forbidden]
            want = list(oracles.brute.brute_minima(box, basis, forb, 2))
            got = [Fraction(v) for v in entries[0]["restricted"]]
            if got != want:
                bad.append(f"{inst.instance_id}: restricted {got} != oracle {want}")
        return bad

    def finish(self, P, seed, outs, span):
        """Serialise the report of the first ``keep_rounds`` rounds as
        ``latmin verify`` does and check that it records no failure.  The
        report has the same size in every run, however many rounds the run
        completes."""
        report = P.harness.VerificationReport(command="verify", seed=seed)
        for _, entries in outs:
            for e in entries:
                report.add(e)
        with span("cli.report"):
            text = report.to_json()
            report.to_csv()
        failures = json.loads(text)["summary"]["failures"]
        return [f"report lists {failures} failures"] if failures else []


# ---------------------------------------------------------------------------
# dense-minima: restricted and successive minima over dense certified radii
# ---------------------------------------------------------------------------


class DenseMinima(Workload):
    """The sharpness rectangle [-mu, mu] x [-mu a, mu a], a = 2/p^2, over Z^2
    with the rows z2 = 0 mod 2 and z1 = 0 mod p (p = 73) forbidden, scaled
    by a seeded mu.  One operation solves restricted lambda_1 with its
    theorem-1.2 bound and lambda_1, lambda_2 with the Minkowski bound on one
    rectangle; the two certified radii hold about 16,000 lattice points each.
    A round is one operation."""

    name = "dense-minima"
    plan_rounds = 24
    P = 73

    def plan(self, seed):
        used = set()
        for r in itertools.count():
            rng = _rng(self.name, seed, r)
            while True:
                mu = Fraction(rng.randint(2, 60), rng.randint(2, 60))
                if mu not in used:
                    break
            used.add(mu)
            yield [(self.P, mu)]

    def build(self, P, spec):
        p, mu = spec
        body = P.latmin.Box([mu, mu * Fraction(2, p * p)])
        lat = P.latmin.Lattice.standard(2)
        subs = (P.latmin.Lattice([[1, 0], [0, 2]]), P.latmin.Lattice([[p, 0], [0, 1]]))
        return body, lat, subs

    def run(self, P, state, item):
        body, lat, subs = item
        fc = P.minima.ForbiddenCollection(lat, subs)
        restricted = P.minima.restricted_minima(body, lat, fc, 1)
        avoidance = P.bounds.avoidance_bound_full_rank(body, lat, subs)
        successive = P.minima.successive_minima(body, lat, 2)
        return restricted, avoidance, successive, P.bounds.minkowski_first_bound(body, lat)

    def check(self, spec, out):
        p, mu = spec
        res, bd, succ, mink = out
        hw = [mu, mu * Fraction(2, p * p)]
        box = {"type": "box", "halfwidths": hw}
        tag = f"p={p} mu={mu}"
        bad = [
            f"{tag}: witness {w} has gauge != {v}"
            for r in (res, succ)
            for w, v in zip(r.witnesses, r.values)
            if oracles.brute.gauge(box, w) != v
        ]
        lam = Fraction(p * p, 2) / mu
        if list(res.values) != [lam]:
            bad.append(f"{tag}: restricted {res.values} != p^2/(2 mu) = {lam}")
        elif bd.final.hi / lam != 1 + Fraction(3, p):
            bad.append(f"{tag}: bound/exact {bd.final.hi / lam} != 1 + 3/p")
        w = res.witnesses[0]
        if oracles.brute.in_lattice([[1, 0], [0, 2]], w) or oracles.brute.in_lattice([[p, 0], [0, 1]], w):
            bad.append(f"{tag}: restricted witness {w} is forbidden")
        if res.certificate_radius < lam:
            bad.append(f"{tag}: certificate radius below the minimum")
        # over Z^n a box's successive minima are its sorted 1/a_j, and
        # Minkowski's second theorem holds with equality
        want = sorted(1 / a for a in hw)
        if list(succ.values) != want:
            bad.append(f"{tag}: successive {succ.values} != {want}")
        elif succ.values[0] * succ.values[1] * 4 * hw[0] * hw[1] != 4:
            bad.append(f"{tag}: lambda_1 lambda_2 vol != 2^n det")
        if oracles.brute.frac_rank([list(w) for w in succ.witnesses]) != 2:
            bad.append(f"{tag}: successive witnesses are dependent")
        if not succ.values[0] <= mink.final.hi:
            bad.append(f"{tag}: Minkowski bound below lambda_1")
        return bad


# ---------------------------------------------------------------------------
# siegel-kernels: shortest sup-norm kernel vectors of skewed 1 x n matrices
# ---------------------------------------------------------------------------


def _kernel_walk(a):
    """The coordinate box the walk covers for this matrix (the box of its
    kernel's Hermite basis at the radius of the shortest basis row), and the
    share of it that passes: about (2r+1)^(n-1) / max|a_j| kernel vectors
    lie in the cube of radius r when one entry dominates."""
    basis = oracles.row_hnf(oracles.integer_kernel(a))
    radius = min(max(abs(x) for x in b) for b in basis)
    box = oracles.walk_box_size(basis, [1] * len(a), radius)
    return box, (2 * radius + 1) ** (len(a) - 1) / max(a) / box


class SiegelKernels(Workload):
    """``siegel_bound`` on 1 x 3 matrices [a1 <= 9, a2 <= 60, 300 <= a3 <=
    1100] and 1 x 4 matrices [a1 <= 9, a2 <= 40, a3 <= 120, 500 <= a4 <=
    1000] with coprime entries.  A matrix is kept when the coordinate box of
    its kernel's Hermite basis lies in a fixed band and at most MAX_PASS of
    it passes, so every operation walks a similar number of points and keeps
    0.1-0.22% of them.  The 1 x 4 band is lower because each of its points
    costs more; the bands are set so both shapes take about equally long,
    which keeps the median operation time away from a gap between two
    modes.  A round is two 1 x 3 matrices and one 1 x 4."""

    name = "siegel-kernels"
    plan_rounds = 24
    SHAPES = (
        ((1, 9), (10, 60), (300, 1100)),
        ((1, 9), (10, 40), (41, 120), (500, 1000)),
    )
    BANDS = ((330_000, 420_000), (270_000, 350_000))
    MAX_PASS = 0.0022
    ROUND = (0, 0, 1)

    def plan(self, seed):
        used = set()
        for r in itertools.count():
            rng = _rng(self.name, seed, r)
            rnd = []
            for shape in self.ROUND:
                lo, hi = self.BANDS[shape]
                while True:
                    a = [rng.randint(*span) for span in self.SHAPES[shape]]
                    if math.gcd(*a) != 1 or tuple(a) in used:
                        continue
                    box, passing = _kernel_walk(a)
                    if lo <= box <= hi and passing <= self.MAX_PASS:
                        break
                used.add(tuple(a))
                rnd.append(a)
            yield rnd

    def run(self, P, state, a):
        return P.bounds.siegel_bound([a])

    def check(self, a, bd):
        n = len(a)
        exact = bd.intermediates["exact_min_sup_norm"]
        w = bd.intermediates["witness"]
        gram = sum(x * x for x in a)
        bad = []
        if not any(w) or any(Fraction(x).denominator != 1 for x in w):
            bad.append(f"{a}: witness {w} is zero or not integral")
        elif sum(x * y for x, y in zip(a, w)) != 0:
            bad.append(f"{a}: witness {w} is not in the kernel")
        elif max(abs(x) for x in w) != exact:
            bad.append(f"{a}: witness {w} sup norm != reported minimum {exact}")
        if exact.denominator != 1 or oracles.has_kernel_vector_within(a, int(exact) - 1):
            bad.append(f"{a}: a nonzero kernel vector is shorter than {exact}")
        if bd.intermediates["gram_det"] != gram:
            bad.append(f"{a}: gram det {bd.intermediates['gram_det']} != {gram}")
        e = 2 * (n - 1)
        lo, hi = bd.final.lo, bd.final.hi
        # lo^e <= det(AA^T) <= hi^e, cleared of denominators
        if lo.numerator**e > gram * lo.denominator**e or gram * hi.denominator**e > hi.numerator**e:
            bad.append(f"{a}: enclosure [{lo}, {hi}] misses det(AA^T)^(1/{e})")
        return bad


# ---------------------------------------------------------------------------
# point-counts: lattice points in large dilates, with the counting bounds
# ---------------------------------------------------------------------------


class PointCounts(Workload):
    """``count_points`` with ``vdc_lower``, ``bhw_upper`` and
    ``henze_upper`` at a dilate where the walk covers about TARGET[n] points
    (fewer in dimension 3, whose points cost more, so that all operations
    take about equally long).  A round is a diagonal lattice in dimensions 2
    and 3 (every visited point passes) and a lower-triangular sheared lattice
    in dimensions 2 and 3.  Half-widths, diagonal entries, shears and the
    dilate come from the seed."""

    name = "point-counts"
    plan_rounds = 24
    TARGET = {2: 430_000, 3: 375_000}
    TOLERANCE = Fraction(1, 20)
    ROUND = (("diag", 2), ("diag", 3), ("tri", 2), ("tri", 3))

    def plan(self, seed):
        used = set()
        for r in itertools.count():
            rng = _rng(self.name, seed, r)
            rnd = []
            for kind, n in self.ROUND:
                while True:
                    spec = self._draw(rng, kind, n)
                    if spec is not None and repr(spec) not in used:
                        break
                used.add(repr(spec))
                rnd.append(spec)
            yield rnd

    def _draw(self, rng, kind, n):
        hw = [Fraction(rng.randint(2, 4), rng.randint(2, 3)) for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(1, 3)
            if kind == "tri":
                for j in range(i):
                    rows[i][j] = rng.randint(0, 2)
        hermite = oracles.row_hnf(rows)
        q = rng.randint(2, 7)
        lam = Fraction(10)
        for _ in range(8):
            box = oracles.walk_box_size(hermite, hw, lam)
            if abs(Fraction(box, self.TARGET[n]) - 1) <= self.TOLERANCE:
                return kind, hw, rows, lam
            step = (self.TARGET[n] / box) ** (1 / n)
            lam = Fraction(round(float(lam) * step * q), q)
        return None

    def build(self, P, spec):
        _, hw, rows, lam = spec
        return spec, P.latmin.Box(hw), P.latmin.Lattice(rows), lam

    def run(self, P, state, item):
        _, body, lat, lam = item
        return (
            P.minima.count_points(body, lat, lam),
            P.bounds.vdc_lower(body, lat, lam),
            P.bounds.bhw_upper(body, lat, lam),
            P.bounds.henze_upper(body, lat, lam),
        )

    def check(self, spec, out):
        kind, hw, rows, lam = spec
        cnt, vdc, bhw, hz = out
        if kind == "diag":
            want = oracles.count_diagonal(hw, [rows[i][i] for i in range(len(rows))], lam)
        else:
            want = oracles.count_lower_triangular(rows, hw, lam)
        bad = []
        if cnt != want:
            bad.append(f"{kind} {rows} {hw} lam={lam}: count {cnt} != {want}")
        # the two upper bounds are not ordered: either can be the smaller
        if not vdc <= cnt <= min(bhw, hz):
            bad.append(f"{kind} {rows} {hw} lam={lam}: not vdc {vdc} <= count {cnt} <= bhw {bhw}, henze {hz}")
        return bad


WORKLOADS = {w.name: w for w in (Campaign(), DenseMinima(), SiegelKernels(), PointCounts())}
