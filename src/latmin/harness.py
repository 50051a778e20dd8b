"""Instance generation, golden fixtures, and randomized verification.

Campaigns execute the package's inequality and identity properties
end-to-end on generated instances and produce deterministic reports:
identical seed and parameters give byte-identical JSON.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import _intmat as im
from . import bounds
from .body import Box, ConvexBody, unit_cube
from .errors import InputError
from .exactarith import format_rational, parse_array
from .lattice import Lattice, intersect, m_value, saturate_rows, union_covers
from .minima import (
    DEFAULT_BUDGET,
    ForbiddenCollection,
    count_points,
    covering_radius_diagonal,
    distinct_cosets_in_body,
    restricted_minima,
    successive_minima,
    torus_packing_volume,
)

SCHEMA_VERSION = 1

# The generator's lattice diagonal entries lie in 1.._MAX_DIAG, its full-rank
# members have prime index drawn from _PRIMES, and a full-rank collection
# that covers the lattice is redrawn at most _RETRIES times.
_MAX_DIAG = 2
_PRIMES = (2, 3)
_RETRIES = 64


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    instance_id: str
    kind: str  # lower | full | mixed
    body: ConvexBody
    lattice: Lattice
    forbidden: tuple
    seed: int
    params: dict = field(default_factory=dict)

    def forbidden_collection(self) -> ForbiddenCollection:
        return ForbiddenCollection(self.lattice, self.forbidden)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "instance_id": self.instance_id,
            "kind": self.kind,
            "seed": self.seed,
            "params": self.params,
            "body": self.body.to_dict(),
            "lattice": self.lattice.to_dict(),
            "forbidden": [sub.to_dict() for sub in self.forbidden],
        }

    @staticmethod
    def from_dict(d: dict) -> "Instance":
        return Instance(
            instance_id=d["instance_id"],
            kind=d["kind"],
            body=ConvexBody.from_dict(d["body"]),
            lattice=Lattice.from_dict(d["lattice"]),
            forbidden=tuple(parse_array(d.get("forbidden", []), Lattice.from_dict)),
            seed=d.get("seed", 0),
            params=d.get("params", {}),
        )


def _random_halfwidths(rng, n):
    return [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n)]


def _random_unimodular(rng, n, ops):
    v = im.identity(n)
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        for r in range(n):
            v[r][i] += c * v[r][j]
    return v


def _random_lattice(rng, n) -> tuple[Lattice, list]:
    diag = [rng.randint(1, _MAX_DIAG) for _ in range(n)]
    d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    v = _random_unimodular(rng, n, ops=2)
    return Lattice(im.mat_mul(d, v), n), diag


def _random_lower_coeffs(rng, n):
    rank = rng.randint(1, n - 1)
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank)]
        if im.frac_rank(rows) == rank:
            return saturate_rows(rows)


def _random_full_coeffs(rng, n, p):
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        if any(x % p for x in a):
            break
    i0 = next(i for i, x in enumerate(a) if x % p)
    inv = pow(a[i0], -1, p)
    rows = []
    for j in range(n):
        if j == i0:
            continue
        row = [0] * n
        row[j] = 1
        row[i0] = -((a[j] * inv) % p)
        rows.append(row)
    row = [0] * n
    row[i0] = p
    rows.append(row)
    return rows


def _coeffs_to_sub(coeffs, lat: Lattice) -> Lattice:
    """The sublattice with these coordinates in lat's basis H / d: the
    integer rows coeffs . H over d."""
    rows = [im.vec_mat(row, lat._hermite) for row in coeffs]
    return Lattice._over(rows, lat._denom, lat.ambient_dim)


def generate(seed: int, n: int, s: int, kind: str) -> Instance:
    """Deterministic random instance: box body, sheared-diagonal lattice,
    and s forbidden sublattices of the requested kind.

    Full-rank collections are regenerated until their union misses the
    lattice; exhaustion of the retry cap raises InputError.
    """
    if not 2 <= n <= 6:
        raise InputError("generator supports dimensions 2..6")
    if kind not in ("lower", "full", "mixed"):
        raise InputError(f"unknown kind {kind!r}")
    if s < 1 or (kind == "mixed" and s < 2):
        raise InputError("need s >= 1 (s >= 2 for mixed)")
    rng = random.Random((seed, n, s, kind).__repr__())
    body = Box(_random_halfwidths(rng, n))
    lat, diag = _random_lattice(rng, n)
    for _ in range(_RETRIES):
        # n_low lower-rank members, then s - n_low full-rank ones
        n_low = s if kind == "lower" else 0 if kind == "full" else rng.randint(1, s - 1)
        coeff_sets = [_random_lower_coeffs(rng, n) for _ in range(n_low)]
        coeff_sets += [_random_full_coeffs(rng, n, rng.choice(_PRIMES)) for _ in range(s - n_low)]
        subs = [_coeffs_to_sub(c, lat) for c in coeff_sets]
        full_members = [sub for sub in subs if sub.rank == n]
        if full_members and union_covers(lat, full_members):
            continue
        return Instance(
            instance_id=f"{kind}-n{n}-s{s}-seed{seed}",
            kind=kind,
            body=body,
            lattice=lat,
            forbidden=tuple(subs),
            seed=seed,
            params={
                "n": n,
                "s": s,
                "max_diag": _MAX_DIAG,
                "primes": list(_PRIMES),
                "diag": diag,
            },
        )
    raise InputError("could not generate a non-covering forbidden collection")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    command: str
    seed: int | None
    instances: list = field(default_factory=list)

    def add(self, entry: dict):
        self.instances.append(entry)

    @property
    def failures(self) -> list:
        out = []
        for entry in self.instances:
            for f in entry.get("failures", []):
                out.append((entry["instance_id"], f))
        return out

    def summary(self) -> dict:
        checks = sum(len(e.get("checks", [])) for e in self.instances)
        ratios = [
            Fraction(b["ratio_hi"])
            for e in self.instances
            for b in e.get("bounds", [])
            if "ratio_hi" in b
        ]
        return {
            "instances": len(self.instances),
            "checks": checks,
            "failures": len(self.failures),
            "max_ratio_hi": format_rational(max(ratios)) if ratios else None,
        }

    def to_dict(self) -> dict:
        entries = sorted(self.instances, key=lambda e: e["instance_id"])
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "summary": self.summary(),
            "instances": entries,
        }

    def to_json(self, timestamp: str | None = None) -> str:
        d = self.to_dict()
        if timestamp is not None:
            d["timestamp"] = timestamp
        return json.dumps(d, indent=2, sort_keys=True)

    def csv_rows(self) -> list:
        rows = [["instance_id", "n", "s", "kind", "exact_lambda", "bound_name", "bound_hi", "ratio_hi"]]
        for e in sorted(self.instances, key=lambda x: x["instance_id"]):
            for b in e.get("bounds", []):
                rows.append(
                    [
                        e["instance_id"],
                        str(e.get("n", "")),
                        str(e.get("s", "")),
                        e.get("kind", ""),
                        b.get("exact", ""),
                        b["bound"],
                        b["final"]["hi"],
                        b.get("ratio_hi", ""),
                    ]
                )
        return rows

    def to_csv(self) -> str:
        return "\n".join(",".join(str(c) for c in row) for row in self.csv_rows()) + "\n"


class _Checker:
    """Collects named pass/fail checks and bound rows for one instance."""

    def __init__(self, entry):
        self.entry = entry
        self.entry.setdefault("checks", [])
        self.entry.setdefault("failures", [])
        self.entry.setdefault("bounds", [])

    def check(self, name: str, ok: bool, detail: str = ""):
        self.entry["checks"].append({"name": name, "ok": bool(ok)})
        if not ok:
            self.entry["failures"].append(f"{name}: {detail}" if detail else name)

    def bound_row(self, breakdown, exact: Fraction | None, check_name, strict=False):
        row = breakdown.to_dict()
        if exact is not None:
            row["exact"] = format_rational(exact)
            if exact > 0:
                row["ratio_hi"] = format_rational(breakdown.final.hi / exact)
            dominated = exact < breakdown.final.hi if strict else exact <= breakdown.final.hi
            self.check(
                check_name,
                dominated,
                f"exact {exact} vs bound hi {breakdown.final.hi}",
            )
        self.entry["bounds"].append(row)


# ---------------------------------------------------------------------------
# golden fixtures
# ---------------------------------------------------------------------------


def rectangle_fixture(p: int, alpha: Fraction | None = None) -> dict:
    """The sharpness rectangle: [-1,1] x [-alpha, alpha] over Z^2 with the
    rows z2 = 0 mod 2 and z1 = 0 mod p forbidden."""
    alpha = Fraction(2, p * p) if alpha is None else Fraction(alpha)
    lat = Lattice.standard(2)
    sub_even = Lattice([[1, 0], [0, 2]])
    sub_p = Lattice([[p, 0], [0, 1]])
    return {
        "body": Box([Fraction(1), alpha]),
        "lattice": lat,
        "subs": (sub_even, sub_p),
        "intersection": intersect([sub_even, sub_p], within=lat),
        "p": p,
        "alpha": alpha,
    }


def coverage_fixture() -> dict:
    """Four index-2/3 sublattices of Z^2 whose unions behave differently."""
    return {
        "lattice": Lattice.standard(2),
        "L1": Lattice([[1, 0], [0, 2]]),   # z2 even
        "L2": Lattice([[2, 0], [0, 1]]),   # z1 even
        "L3": Lattice([[1, 0], [0, 3]]),   # z2 = 0 mod 3
        "L4": Lattice([[1, 1], [0, 2]]),   # z1 = z2 mod 2
    }


def _fixture_entry(report, fid, runner, budget):
    entry = {"instance_id": fid, "kind": "fixture"}
    chk = _Checker(entry)
    runner(chk, budget)
    report.add(entry)


def _f1_golden_rectangle(chk, budget):
    fx = rectangle_fixture(5)
    body, lat, subs = fx["body"], fx["lattice"], fx["subs"]
    fc = ForbiddenCollection(lat, subs)
    res = restricted_minima(body, lat, fc, 1, budget)
    chk.check("restricted-lambda1", res.values[0] == Fraction(25, 2), str(res.values))
    chk.check("witness", res.witnesses[0] == (1, 1), str(res.witnesses))
    bd = bounds.avoidance_bound_full_rank(body, lat, subs, budget=budget)
    chk.bound_row(bd, res.values[0], "bound-dominates", strict=True)
    chk.check("bound-value", bd.final.lo == bd.final.hi == 20, str(bd.final))
    inter = fx["intersection"]
    lam1_bar = successive_minima(body, inter, 1, budget).values[0]
    chk.check("lambda1-intersection", lam1_bar == 5, str(lam1_bar))
    chk.check("det-intersection", inter.det() == 10, str(inter.det()))


def _f2_sharpness_sweep(chk, budget):
    previous = None
    for p in (5, 11, 23, 47):
        fx = rectangle_fixture(p)
        body, lat, subs = fx["body"], fx["lattice"], fx["subs"]
        fc = ForbiddenCollection(lat, subs)
        res = restricted_minima(body, lat, fc, 1, budget)
        exact = res.values[0]
        chk.check(f"exact-p{p}", exact == Fraction(p * p, 2), str(exact))
        bd = bounds.avoidance_bound_full_rank(body, lat, subs, budget=budget)
        chk.bound_row(bd, exact, f"dominance-p{p}", strict=True)
        ratio = bd.final.hi / exact
        chk.check(f"ratio-p{p}", ratio == 1 + Fraction(3, p), str(ratio))
        if previous is not None:
            chk.check(f"ratio-decreasing-p{p}", ratio < previous, f"{ratio} vs {previous}")
        previous = ratio


def _f3_coverage(chk, budget):
    fx = coverage_fixture()
    lat = fx["lattice"]
    inter = intersect([fx["L1"], fx["L2"], fx["L3"]], within=lat)
    chk.check("intersection-det", inter.det() == 12, str(inter.det()))
    m = m_value(lat, [fx["L1"], fx["L2"], fx["L3"]])
    chk.check("m-value", m == 14, str(m))
    chk.check("covers-124", union_covers(lat, [fx["L1"], fx["L2"], fx["L4"]]))
    chk.check("not-covers-123", not union_covers(lat, [fx["L1"], fx["L2"], fx["L3"]]))
    chk.check("coset-count", inter.index_in(lat) == 12)


def _f4_single_full(chk, budget):
    lat = Lattice.standard(2)
    body = unit_cube(2)
    sub = Lattice([[2, 0], [0, 2]])
    fc = ForbiddenCollection(lat, [sub])
    res = restricted_minima(body, lat, fc, 2, budget)
    chk.check("exact-lambda1", res.values[0] == 1, str(res.values))
    chk.check("exact-lambda2", res.values[1] == 1, str(res.values))
    bd = bounds.avoidance_bound_full_rank(body, lat, [sub], budget=budget)
    chk.bound_row(bd, res.values[0], "single-full-dominance", strict=True)
    chk.check("single-full-bound", bd.final.lo == Fraction(3, 2), str(bd.final))
    bd36 = bounds.higher_minima_bound_single_full(body, lat, sub, 2, budget=budget)
    chk.bound_row(bd36, res.values[1], "higher-single-dominance")
    chk.check("higher-single-bound", bd36.final.lo == Fraction(5, 2), str(bd36.final))


def _f5_kernel_vectors(chk, budget):
    from .lattice import kernel_lattice

    bd = bounds.siegel_bound([[1, 1, 1]], budget=budget)
    kern = kernel_lattice([[1, 1, 1]])
    chk.check("kernel-det-squared", kern.det_squared == 3, str(kern.det_squared))
    exact = bd.intermediates["exact_min_sup_norm"]
    chk.check("exact-min", exact == 1, str(exact))
    chk.check("enclosure-sound", bd.final.lo**4 <= 3 <= bd.final.hi**4)
    chk.check("width", bd.final.width <= Fraction(1, 10**9), str(bd.final.width))
    chk.bound_row(bd, exact, "kernel-bound-dominates")
    bd2 = bounds.siegel_bound([[2, 1]], budget=budget)
    exact2 = bd2.intermediates["exact_min_sup_norm"]
    chk.check("exact-min-21", exact2 == 2, str(exact2))
    chk.check("enclosure-sound-21", bd2.final.lo**2 <= 5 <= bd2.final.hi**2)
    chk.check("width-21", bd2.final.width <= Fraction(1, 10**9))
    chk.bound_row(bd2, exact2, "kernel-bound-dominates-21")


def _f6_counting(chk, budget):
    lat = Lattice.standard(2)
    body = unit_cube(2)
    cnt = count_points(body, lat, 1, budget)
    chk.check("count", cnt == 9, str(cnt))
    vdc = bounds.vdc_lower(body, lat, 1)
    bhw = bounds.bhw_upper(body, lat, 1, budget)
    hz = bounds.henze_upper(body, lat, 1, budget)
    chk.check("vdc", vdc == 3, str(vdc))
    chk.check("bhw-tight", bhw == 9, str(bhw))
    chk.check("henze", hz == 14, str(hz))
    chk.check("sandwich", vdc <= cnt <= bhw <= hz)


def _f7_torus_implication(chk, budget):
    lat = Lattice.standard(2)
    body = unit_cube(2)
    for name, sub, lam in (
        ("square", Lattice([[2, 0], [0, 2]]), Fraction(1)),
        ("rectangle", rectangle_fixture(5)["intersection"], Fraction(5)),
    ):
        k_body = body if name == "square" else rectangle_fixture(5)["body"]
        vol_t = torus_packing_volume(k_body, sub, lam / 2, budget)
        m = vol_t.numerator // vol_t.denominator  # det(lat) = 1 here
        chk.check(f"{name}-m-positive", m >= 1, str(vol_t))
        chk.check(f"{name}-m-below-index", m * lat.det() < sub.det())
        got = distinct_cosets_in_body(k_body, lat, sub, lam, budget)
        chk.check(f"{name}-cosets", got >= m + 1, f"{got} vs m+1={m + 1}")


def _f8_covering_radius(chk, budget):
    lat = Lattice.standard(2)
    body = unit_cube(2)
    mu = covering_radius_diagonal(body, lat)
    chk.check("mu-unit", mu == Fraction(1, 2), str(mu))
    fc = ForbiddenCollection(lat, [Lattice([[1, 0]], 2)])
    res = restricted_minima(body, lat, fc, 1, budget)
    pb = bounds.covering_radius_avoidance_bound(mu, 1, 1)
    chk.check("plank-tight", pb == 1 == res.values[0], f"{pb} vs {res.values}")
    fx = rectangle_fixture(5)
    mu14 = covering_radius_diagonal(fx["body"], lat)
    chk.check("mu-rectangle", mu14 == Fraction(25, 4), str(mu14))
    pb14 = bounds.covering_radius_avoidance_bound(mu14, 2, 1)
    fc14 = ForbiddenCollection(lat, fx["subs"])
    res14 = restricted_minima(fx["body"], lat, fc14, 1, budget)
    chk.check("plank-dominates", res14.values[0] <= pb14, f"{res14.values} vs {pb14}")
    chk.check("plank-value", pb14 == Fraction(75, 4), str(pb14))


def _f9_improved_and_dilation(chk, budget):
    fx = rectangle_fixture(5)
    body, lat, subs = fx["body"], fx["lattice"], fx["subs"]
    fc = ForbiddenCollection(lat, subs)
    res = restricted_minima(body, lat, fc, 1, budget)
    plain = bounds.avoidance_bound_full_rank(body, lat, subs, budget=budget)
    improved = bounds.avoidance_bound_full_rank(body, lat, subs, improved=True, budget=budget)
    chk.bound_row(improved, res.values[0], "improved-dominates")
    chk.check("improved-value", improved.final.lo == Fraction(135, 8), str(improved.final))
    chk.check("improved-not-worse", improved.final.hi <= plain.final.hi)
    mu = Fraction(3, 2)
    scaled = restricted_minima(body.scale(mu), lat, fc, 1, budget, method="doubling")
    chk.check(
        "dilation-identity",
        scaled.values[0] == res.values[0] / mu,
        f"{scaled.values} vs {res.values}",
    )


def run_examples(budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Execute the golden fixtures F1..F9 and report per-check verdicts."""
    report = VerificationReport(command="examples", seed=None)
    fixtures = [
        ("F1-golden-rectangle", _f1_golden_rectangle),
        ("F2-sharpness-sweep", _f2_sharpness_sweep),
        ("F3-coverage", _f3_coverage),
        ("F4-single-full", _f4_single_full),
        ("F5-kernel-vectors", _f5_kernel_vectors),
        ("F6-counting", _f6_counting),
        ("F7-torus-implication", _f7_torus_implication),
        ("F8-covering-radius", _f8_covering_radius),
        ("F9-improved-and-dilation", _f9_improved_and_dilation),
    ]
    for fid, runner in fixtures:
        _fixture_entry(report, fid, runner, budget)
    return report


# ---------------------------------------------------------------------------
# randomized campaigns
# ---------------------------------------------------------------------------


def check_instance(
    inst: Instance,
    rng: random.Random,
    budget: int = DEFAULT_BUDGET,
    mu_trials: int = 5,
) -> dict:
    """All applicable identity/dominance checks for one instance."""
    body, lat = inst.body, inst.lattice
    n = lat.ambient_dim
    s = len(inst.forbidden)
    entry = {"instance_id": inst.instance_id, "n": n, "s": s, "kind": inst.kind}
    chk = _Checker(entry)
    fc = inst.forbidden_collection()
    k = min(2, n)

    res = restricted_minima(body, lat, fc, k, budget)
    entry["restricted"] = [format_rational(v) for v in res.values]
    entry["certificate"] = res.to_dict()["certificate"]
    dbl = restricted_minima(body, lat, fc, k, budget, method="doubling")
    chk.check(
        "doubling-equivalence",
        res.values == dbl.values and res.witnesses == dbl.witnesses,
        f"{res.values}/{res.witnesses} vs {dbl.values}/{dbl.witnesses}",
    )
    chk.check("values-sorted", all(a <= b for a, b in zip(res.values, res.values[1:])))
    chk.check(
        "witness-gauges", all(body.gauge(w) == v for w, v in zip(res.witnesses, res.values))
    )
    chk.check(
        "witnesses-admissible",
        not any(sub.member(w) for w in res.witnesses for sub in inst.forbidden),
    )

    unres = successive_minima(body, lat, n, budget)
    entry["unrestricted"] = [format_rational(v) for v in unres.values]
    lam1, lam_n = unres.values[0], unres.values[-1]
    chk.check(
        "first-minimum-volume-inequality",
        lam1**n * body.volume() <= Fraction(2) ** n * lat.det(),
    )
    chk.check("restricted-ge-unrestricted", res.values[0] >= lam1)
    chk.bound_row(bounds.minkowski_first_bound(body, lat), lam1, "minkowski-dominates")

    for lam in {lam1, lam_n}:
        cnt = count_points(body, lat, lam, budget)
        vdc = bounds.vdc_lower(body, lat, lam)
        bhw = bounds.bhw_upper(body, lat, lam, budget)
        chk.check(f"vdc-le-count@{lam}", vdc <= cnt, f"{vdc} vs {cnt}")
        chk.check(f"count-le-bhw@{lam}", cnt <= bhw, f"{cnt} vs {bhw}")
        if lam >= lam_n:
            hz = bounds.henze_upper(body, lat, lam, budget)
            chk.check(f"count-le-henze@{lam}", cnt <= hz, f"{cnt} vs {hz}")

    if fc.classification == "all-lower-rank":
        bd = bounds.avoidance_bound_lower_rank(body, lat, inst.forbidden, budget=budget)
        chk.bound_row(bd, res.values[0], "lower-rank-dominance", strict=True)
        if k >= 2:
            bd2 = bounds.higher_minima_bound_lower_rank(
                body, lat, inst.forbidden, k - 1, budget=budget
            )
            chk.bound_row(bd2, res.values[k - 1], "higher-lower-dominance", strict=True)
        cube = unit_cube(n)
        cube_res = restricted_minima(cube, lat, fc, 1, budget)
        fk = bounds.fukshansky_bound(cube, lat, inst.forbidden)
        chk.bound_row(fk, cube_res.values[0], "cube-bound-dominance")
        diag = inst.params.get("diag")
        if diag:
            d_lat = Lattice.from_diagonal(diag)
            subs_d = [
                _coeffs_to_sub(lat.in_coords(sub)._hermite, d_lat) for sub in inst.forbidden
            ]
            mu = covering_radius_diagonal(body, d_lat)
            fc_d = ForbiddenCollection(d_lat, subs_d)
            res_d = restricted_minima(body, d_lat, fc_d, k, budget)
            chk.check(
                "covering-radius-first",
                res_d.values[0] <= bounds.covering_radius_avoidance_bound(mu, s, 1),
            )
            if k >= 2:
                chk.check(
                    "covering-radius-higher",
                    res_d.values[1] <= bounds.covering_radius_avoidance_bound(mu, s, 2),
                )
    elif fc.classification == "all-full-rank":
        bd = bounds.avoidance_bound_full_rank(body, lat, inst.forbidden, budget=budget)
        chk.bound_row(bd, res.values[0], "full-rank-dominance", strict=True)
        bdi = bounds.avoidance_bound_full_rank(
            body, lat, inst.forbidden, improved=True, budget=budget
        )
        chk.bound_row(bdi, res.values[0], "improved-dominance")
        # the improved root shrinks the generic additive term lambda_1(K, L_bar);
        # at s = 1 the plain bound already switched to the ambient term, so
        # compare against the generic form reconstructed from intermediates
        generic = bd.intermediates["main_term"] + bd.intermediates["lambda1_intersection"]
        chk.check("improved-not-worse", bdi.final.hi <= generic)
        bd35 = bounds.higher_minima_bound_full_rank(body, lat, inst.forbidden, k, budget=budget)
        chk.bound_row(bd35, res.values[k - 1], "higher-full-dominance")
        if s == 1:
            bd36 = bounds.higher_minima_bound_single_full(
                body, lat, inst.forbidden[0], k, budget=budget
            )
            chk.bound_row(bd36, res.values[k - 1], "higher-single-dominance")
    else:
        chk.check("mixed-uses-doubling", res.certificate_kind == "doubling")

    for _ in range(mu_trials):
        mu = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        scaled = restricted_minima(body.scale(mu), lat, fc, k, budget, method="doubling")
        chk.check(
            f"dilation@{mu}",
            scaled.values == tuple(v / mu for v in res.values),
            f"{scaled.values} vs {res.values}",
        )
    return entry


def verify(
    trials: int,
    dims,
    kinds,
    seed: int,
    budget: int = DEFAULT_BUDGET,
    mu_trials: int = 5,
) -> VerificationReport:
    """Randomized property campaign; deterministic for a given seed."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    report = VerificationReport(command="verify", seed=seed)
    rng = random.Random(seed)
    s_cycle = {"lower": (1, 2, 3), "full": (1, 2), "mixed": (2, 3)}
    for kind in kinds:
        if kind not in s_cycle:
            raise InputError(f"unknown kind {kind!r}")
    for kind in kinds:
        for n in dims:
            for t in range(trials):
                s = s_cycle[kind][t % len(s_cycle[kind])]
                inst = generate(seed * 10007 + t, n, s, kind)
                inst = dataclasses.replace(
                    inst, instance_id=f"{inst.instance_id}-t{t}"
                )
                report.add(check_instance(inst, rng, budget, mu_trials))
    return report


def verify_torus(
    trials: int, seed: int, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Coset-count implication campaign on random packing instances."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    report = VerificationReport(command="verify-torus", seed=seed)
    rng = random.Random(seed)
    made = 0
    attempt = 0
    while made < trials:
        attempt += 1
        if attempt > 100 * trials:
            raise InputError("could not generate enough torus instances")
        n = 2 + (made % 2)
        body = Box(_random_halfwidths(rng, n))
        lat, _ = _random_lattice(rng, n)
        sub = _coeffs_to_sub(_random_full_coeffs(rng, n, rng.choice((2, 3, 5))), lat)
        lam1_sub = successive_minima(body, sub, 1, budget).values[0]
        chosen = None
        for factor in (Fraction(1), Fraction(7, 8), Fraction(3, 4), Fraction(1, 2)):
            lam = factor * lam1_sub
            vol_t = torus_packing_volume(body, sub, lam / 2, budget)
            ratio = vol_t / lat.det()
            m = ratio.numerator // ratio.denominator
            if m >= 1 and m * lat.det() < sub.det():
                chosen = (lam, vol_t, m)
                break
        if chosen is None:
            continue
        lam, vol_t, m = chosen
        entry = {
            "instance_id": f"torus-n{n}-{made}",
            "n": n,
            "s": 1,
            "kind": "torus",
            "lambda": format_rational(lam),
            "m": m,
        }
        chk = _Checker(entry)
        got = distinct_cosets_in_body(body, lat, sub, lam, budget)
        chk.check("coset-implication", got >= m + 1, f"{got} vs m+1={m + 1}")
        chk.check("packing-volume-positive", vol_t > 0)
        report.add(entry)
        made += 1
    return report
