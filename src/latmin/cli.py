"""Command-line front end.

Subcommands: minima, restricted, bounds, siegel, verify, examples.
Exit codes: 0 success, 2 property violation or failed soundness check,
3 input or usage error, 4 budget exceeded.  Reports are deterministic (no
timestamps unless --timestamp).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds as bd
from . import harness
from .body import Box
from .errors import BudgetExceededError, CertificateError, InputError, LatminError
from .exactarith import PrecisionPolicy, parse_rational
from .harness import Instance
from .lattice import Lattice
from .minima import (
    DEFAULT_BUDGET,
    ForbiddenCollection,
    restricted_minima,
    successive_minima,
    walk_budget,
)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def _parse_vector(text):
    return [parse_rational(x) for x in text.split(",") if x.strip()]


def _parse_matrix(text):
    rows = [r for r in text.replace(";", "\n").splitlines() if r.strip()]
    matrix = [[int(x) for x in r.replace(",", " ").split()] for r in rows]
    if not matrix or any(len(row) != len(matrix[0]) for row in matrix):
        raise InputError(f"matrix {text!r} is empty or ragged")
    return matrix


def _int_at_least(low):
    """An argparse type: a decimal integer of at least ``low``."""

    def parse(text):
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _load_instance(args) -> Instance:
    if args.instance:
        with open(args.instance) as fh:
            data = json.load(fh)
        try:
            return Instance.from_dict(data)
        except KeyError as exc:
            raise InputError(f"instance file {args.instance} lacks key {exc}") from exc
        except TypeError as exc:
            raise InputError(f"malformed instance file {args.instance}: {exc}") from exc
    if args.box and args.diag:
        body = Box(_parse_vector(args.box))
        lat = Lattice.from_diagonal(_parse_vector(args.diag))
        return Instance(
            instance_id="inline",
            kind="none",
            body=body,
            lattice=lat,
            forbidden=(),
            seed=0,
        )
    raise InputError("provide --instance FILE or both --box and --diag")


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _policy(args) -> PrecisionPolicy:
    return PrecisionPolicy(Fraction(1, 2**args.precision_bits))


def _cmd_minima(args) -> int:
    inst = _load_instance(args)
    res = successive_minima(inst.body, inst.lattice, args.k)
    _emit(args, json.dumps(res.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_restricted(args) -> int:
    inst = _load_instance(args)
    if not inst.forbidden:
        raise InputError("instance has no forbidden sublattices")
    fc = ForbiddenCollection(inst.lattice, inst.forbidden)
    res = restricted_minima(inst.body, inst.lattice, fc, args.k, method=args.method)
    _emit(args, json.dumps(res.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _applicable_bounds(inst: Instance, policy):
    body, lat = inst.body, inst.lattice
    out = [bd.minkowski_first_bound(body, lat, policy=policy)]
    if not inst.forbidden:
        return out
    fc = ForbiddenCollection(lat, inst.forbidden)
    n = lat.ambient_dim
    if fc.classification == "all-lower-rank":
        out.append(bd.avoidance_bound_lower_rank(body, lat, inst.forbidden, policy))
        if n >= 2:
            out.append(bd.higher_minima_bound_lower_rank(body, lat, inst.forbidden, 1, policy))
        if isinstance(body, Box) and body.is_unit_cube():
            out.append(bd.fukshansky_bound(body, lat, inst.forbidden, policy))
    elif fc.classification == "all-full-rank":
        out.append(bd.avoidance_bound_full_rank(body, lat, inst.forbidden, False, policy))
        out.append(bd.avoidance_bound_full_rank(body, lat, inst.forbidden, True, policy))
        out.append(bd.higher_minima_bound_full_rank(body, lat, inst.forbidden, min(2, n)))
        if len(inst.forbidden) == 1:
            out.append(bd.higher_minima_bound_single_full(body, lat, inst.forbidden[0], min(2, n)))
    return out


def _cmd_bounds(args) -> int:
    inst = _load_instance(args)
    rows = _applicable_bounds(inst, _policy(args))
    if args.which != "all":
        wanted = set(args.which.split(","))
        rows = [r for r in rows if r.name in wanted]
        if not rows:
            raise InputError(f"no applicable bound named {args.which!r}")
    _emit(args, json.dumps([r.to_dict() for r in rows], indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_siegel(args) -> int:
    res = bd.siegel_bound(_parse_matrix(args.matrix), _policy(args))
    _emit(args, json.dumps(res.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _report_exit(args, report) -> int:
    if args.format == "csv":
        _emit(args, report.to_csv())
    else:
        stamp = None
        if args.timestamp:
            import datetime

            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        _emit(args, report.to_json(timestamp=stamp))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
    return EXIT_VIOLATION if report.failures else EXIT_OK


def _cmd_verify(args) -> int:
    dims = [int(d) for d in args.dims.split(",")]
    kinds = [k.strip() for k in args.kinds.split(",")]
    report = harness.verify(
        trials=args.trials,
        dims=dims,
        kinds=kinds,
        seed=args.seed,
        mu_trials=args.mu_trials,
    )
    if args.torus_trials:
        torus = harness.verify_torus(args.torus_trials, args.seed)
        for entry in torus.instances:
            report.add(entry)
    return _report_exit(args, report)


def _cmd_examples(args) -> int:
    report = harness.run_examples()
    return _report_exit(args, report)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT; argparse's own code 2 would read
    as a property violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="latmin",
        description="Exact successive minima and restricted successive minima "
        "of symmetric rational polytopes over integer lattices.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, instance=True, precision=False):
        sp.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET,
                        help="enumeration budget in box points")
        if precision:
            sp.add_argument("--precision-bits", type=_int_at_least(1), default=64,
                            help="enclosure width target 2^-bits")
        sp.add_argument("--out", help="write output to a file instead of stdout")
        if instance:
            sp.add_argument("--instance", help="instance JSON file")
            sp.add_argument("--box", help="inline box half-widths, e.g. 1,2/25")
            sp.add_argument("--diag", help="inline diagonal lattice, e.g. 1,1")

    sp = sub.add_parser("minima", help="successive minima of an instance")
    common(sp)
    sp.add_argument("-k", type=int, default=1)
    sp.set_defaults(func=_cmd_minima)

    sp = sub.add_parser("restricted", help="restricted successive minima")
    common(sp)
    sp.add_argument("-k", type=int, default=1)
    sp.add_argument("--method", choices=("auto", "doubling"), default="auto")
    sp.set_defaults(func=_cmd_restricted)

    sp = sub.add_parser("bounds", help="evaluate applicable bounds")
    common(sp, precision=True)
    sp.add_argument("--which", default="all", help="comma-separated bound names")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("siegel", help="kernel-vector sup-norm bound")
    common(sp, instance=False, precision=True)
    sp.add_argument("--matrix", required=True, help='rows like "1 1 1" or "1,0;0,1"')
    sp.set_defaults(func=_cmd_siegel)

    sp = sub.add_parser("verify", help="randomized property campaign")
    common(sp, instance=False)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--dims", default="2", help="comma-separated dimensions")
    sp.add_argument("--kinds", default="lower,full")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mu-trials", type=_int_at_least(0), default=5)
    sp.add_argument("--torus-trials", type=_int_at_least(0), default=0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--csv", help="also write the CSV comparison table here")
    sp.add_argument("--timestamp", action="store_true")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("examples", help="run the golden fixtures")
    common(sp, instance=False)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--csv", help="also write the CSV comparison table here")
    sp.add_argument("--timestamp", action="store_true")
    sp.set_defaults(func=_cmd_examples)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with walk_budget(args.budget):
            return args.func(args)
    except (LatminError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceededError):
            return EXIT_BUDGET
        return EXIT_VIOLATION if isinstance(exc, CertificateError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
