"""Source-level rules that the package keeps."""

import ast
from fractions import Fraction
from pathlib import Path

import latmin

PACKAGE = Path(latmin.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # soundness checks raise explicit errors, because python -O strips assert
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"


def test_integer_lattices_make_no_fraction(monkeypatch):
    # integer rows stay integers: a lattice built from them, a forbidden
    # collection over it, its coefficient matrices, its dual rows at full
    # and lower rank, its dual and the walk set-up of a box over it
    from latmin import _intmat, lattice, minima
    from latmin.body import Box

    box = Box([Fraction(1, 2), 3, Fraction(5, 3)])
    made = []

    class CountedFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    for module in (_intmat, lattice, minima):
        monkeypatch.setattr(module, "Fraction", CountedFraction)
    lat = lattice.Lattice([[2, 1, 0], [0, 3, 1], [1, 0, 5]], 3)
    subs = [
        lattice.Lattice([[4, 2, 0], [0, 3, 1], [1, 0, 5]], 3),
        lattice.Lattice([[2, 4, 1]], 3),
        lattice.Lattice([[2, 1, 0], [1, 0, 5]], 3),
    ]
    fc = minima.ForbiddenCollection(lat, subs)
    coords = [lat.coeff_matrix(sub) for sub in subs]
    duals = [lat.dual_in_span(), subs[2].dual_in_span()]
    dual = lat.dual()
    setup = minima._walk_setup.__wrapped__(box, lat)  # bypass the memo
    assert made == []
    assert all(type(m) is int and m > 0 for _, m in duals)
    assert dual.dual() == lat
    assert setup.supports and setup.weighted
    assert fc.classification == "mixed"
    for z, sub in zip(coords, subs):  # reading the bases makes Fractions
        assert [tuple(_intmat.vec_mat(c, lat.basis)) for c in z] == list(sub.basis)
    assert made
