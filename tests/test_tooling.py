"""Source-level rules that the package keeps."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import latmin
from latmin import cli, errors

PACKAGE = Path(latmin.__file__).resolve().parent


# the CLI exit code of each class in errors.py, as the README documents it
EXIT_CODES = {
    "LatminError": 3,
    "InputError": 3,
    "RankError": 3,
    "NotSublatticeError": 3,
    "UnsupportedBodyError": 3,
    "MissingSectionError": 3,
    "EmptyAdmissibleSetError": 3,
    "PackingConditionError": 3,
    "BudgetExceededError": 4,
    "CertificateError": 2,
}


def test_every_error_reaches_its_exit_code(monkeypatch, capsys):
    # the classes are read from the source, so one added or deleted without
    # an entry above fails; each, raised inside a command, leaves cli.main
    # with its code, and the README states every code in the table
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert sorted(classes) == sorted(EXIT_CODES)
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    assert "`2` property violation" in readme and "`3` input error" in readme
    assert "`4` budget." in readme
    for name in classes:
        error = getattr(errors, name)

        def fail(args, error=error):
            raise error("raised by the test")

        monkeypatch.setattr(cli, "_cmd_minima", fail)
        assert cli.main(["minima", "--box", "1,1", "--diag", "1,1"]) == EXIT_CODES[name], name
        assert capsys.readouterr().err == "error: raised by the test\n"


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


def test_exports_resolve_once():
    # every name in the package's __all__ and in each module's __all__ is
    # defined there and listed once, so a deleted name leaves no stale export
    modules = [latmin] + [
        importlib.import_module(f"latmin.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    ]
    listed = [module for module in modules if hasattr(module, "__all__")]
    assert latmin in listed and len(listed) > 1
    for module in listed:
        names = module.__all__
        assert len(names) == len(set(names)), f"{module.__name__}: duplicate exports"
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}: exports without a definition: {missing}"


def test_only_the_walk_reads_the_budget():
    # one scoped limit bounds every walk, so no function but the three memos
    # of walked results takes a budget; minima._walk_system is the one test
    # of a box against the limit, and every other read of it is the budget
    # argument of a memo call, so each memo keys on the limit its walks run
    # under, and a memo passes on only its own key
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    for tree in trees.values():
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node

    def params(fn):
        args = fn.args
        return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg] if a is not None]

    def scope(node):
        while not isinstance(node, (ast.FunctionDef, ast.Module)):
            node = node.parent
        return getattr(node, "name", "<module>")

    def is_read(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and getattr(node.func.value, "id", None) == "_budget")

    memos = {f"{name}:{fn.name}": fn for name, tree in trees.items()
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and "budget" in params(fn)}
    assert sorted(memos) == ["bounds.py:_full_rank_terms", "minima.py:_restricted_minima",
                             "minima.py:_successive_minima"]
    position = {fn.name: params(fn).index("budget") for fn in memos.values()}
    keys = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in position:
                index = position[node.func.id]
                key = node.args[index] if len(node.args) > index else next(
                    (kw.value for kw in node.keywords if kw.arg == "budget"), None)
                own = scope(node) == node.func.id and getattr(key, "id", None) == "budget"
                assert is_read(key) or own, f"{name}:{node.lineno} keys a memo on no scope"
                keys.append(key)
    uses = [
        f"{name}:{scope(node)}:{getattr(node.parent, 'attr', type(node.parent).__name__)}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "_budget"
        and not any(node.parent.parent is key for key in keys)
    ]
    assert sorted(uses) == ["minima.py:<module>:Assign", "minima.py:_walk_system:get",
                            "minima.py:walk_budget:reset", "minima.py:walk_budget:set"]
    assert len(keys) == 5  # the four reads outside _walk_system and one memo's own key


def test_only_minima_calls_the_walk():
    # the walk returns one member of each pair +-z, and minima.py is the one
    # module that knows it and restores the partners where results need them
    walks = {"collect_passing", "count_passing"}
    callers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in walks
    }
    assert callers == {"minima.py"}


def test_one_odometer_in_the_kernel():
    # _walk is the kernel's one odometer: the collect walk reads its points
    # and the count its strips, so no other function there loops on while
    tree = ast.parse((PACKAGE / "kernel.py").read_text(), filename="kernel.py")
    looping = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.While) for node in ast.walk(fn))
    ]
    assert looping == ["_walk"]


def test_one_collect_call_site():
    # every collect walk goes through minima._points, which holds the last
    # walk's points for the next read of the same (body, lattice)
    sites = [
        f"{path.name}:{fn.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "collect_passing"
    ]
    assert sites == ["minima.py:_points"]


def test_integer_lattices_make_no_fraction(monkeypatch):
    # integer rows stay integers: a lattice built from them, a forbidden
    # collection over it, its sublattices in its coordinates, its dual rows
    # at full and lower rank and the walk set-up of a box over it
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
    coords = [lat.in_coords(sub) for sub in subs]
    duals = [lat.dual_in_span(), subs[2].dual_in_span()]
    setup = minima._walk_setup.__wrapped__(box, lat)  # bypass the memo
    assert made == []
    assert all(type(m) is int and m > 0 for _, m in duals)
    assert setup.supports and setup.weighted
    assert fc.classification == "mixed"
    for span, sub in zip(coords, subs):  # reading the bases makes Fractions
        assert lattice.Lattice([_intmat.vec_mat(c, lat.basis) for c in span.basis], 3) == sub
    assert made


def test_clear_caches_empties_every_memo():
    # a solve and the bound evaluators fill every lru_cache in the package,
    # and minima._clear_caches empties each, so no memo added later can carry
    # results from one test into the next
    from latmin import bounds, minima
    from latmin.body import Box
    from latmin.lattice import Lattice

    modules = [importlib.import_module(f"latmin.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    memos = {f"{module.__name__}.{attr}": obj
             for module in modules for attr, obj in vars(module).items()
             if hasattr(obj, "cache_info")}
    body = Box([Fraction(3, 2), 1, Fraction(5, 4)])
    lat = Lattice([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    full = [Lattice([[4, 2, 0], [0, 3, 1], [1, 0, 4]])]
    minima.restricted_minima(body, lat, minima.ForbiddenCollection(lat, full), 2)
    bounds.avoidance_bound_lower_rank(body, lat, [Lattice([[2, 1, 0]], 3)])
    assert len(memos) >= 4
    assert [name for name, memo in memos.items() if memo.cache_info().currsize == 0] == []
    minima._clear_caches()
    assert [name for name, memo in memos.items() if memo.cache_info().currsize] == []
    assert minima._slot is None


def test_greedy_pass_calls_no_lattice_method():
    # the greedy pass tests admissibility and independence with integer
    # vectors computed once per collection and once per chosen point, so
    # neither test calls into a Lattice
    def parse(name):
        return ast.parse((PACKAGE / name).read_text(), filename=name)

    lattice_class = next(node for node in ast.walk(parse("lattice.py"))
                         if isinstance(node, ast.ClassDef) and node.name == "Lattice")
    methods = {node.name for node in lattice_class.body if isinstance(node, ast.FunctionDef)}
    assert {"_solve", "member", "in_coords"} <= methods
    minima = parse("minima.py")
    collection = next(node for node in ast.walk(minima)
                      if isinstance(node, ast.ClassDef) and node.name == "ForbiddenCollection")
    functions = [node for node in minima.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_take"]
    functions += [node for node in collection.body
                  if isinstance(node, ast.FunctionDef) and node.name == "admissible_coords"]
    assert len(functions) == 2
    called = [
        f"{fn.name}:{node.lineno} -> {node.func.attr}"
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods
    ]
    assert called == []


# names with no reference in the package, each kept for its own reason
UNREFERENCED = {
    "body.ConvexBody.support": "h_K, the oracle the walk's set-up supports are tested against",
    "body.Box.support": "h_K of a box, the same oracle",
    "body.SymmetricPolytope.support": "h_K of a polytope, the same oracle",
    "bounds.gaudron_bound": "a library evaluator from the comparison literature",
    "bounds.torus_volume_lower_bound": "a library evaluator from the paper",
    "kernel.backend_name": "perfbench/run.py prints it",
    "cli._Parser.error": "an argparse hook",
    "minima._clear_caches": "tests reset the memos and the held walk with it",
}


def test_every_definition_has_a_caller():
    # every module-level function, class or assigned name, and every method,
    # each but dunders, is referenced in the package (a Name or an
    # Attribute), is exported by an __all__, or is kept above with its reason
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    used, exported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                exported |= {elt.value for elt in node.value.elts}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(f"{module}.{t.id}", t.id) for t in targets
                            if isinstance(t, ast.Name)
                            and not (t.id.startswith("__") and t.id.endswith("__"))]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{fn.name}", fn.name)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))
                ]
    assert {qualified for qualified, _ in defined} >= set(UNREFERENCED)
    uncalled = [qualified for qualified, name in defined
                if name not in used | exported and qualified not in UNREFERENCED]
    assert uncalled == [], f"definitions that nothing in the package references: {uncalled}"
