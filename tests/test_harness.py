import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from latmin import cli, harness
from latmin.body import unit_cube
from latmin.errors import InputError
from latmin.exactarith import Enclosure
from latmin.lattice import Lattice, union_covers


class TestGenerator:
    def test_deterministic(self):
        a = harness.generate(1, 2, 1, "full")
        b = harness.generate(1, 2, 1, "full")
        assert a.to_dict() == b.to_dict()
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_full_kind_never_covers(self):
        for seed in range(12):
            inst = harness.generate(seed, 2, 3, "full")
            assert not union_covers(inst.lattice, inst.forbidden)

    def test_kinds_and_ranks(self):
        low = harness.generate(3, 3, 2, "lower")
        assert all(sub.rank < 3 for sub in low.forbidden)
        full = harness.generate(3, 3, 2, "full")
        assert all(sub.rank == 3 for sub in full.forbidden)
        mixed = harness.generate(3, 3, 2, "mixed")
        ranks = {sub.rank for sub in mixed.forbidden}
        assert any(r < 3 for r in ranks) and 3 in ranks

    def test_forbidden_are_sublattices(self):
        for seed in range(5):
            inst = harness.generate(seed, 2, 2, "lower")
            for sub in inst.forbidden:
                assert oracles.contains(inst.lattice.basis, sub.basis)

    def test_det_sandwich_on_generated_full(self):
        from latmin.lattice import intersect

        for seed in range(8):
            inst = harness.generate(seed, 2, 2, "full")
            intersect(list(inst.forbidden), within=inst.lattice)  # asserts inside

    def test_bad_params_rejected(self):
        with pytest.raises(InputError):
            harness.generate(0, 1, 1, "lower")
        with pytest.raises(InputError):
            harness.generate(0, 2, 1, "mixed")
        with pytest.raises(InputError):
            harness.generate(0, 2, 1, "weird")

    def test_round_trip(self):
        inst = harness.generate(7, 3, 2, "mixed")
        again = harness.Instance.from_dict(inst.to_dict())
        assert again.to_dict() == inst.to_dict()
        assert again.lattice == inst.lattice
        assert again.body == inst.body
        assert again.forbidden == inst.forbidden


class TestReports:
    def test_examples_all_green(self):
        rep = harness.run_examples()
        assert rep.summary()["failures"] == 0
        assert rep.summary()["instances"] == 9

    def test_verify_deterministic_bytes(self):
        a = harness.verify(trials=2, dims=(2,), kinds=("lower",), seed=4)
        b = harness.verify(trials=2, dims=(2,), kinds=("lower",), seed=4)
        assert a.to_json() == b.to_json()

    def test_verify_small_campaign(self):
        rep = harness.verify(trials=4, dims=(2,), kinds=("lower", "full", "mixed"), seed=2)
        assert rep.failures == []

    def test_checks_follow_the_members_not_the_kind_label(self):
        # an instance loaded with kind "none" gets the checks its members
        # call for, the same as under its generated kind
        for kind in ("lower", "full"):
            inst = harness.generate(5, 2, 1, kind)
            entry = harness.check_instance(inst, random.Random(0), mu_trials=1)
            relabelled = harness.Instance.from_dict({**inst.to_dict(), "kind": "none"})
            got = harness.check_instance(relabelled, random.Random(0), mu_trials=1)
            assert got == {**entry, "kind": "none"}
            assert got["failures"] == []

    def test_verify_torus(self):
        rep = harness.verify_torus(trials=10, seed=3)
        assert rep.failures == []
        assert rep.summary()["instances"] == 10

    def test_csv_shape(self):
        rep = harness.verify(trials=1, dims=(2,), kinds=("full",), seed=9)
        rows = rep.csv_rows()
        assert rows[0] == [
            "instance_id", "n", "s", "kind", "exact_lambda",
            "bound_name", "bound_hi", "ratio_hi",
        ]
        assert len(rows) > 1
        assert all(len(r) == 8 for r in rows)

    def test_trials_validation(self):
        with pytest.raises(InputError):
            harness.verify(trials=0, dims=(2,), kinds=("lower",), seed=0)


BOX_WIRE = {"type": "box", "halfwidths": ["1", "1"]}
Z2_WIRE = {"ambient_dim": 2, "basis": [["1", "0"], ["0", "1"]]}


class TestCLI:
    def test_minima_inline(self, capsys):
        code = cli.main(["minima", "--box", "1,2/25", "--diag", "1,1", "-k", "2"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == ["1", "25/2"]

    def test_restricted_instance_file(self, tmp_path, capsys):
        fx = harness.rectangle_fixture(5)
        inst = harness.Instance(
            instance_id="golden",
            kind="full",
            body=fx["body"],
            lattice=fx["lattice"],
            forbidden=fx["subs"],
            seed=0,
        )
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict()))
        code = cli.main(["restricted", "--instance", str(path), "-k", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == ["25/2"]
        assert out["certificate"]["kind"] == "theorem-1.2"

    def test_bounds_subcommand(self, tmp_path, capsys):
        fx = harness.rectangle_fixture(5)
        inst = harness.Instance(
            instance_id="golden",
            kind="full",
            body=fx["body"],
            lattice=fx["lattice"],
            forbidden=fx["subs"],
            seed=0,
        )
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict()))
        code = cli.main(["bounds", "--instance", str(path)])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        names = {r["bound"] for r in rows}
        assert "avoidance-full-rank" in names
        full = next(r for r in rows if r["bound"] == "avoidance-full-rank")
        assert full["final"] == {"lo": "20", "hi": "20"}

    def test_siegel_subcommand(self, capsys):
        code = cli.main(["siegel", "--matrix", "1 1 1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["intermediates"]["exact_min_sup_norm"] == "1"

    def test_examples_exit_zero(self, capsys):
        assert cli.main(["examples"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["failures"] == 0

    def test_verify_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        code = cli.main(
            [
                "verify", "--trials", "1", "--dims", "2", "--kinds", "full",
                "--seed", "1", "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.read_text().startswith("instance_id,")

    def test_verify_byte_identical(self, capsys):
        args = ["verify", "--trials", "1", "--dims", "2", "--kinds", "lower", "--seed", "6"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_input_error_exit_code(self, capsys):
        assert cli.main(["restricted", "--instance", "/nonexistent.json"]) == 3
        assert cli.main(["minima", "--box", "1,1"]) == 3  # missing --diag

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["minima", "--bogus"], 3),
            # --precision-bits belongs to bounds and siegel only
            (["minima", "--box", "1,1", "--diag", "1,1", "--precision-bits", "8"], 3),
            (["--help"], 0),
            (["minima", "--help"], 0),
        ],
    )
    def test_parser_exit_codes(self, argv, code, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code

    @pytest.mark.parametrize(
        "argv, instance",
        [
            (["siegel", "--matrix", "1 1 1", "--precision-bits", "-3"], None),
            (["siegel", "--matrix", "1 1 1", "--precision-bits", "0"], None),
            (["siegel", "--matrix", "1 2 3", "--budget", "-5"], None),
            (["bounds", "--instance", "{file}"], {"body": BOX_WIRE}),
            (
                ["restricted", "--instance", "{file}"],
                {
                    "instance_id": "x", "kind": "full", "body": BOX_WIRE,
                    "lattice": Z2_WIRE, "forbidden": [{"ambient_dim": 2}],
                },
            ),
            (["minima", "--instance", "{file}"], [BOX_WIRE, Z2_WIRE]),
            (["siegel", "--matrix", ""], None),
            (["siegel", "--matrix", "1 1 1; 1 1"], None),
            (["verify", "--trials", "1", "--kinds", "bogus"], None),
            (
                ["bounds", "--instance", "{file}"],
                {
                    "instance_id": "x", "kind": "none", "lattice": Z2_WIRE,
                    "body": {"type": "box", "halfwidths": ["1", "1", "1"]},
                },
            ),
            (["minima", "--box", "1/0,1", "--diag", "1,1"], None),
            (["minima", "--box", "0/0,1", "--diag", "1,1"], None),
            (["minima", "--box", "1,1", "--diag", "1/0,1"], None),
            (["minima", "--box", "1,1", "--diag", "0/0,1"], None),
            (
                ["minima", "--instance", "{file}"],
                {
                    "instance_id": "x", "kind": "none", "lattice": Z2_WIRE,
                    "body": {"type": "box", "halfwidths": ["1/0", "1"]},
                },
            ),
            (
                ["minima", "--instance", "{file}"],
                {
                    "instance_id": "x", "kind": "none", "body": BOX_WIRE,
                    "lattice": {"ambient_dim": 2, "basis": [["1/0", "0"], ["0", "1"]]},
                },
            ),
            (
                ["minima", "--instance", "{file}"],
                {
                    "instance_id": "x", "kind": "none", "lattice": Z2_WIRE,
                    "body": {"type": "box", "halfwidths": "12"},
                },
            ),
            (
                ["minima", "--instance", "{file}"],
                {
                    "instance_id": "x", "kind": "none", "body": BOX_WIRE,
                    "lattice": {"ambient_dim": 2, "basis": ["10", "03"]},
                },
            ),
            (
                ["minima", "--instance", "{file}"],
                {
                    "instance_id": "x", "kind": "none", "lattice": Z2_WIRE,
                    "body": {"type": "box", "halfwidths": [1, 2]},
                },
            ),
            (["verify", "--trials", "1", "--mu-trials", "-3"], None),
            (["verify", "--trials", "1", "--torus-trials", "-2"], None),
        ],
        ids=[
            "precision-bits-negative", "precision-bits-zero", "budget-negative",
            "instance-missing-keys",
            "forbidden-without-basis", "instance-is-a-list", "matrix-empty",
            "matrix-ragged", "unknown-kind", "bounds-dimension-mismatch",
            "box-zero-denominator", "box-zero-over-zero", "diag-zero-denominator",
            "diag-zero-over-zero", "halfwidth-zero-denominator", "basis-zero-denominator",
            "halfwidths-a-string", "basis-rows-strings", "halfwidths-json-numbers",
            "mu-trials-negative", "torus-trials-negative",
        ],
    )
    def test_input_faults_exit_3_without_traceback(self, argv, instance, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "latmin.cli", *(a.format(file=path) for a in argv)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert run.returncode == 3
        assert "error" in run.stderr
        assert "Traceback" not in run.stderr

    def test_precision_bits_on_siegel(self, capsys):
        assert cli.main(["siegel", "--matrix", "1 1 1", "--precision-bits", "8"]) == 0
        coarse = json.loads(capsys.readouterr().out)["final"]
        assert cli.main(["siegel", "--matrix", "1 1 1"]) == 0
        fine = json.loads(capsys.readouterr().out)["final"]
        assert coarse != fine
        assert Fraction(coarse["hi"]) - Fraction(coarse["lo"]) <= Fraction(1, 2**8)

    def test_certificate_error_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli.bd, "nth_root_enclosure", lambda *a: Enclosure.point(Fraction(1, 2))
        )
        assert cli.main(["siegel", "--matrix", "1 1 1"]) == 2
        assert "fell below" in capsys.readouterr().err

    def test_budget_exit_code(self, capsys):
        code = cli.main(
            ["minima", "--box", "1,1/100", "--diag", "1,1", "-k", "2", "--budget", "10"]
        )
        assert code == 4

    def test_covering_members_of_a_lower_rank_lattice_exit_3(self, tmp_path, capsys):
        # the F3 triple L1, L2, L4 covers Z^2; carried onto a rank-2 lattice
        # in R^3 it still covers, and the cover is an input error found
        # before any walk
        fx = harness.coverage_fixture()
        lift = lambda lat: Lattice([[a, b, a + b] for a, b in lat.basis], 3)
        inst = harness.Instance(
            instance_id="lifted-124",
            kind="full",
            body=unit_cube(3),
            lattice=lift(fx["lattice"]),
            forbidden=tuple(lift(fx[name]) for name in ("L1", "L2", "L4")),
            seed=0,
        )
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict()))
        assert cli.main(["restricted", "--instance", str(path)]) == 3
        assert "cover the whole lattice" in capsys.readouterr().err

    def test_violation_exit_code(self, tmp_path):
        report = harness.VerificationReport(command="verify", seed=0)
        report.add({"instance_id": "x", "checks": [], "failures": ["boom"], "bounds": []})

        class Args:
            format = "json"
            out = str(tmp_path / "r.json")
            csv = None
            timestamp = False

        assert cli._report_exit(Args(), report) == 2

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = cli.main(
            ["minima", "--box", "1,1", "--diag", "1,1", "-k", "1", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["values"] == ["1"]
