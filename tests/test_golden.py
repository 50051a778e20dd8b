"""Golden outputs: `examples`, a small `verify` campaign, the instance
commands and three `siegel` reports must reproduce the checked-in reports
byte for byte, in process
(`examples` and `verify` twice: with cold caches, then warm) and under
`python -O`.

The files in tests/golden/ were written by

    latmin examples --out tests/golden/examples.json
    latmin verify --trials 2 --dims 2,3 --kinds lower,full,mixed --seed 0 \\
        --torus-trials 2 --out tests/golden/verify.json

and, for each instance file NAME.json in tests/golden/instances/ (a
polytope over a rational lattice with lower-rank forbidden sublattices, and
a box over a skewed rational lattice with mixed ones), by

    latmin minima -k 2 --instance NAME.json --out NAME.minima-k2.json
    latmin bounds --instance NAME.json --out NAME.bounds.json
    latmin restricted -k K --method M --instance NAME.json \\
        --out NAME.restricted-kK-M.json     # K in 1, 2; M in auto, doubling

and the kernel-vector bound on three matrices by

    latmin siegel --matrix "3 17 101" --out siegel-3-17-101.json
    latmin siegel --matrix "5 7 11 13" --out siegel-5-7-11-13.json
    latmin siegel --matrix "2 3 5; 7 11 13" --out siegel-2-3-5-7-11-13.json

Regenerate them only for a change that is meant to alter the reports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from latmin import cli, minima

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = {
    "examples.json": ["examples"],
    "verify.json": [
        "verify", "--trials", "2", "--dims", "2,3", "--kinds", "lower,full,mixed",
        "--seed", "0", "--torus-trials", "2",
    ],
    "siegel-3-17-101.json": ["siegel", "--matrix", "3 17 101"],
    "siegel-5-7-11-13.json": ["siegel", "--matrix", "5 7 11 13"],
    "siegel-2-3-5-7-11-13.json": ["siegel", "--matrix", "2 3 5; 7 11 13"],
}
INSTANCE_COMMANDS = {
    "minima-k2": ["minima", "-k", "2"],
    "bounds": ["bounds"],
    **{
        f"restricted-k{k}-{m}": ["restricted", "-k", str(k), "--method", m]
        for k in (1, 2)
        for m in ("auto", "doubling")
    },
}
RUNS.update(
    {
        f"{inst.stem}.{tag}.json": [*argv, "--instance", str(inst)]
        for inst in sorted((GOLDEN / "instances").glob("*.json"))
        for tag, argv in INSTANCE_COMMANDS.items()
    }
)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_in_process(name, tmp_path):
    out = tmp_path / name
    assert cli.main(RUNS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["examples.json", "verify.json"])
def test_cold_then_warm_caches(name, tmp_path):
    """A report must not depend on what the contexts of minima and bound
    terms, their walk set-ups and the held walk hold: the second run in one
    process finds them warm."""
    minima._clear_caches()
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}-{name}"
        assert cli.main(RUNS[name] + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), run


@pytest.mark.parametrize("name", sorted(RUNS))
def test_optimized_subprocess(name, tmp_path):
    out = tmp_path / name
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-O", "-m", "latmin.cli", *RUNS[name], "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
