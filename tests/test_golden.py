"""Golden outputs: `examples` and a small `verify` campaign must reproduce
the checked-in reports byte for byte, in process and under `python -O`.

The files in tests/golden/ were written by

    latmin examples --out tests/golden/examples.json
    latmin verify --trials 2 --dims 2,3 --kinds lower,full,mixed --seed 0 \\
        --torus-trials 2 --out tests/golden/verify.json

Regenerate them only for a change that is meant to alter the reports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from latmin import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = {
    "examples.json": ["examples"],
    "verify.json": [
        "verify", "--trials", "2", "--dims", "2,3", "--kinds", "lower,full,mixed",
        "--seed", "0", "--torus-trials", "2",
    ],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_in_process(name, tmp_path):
    out = tmp_path / name
    assert cli.main(RUNS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


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
