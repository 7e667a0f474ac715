"""Package surface and output reproducibility.

The CSV guard runs the light shipped configs through ``cli.main`` at a
fixed seed and compares the SHA-256 of every CSV with
``fixtures/csv_sha256.json``.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import movingwell
from movingwell import cli

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "csv_sha256.json"

#: the shipped configs that run in seconds: config name -> CLI command.
#: oracle-compare (about 3 s of Crank-Nicolson) pins the CN engine's output
#: bytes; fig2's longer unconfined solve runs the same engine and is left out
LIGHT = {
    "theta": "theta-check",
    "basis": "basis-check",
    "evolve": "evolve",
    "locality": "locality",
    "locality_scaled": "locality",
    "cycle": "cycle",
    "phase": "phase",
    "fig1": "fig1",
    "oracle": "oracle-compare",
}


def test_all_lists_every_public_import():
    tree = ast.parse(Path(movingwell.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert len(movingwell.__all__) == len(set(movingwell.__all__))
    assert set(movingwell.__all__) == imported


@pytest.mark.parametrize("name", sorted(LIGHT))
def test_light_config_csvs_are_byte_identical(name, tmp_path):
    """Every CSV of a light config hashes to its recorded digest at --seed 1.

    A numeric change that is intended (a different evaluation order, a
    new theta route) changes these digests: refresh the fixture from a
    run of the new code and record in CHANGES.md which files moved, by
    how much and why.
    """
    recorded = json.loads(FIXTURE.read_text())
    assert recorded["seed"] == 1
    out = tmp_path / name
    argv = [LIGHT[name], "--config", str(CONFIGS / f"{name}.cfg"),
            "--out", str(out), "--seed", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    produced = {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*.csv"))
    }
    expected = {k: v for k, v in recorded["files"].items() if k.split("/")[0] == name}
    assert produced == expected


@pytest.mark.parametrize("name", sorted(LIGHT))
def test_light_configs_run_silently(name, tmp_path):
    """A shipped config names no removed key or value: at --seed 1 it runs
    with nothing on stderr, no warning and no "unused config keys" note.
    It runs under --strict, which turns any warning it raises into exit 3."""
    argv = [LIGHT[name], "--config", str(CONFIGS / f"{name}.cfg"),
            "--out", str(tmp_path), "--seed", "1", "--strict"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert "warning:" not in err.getvalue()
    assert code == 0
    assert err.getvalue() == ""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_basis_check_csv_does_not_follow_the_blas_thread_count(threads, tmp_path):
    """basis-check's Gram sums avoid threaded BLAS, whose rounding follows
    how the product is split among threads: a fresh process at one and at
    two OpenBLAS threads writes the recorded bytes."""
    recorded = json.loads(FIXTURE.read_text())
    argv = [sys.executable, "-m", "movingwell.cli", "basis-check", "--config",
            str(CONFIGS / "basis.cfg"), "--out", str(tmp_path), "--seed", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=REPO,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((tmp_path / "basis_check.csv").read_bytes()).hexdigest()
    assert digest == recorded["files"]["basis/basis_check.csv"]
