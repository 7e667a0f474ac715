"""Smoke tests of the benchmark at a tiny size.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = run_bench(workload, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert result["attempted"] >= 2
    assert result["failed"] == 0 and result["correct"] is True
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_wrong_reference_counts_one_failure(monkeypatch):
    monkeypatch.chdir(ROOT)
    import run as bench

    wl_mod = bench.load_program()
    packet = wl_mod.WORKLOADS["packet"]
    state = packet.setup(ROOT, 3, tiny=True)
    # row 0 is checked against the mode sum of another packet
    state.items[0].expansion = state.items[1].expansion
    lat, _, failed, _, _ = bench.closed_loop(
        wl_mod, packet.operations(state), state.per_pass, 0.0, lambda: 0.0, 1
    )
    assert len(lat) == len(state.items)
    assert failed == 1


def test_missing_boundary_is_absent_not_fatal():
    from spans import Tracer

    module = types.ModuleType("renamed")
    module.kept = original = lambda x: x + 1
    tracer = Tracer()
    tracer.bind(module, "gone", "layer.gone")
    tracer.bind(module, "kept", "layer.kept")
    with tracer.installed():
        assert module.kept is not original
        assert module.kept(1) == 2
    assert module.kept is original
    assert tracer.absent == ["renamed.gone"]
    assert tracer.totals()["layer.kept"]["calls"] == 1


def test_self_time_excludes_children():
    from spans import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    totals = tracer.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert tracer.spans[1][3] == 0
