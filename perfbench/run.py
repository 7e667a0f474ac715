"""Benchmark of movingwell, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload packet --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same operations in pairs, once plain and once with spans around
every layer boundary, and prints the per-layer metrics.  The last line of
standard output is one JSON object; a record of the run (environment,
input summary, metrics and, when traced, every span) is written to
``.perfbench_out/``.  See README.md beside this file for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_PY = Path(__file__).resolve()
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 5
#: fresh ``-X importtime`` imports per traced run
IMPORT_PROBES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_program():
    """Import movingwell from this checkout's ``src`` and the workloads."""
    if not (SRC / "movingwell" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no movingwell sources under {ROOT}; run from the "
              "root of a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import movingwell

    if Path(movingwell.__file__).resolve().parent != (SRC / "movingwell").resolve():
        print(f"perfbench: imported movingwell from {movingwell.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


# ------------------------------------------------------------------ probes


def setup_probe(name: str, seed: int, tiny: bool, env: dict):
    """A function that times one fresh interpreter importing movingwell.cli
    and setting the workload up."""
    argv = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
            "--setup-only"] + (["--tiny"] if tiny else [])

    def probe() -> float:
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    return probe


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_seconds(tiny: bool, env: dict) -> dict[str, float]:
    """Import cost of ``movingwell.cli`` by ``-X importtime``, medians."""
    samples: dict[str, list[float]] = {}
    for _ in range(1 if tiny else IMPORT_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import movingwell.cli"],
            check=True, cwd=ROOT, env=env, capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
        for key, value in _parse_importtime(proc.stderr, wall).items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in samples.items()}


def _parse_importtime(text: str, wall: float) -> dict[str, float]:
    """Cumulative time of the outermost numpy and scipy imports, and the
    self time of movingwell's own modules; the log is in post-order."""
    entries = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((int(m.group(1)), int(m.group(2)), len(m.group(3)), m.group(4)))
    out = {"import.total_s": wall, "import.numpy_s": 0.0, "import.scipy_s": 0.0,
           "import.movingwell_s": 0.0}
    stack: list[tuple[int, str]] = []
    for self_us, cum_us, depth, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        stack.append((depth, name))
        top = name.split(".")[0]
        if top in ("numpy", "scipy") and parent.split(".")[0] != top:
            out[f"import.{top}_s"] += cum_us * 1e-6
        if top == "movingwell":
            out["import.movingwell_s"] += self_us * 1e-6
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ loops


def run_op(wl_mod, op, tracer):
    start = time.perf_counter()
    try:
        ok, work = op.run(tracer)
    except (wl_mod.core.DomainError, wl_mod.core.ConvergenceError) as exc:
        print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        ok, work = False, 0
    return ok, work, time.perf_counter() - start


def passes(ops, per_pass, seconds, between=None):
    """Yield (pass number, operation) over ``ops``, cycling, in whole passes
    of ``per_pass`` operations until ``seconds`` of operations have gone
    by.  ``between()`` runs at pass boundaries; its time is not counted."""
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        if i % per_pass == 0:
            if i and time.perf_counter() - start - paused >= seconds:
                return
            if between is not None:
                mark = time.perf_counter()
                between(time.perf_counter() - start - paused)
                paused += time.perf_counter() - mark
        yield i // per_pass, ops[i % len(ops)]
        i += 1


def closed_loop(wl_mod, ops, per_pass, seconds, probe, probes):
    """The timed loop; ``probes`` set-up probes are spread over the run so
    that a slow spell of the machine cannot bias all of them."""
    lat, work, failed, setups = [], 0, 0, []

    def between(elapsed):
        if len(setups) < probes and elapsed >= len(setups) * seconds / probes:
            setups.append(probe())

    for _, op in passes(ops, per_pass, seconds, between):
        ok, units, dt = run_op(wl_mod, op, None)
        lat.append(dt)
        work += units
        failed += not ok
    busy = sum(lat)
    while len(setups) < probes:
        setups.append(probe())
    return lat, work, failed, busy, setups


def paired_loop(wl_mod, ops, per_pass, seconds, tracer):
    """Each operation once plain and once traced, alternating which goes
    first; traced time over plain time, minus one, is the overhead."""
    plain = traced = 0.0
    attempted = failed = n_pass = 0
    for k, (n_pass, op) in enumerate(passes(ops, per_pass, seconds)):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracer.op_id = k
                with tracer.installed():
                    ok, _, dt = run_op(wl_mod, op, tracer)
                traced += dt
            else:
                ok, _, dt = run_op(wl_mod, op, None)
                plain += dt
            attempted += 1
            failed += not ok
    return attempted, failed, n_pass + 1, traced / plain - 1.0


# ------------------------------------------------------------------ metrics


def end_to_end(lat, work, busy, setups):
    # the slowest quarter, not a high percentile: scenarios holds only 24 to
    # 32 commands a run, and its p90 rests on two or three phase commands
    slowest = sorted(lat)[-max(1, round(len(lat) / 4)):]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(lat), "s"),
        "op_s.tail25_mean": (statistics.mean(slowest), "s"),
        "work_per_s": (work / busy, "1/s"),
    }


def per_layer(wl_mod, wl, state, tracer, passes, overhead, imports):
    tot = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name):
        return tot.get(name, zero)

    def per_pass(x):
        return x / passes

    counts = tracer.counts
    small, large = get("theta.small_kappa"), get("theta.large_kappa")
    theta_s = small["s"] + large["s"]
    points = counts.get("theta.points", 0.0)
    basis = get("basis")
    mode_points = counts.get("basis.mode_points", 0.0)
    cn = get("oracle.cn")
    banded = get("oracle.solve_banded")
    steps = counts.get("oracle.steps", 0.0)
    m = {key: (value, "s") for key, value in imports.items()}
    cmd_s = {}
    for name in wl_mod.SCENARIOS:
        span = get(f"cli.cmd.{name}")
        cmd_s[name] = span["s"] / span["calls"] if span["calls"] else 0.0
        m[f"cli.cmd.{name}_s"] = (cmd_s[name], "s")
    m.update({
        "cli.compute_s": (sum(cmd_s.values()), "s"),
        "cli.csv_bytes": (state.csv_bytes, "bytes"),
        "cli.csv_changed": (state.csv_changed, "count"),
        "phases.s": (per_pass(get("phases")["s"]), "s"),
        "theta.calls": (per_pass(small["calls"] + large["calls"]), "count"),
        "theta.points": (per_pass(points), "count"),
        "theta.s": (per_pass(theta_s), "s"),
        "theta.ns_per_point": (theta_s / points * 1e9 if points else 0.0, "ns"),
        "theta.small_kappa.calls": (per_pass(small["calls"]), "count"),
        "theta.small_kappa.s": (per_pass(small["s"]), "s"),
        "theta.large_kappa.calls": (per_pass(large["calls"]), "count"),
        "theta.large_kappa.s": (per_pass(large["s"]), "s"),
        "basis.calls": (per_pass(basis["calls"]), "count"),
        "basis.s": (per_pass(basis["s"]), "s"),
        "basis.ns_per_mode_point": (
            basis["s"] / mode_points * 1e9 if mode_points else 0.0, "ns"),
        "propagator.expansion.calls": (get("propagator.expansion")["calls"], "count"),
        "propagator.expansion.modes": (counts.get("propagator.expansion.modes", 0.0), "count"),
        "propagator.expansion_s": (get("propagator.expansion")["s"], "s"),
        "propagator.closed.self_s": (per_pass(get("propagator.closed")["self_s"]), "s"),
        "propagator.sum.self_s": (per_pass(get("propagator.sum")["self_s"]), "s"),
        "propagator.route_err_max": (
            state.err_max if wl.name == "packet" else 0.0, "ratio"),
        "oracle.steps": (per_pass(steps), "count"),
        "oracle.step_us": (cn["s"] / steps * 1e6 if steps else 0.0, "us"),
        "oracle.solve_banded.calls": (per_pass(banded["calls"]), "count"),
        "oracle.solve_banded_s": (per_pass(banded["s"]), "s"),
        "oracle.solve_banded.share": (banded["s"] / cn["s"] if cn["s"] else 0.0, "ratio"),
        "oracle.reference_s": (per_pass(get("oracle.reference")["s"]), "s"),
        "oracle.rel_l2_max": (state.err_max if wl.name == "oracle" else 0.0, "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.passes": (passes, "count"),
        "trace.absent": (len(tracer.absent), "count"),
    })
    return m


# ------------------------------------------------------------------ main


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One run; returns (result line, record)."""
    wl_mod = load_program()
    wl = wl_mod.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "environment": environment()}
    try:
        if trace:
            tracer = Tracer()
            wl_mod.bind(tracer)
            imports = import_seconds(tiny, wl_mod.program_env(ROOT))
            with tracer.installed():
                state = wl.setup(ROOT, seed, tiny)
            state.scratch = scratch
            ops = (wl.traced_operations(state) if hasattr(wl, "traced_operations")
                   else wl.operations(state))
            attempted, failed, n_pass, overhead = paired_loop(
                wl_mod, ops, state.per_pass, seconds, tracer)
            metrics = per_layer(wl_mod, wl, state, tracer, n_pass, overhead, imports)
            record.update(absent=tracer.absent, csv_digests=state.digests,
                          counts=dict(tracer.counts),
                          spans_fields=["name", "start", "end", "parent", "op"],
                          spans=tracer.spans)
        else:
            state = wl.setup(ROOT, seed, tiny)
            state.scratch = scratch
            lat, work, failed, busy, setups = closed_loop(
                wl_mod, wl.operations(state), state.per_pass, seconds,
                setup_probe(name, seed, tiny, wl_mod.program_env(ROOT)),
                1 if tiny else SETUP_PROBES)
            attempted = len(lat)
            metrics = end_to_end(lat, work, busy, setups)
            record.update(latencies_s=lat, setup_probes_s=setups, busy_s=busy,
                          work=work, work_unit=wl.unit)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update(inputs=state.summary, attempted=attempted, failed=failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["metrics"] = result["metrics"]
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenarios", "packet", "oracle"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small operations, for the smoke tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, then exit (times setup_s)")
    args = parser.parse_args(argv)

    if args.setup_only:
        wl_mod = load_program()
        wl_mod.WORKLOADS[args.workload].setup(ROOT, args.seed, args.tiny)
        return 0

    result, record = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.tiny)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"failed_frac={result['failed'] / result['attempted']:.6g}")
    for key, entry in result["metrics"].items():
        print(f"  {key:<28} {entry['value']:>14.6g} {entry['unit']}")
    if args.trace and record["absent"]:
        print("  absent: " + ", ".join(record["absent"]))
    print(f"inputs: {json.dumps(record['inputs'])}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
