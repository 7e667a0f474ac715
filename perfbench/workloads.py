"""The three benchmark workloads: inputs from a seed, operations, checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  ``setup`` builds everything a user pays
for before the first operation; ``operations`` returns one pass, which the
harness repeats.  An operation returns ``(ok, work)``; a ``DomainError`` or
``ConvergenceError`` raised by the program also counts as a failed
operation.  The program is always reached through its module attributes
(``propagator.evolve_sum``, never a name imported into this file), so that
the wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from movingwell import cli, config, core, oracle, propagator

BENCH_DIR = Path(__file__).resolve().parent

#: sup |closed form - mode sum| allowed on a packet row (the acceptance
#: gate's route tolerance)
ROUTE_TOL = 1e-10
#: relative L2 allowed against the theta route (the shipped config values)
FIXED_FRAME_TOL = 1e-4
UNCONFINED_TOL = 1e-3
#: grid points per packet row
ROW_POINTS = 2001
#: |kappa| at which the theta buckets split
KAPPA_SPLIT = 1.0

#: shipped configs run by ``scenarios``: config name -> CLI command.  fig2
#: (24 s per sample) and oracle-compare are left out; ``oracle`` covers
#: their Crank-Nicolson work.
SCENARIOS = {
    "theta": "theta-check",
    "basis": "basis-check",
    "evolve": "evolve",
    "locality": "locality",
    "locality_scaled": "locality",
    "cycle": "cycle",
    "phase": "phase",
    "fig1": "fig1",
}
#: the only scenario whose CSV bytes depend on --seed
SEED_DEPENDENT = {"theta"}
TINY_SCENARIOS = ("theta", "evolve")


@dataclass
class Op:
    """One operation of a pass; ``run(tracer)`` returns (ok, work units)."""

    label: str
    run: Callable


@dataclass
class State:
    """Inputs of one run, built by a workload's ``setup``."""

    seed: int
    tiny: bool
    root: Path
    items: list = field(default_factory=list)
    #: operations in one pass; a run measures whole passes
    per_pass: int = 1
    summary: dict = field(default_factory=dict)
    scratch: Path | None = None
    csv_bytes: int = 0
    csv_changed: int = 0
    digests: dict = field(default_factory=dict)
    err_max: float = 0.0


def span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def halton(n: int, dims: int, rng) -> np.ndarray:
    """n points of a randomly shifted Halton sequence in [0, 1)^dims.

    Any prefix of the sequence is spread evenly, so the rows a run reaches
    hold nearly the same mix of cheap and costly rows whatever the seed and
    the speed; the random shift makes each seed's rows different.
    """
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29][:dims]
    out = np.empty((n, dims))
    for j, base in enumerate(primes):
        k = np.arange(1, n + 1)
        value = np.zeros(n)
        scale = 1.0
        while np.any(k):
            scale /= base
            value += scale * (k % base)
            k //= base
        out[:, j] = value
    return (out + rng.random(dims)) % 1.0


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def program_env(root: Path) -> dict:
    """Environment of a child interpreter that imports movingwell from
    ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ------------------------------------------------------------------ scenarios


class Scenarios:
    """Shipped configs, one fresh ``movingwell`` CLI process each."""

    name = "scenarios"
    unit = "commands"

    def setup(self, root: Path, seed: int, tiny: bool) -> State:
        state = State(seed=seed, tiny=tiny, root=root)
        names = TINY_SCENARIOS if tiny else tuple(SCENARIOS)
        rng = np.random.default_rng(seed)
        state.items = [names[i] for i in rng.permutation(len(names))]
        state.per_pass = len(names)
        kinds: dict[str, int] = {}
        for name in names:
            raw = config.parse_config(root / "configs" / f"{name}.cfg")
            kind = raw.get("trajectory.kind", "none")
            kinds[kind] = kinds.get(kind, 0) + 1
        state.summary = {
            "pool": len(names),
            "per_pass": state.per_pass,
            "by_trajectory_kind": kinds,
            "offset_share": 0.0,
            "large_kappa_share": None,
            "grid_points": None,
            "cn_steps": 0,
        }
        return state

    def _argv(self, state: State, name: str) -> list[str]:
        out = state.scratch / name
        return [
            SCENARIOS[name],
            "--config", str(state.root / "configs" / f"{name}.cfg"),
            "--out", str(out),
            "--seed", str(state.seed),
        ]

    def operations(self, state: State) -> list[Op]:
        env = program_env(state.root)

        def make(name):
            def run(tracer):
                proc = subprocess.run(
                    [sys.executable, "-m", "movingwell.cli", *self._argv(state, name)],
                    env=env, capture_output=True, text=True, check=False,
                )
                if proc.returncode != 0:
                    print(f"scenario {name}: exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
                return proc.returncode == 0, 1
            return Op(name, run)

        return [make(name) for name in state.items]

    def traced_operations(self, state: State) -> list[Op]:
        """The same commands through ``cli.main`` in this process; a traced
        run also hashes their CSVs."""
        recorded = json.loads((BENCH_DIR / "csv_digests.json").read_text())

        def make(name):
            def run(tracer):
                with span(tracer, f"cli.cmd.{name}"):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(self._argv(state, name))
                if tracer is not None:
                    self._digest(state, name, recorded)
                return code == 0, 1
            return Op(name, run)

        return [make(name) for name in state.items]

    def _digest(self, state: State, name: str, recorded: dict) -> None:
        """Count each CSV's bytes and compare its SHA-256 with the recorded
        one, the first time the file is seen."""
        for path in sorted((state.scratch / name).glob("*.csv")):
            data = path.read_bytes()
            key = f"{name}/{path.name}"
            digest = hashlib.sha256(data).hexdigest()
            previous = state.digests.get(key)
            state.digests[key] = digest
            if previous is not None:
                continue
            state.csv_bytes += len(data)
            if name in SEED_DEPENDENT and state.seed != recorded["seed"]:
                continue
            if recorded["files"].get(key) != digest:
                state.csv_changed += 1


# ------------------------------------------------------------------ packet


@dataclass
class Row:
    kind: str
    traj: object
    gauss: object
    t: float
    x: np.ndarray
    kappa: complex
    expansion: object = None


class Packet:
    """Seeded packets, closed theta form against the mode sum."""

    name = "packet"
    unit = "grid points"
    #: rows run in sequence order, so the rows a run reaches before its
    #: time is up are a well-spread prefix of the pool
    rows = 1024
    tiny_rows = 8

    def setup(self, root: Path, seed: int, tiny: bool) -> State:
        state = State(seed=seed, tiny=tiny, root=root)
        consts = core.PhysicalConstants()
        rng = np.random.default_rng(seed)
        n = self.tiny_rows if tiny else self.rows
        for uk, ut, ul, ud, uc, uq, uw, ux, up in halton(n, 9, rng):
            L0 = _log_uniform(ul, 60.0, 200.0)
            if uk < 0.5:
                traj = core.LinearWall(L0=L0, q=-0.2 + 5.2 * uq)
                kind = "linear"
            else:
                traj = core.SmoothPeriodicWall(
                    L0=L0, q=0.02 + 0.18 * uq, omega=0.5 + 1.5 * uw
                )
                kind = "smooth_periodic"
            d = 0.5 + 1.5 * ud
            if uc < 0.5:
                gauss = core.GaussianParams(d=d)
            else:
                gauss = core.GaussianParams(
                    d=d, x0=(2.0 * ux - 1.0) * L0 / 5.0, p0=2.0 * up - 1.0
                )
            t_rev = 4.0 * consts.mass * L0**2 / (math.pi * consts.hbar)
            t_hi = t_rev if traj.t_max is None else min(t_rev, traj.t_max)
            t = _log_uniform(ut, 0.1, t_hi)
            half = traj.length(t) / 2.0
            state.items.append(Row(
                kind=kind, traj=traj, gauss=gauss, t=t,
                x=np.linspace(-half, half, ROW_POINTS),
                kappa=propagator.theta_nome(gauss, traj, consts, t),
            ))
        for row in state.items:
            row.expansion = propagator.expansion_coefficients(
                row.gauss, row.traj, consts
            )
        rows = state.items
        # a tiny run measures the whole pool, so that it has percentiles
        state.per_pass = n if tiny else 1
        state.summary = {
            "pool": len(rows),
            "per_pass": state.per_pass,
            "by_trajectory_kind": {
                k: sum(r.kind == k for r in rows) for k in ("linear", "smooth_periodic")
            },
            "offset_share": sum(r.gauss.x0 != 0.0 for r in rows) / len(rows),
            "large_kappa_share": sum(abs(r.kappa) >= KAPPA_SPLIT for r in rows) / len(rows),
            "grid_points": ROW_POINTS * len(rows),
            "cn_steps": 0,
        }
        return state

    def operations(self, state: State) -> list[Op]:
        consts = core.PhysicalConstants()

        def make(i, row):
            def run(tracer):
                closed = propagator.evolve_theta_general(
                    row.gauss, row.traj, consts, row.t, row.x
                )
                summed = propagator.evolve_sum(row.expansion, row.traj, consts, row.t, row.x)
                err = float(np.max(np.abs(closed - summed)))
                state.err_max = max(state.err_max, err)
                return err <= ROUTE_TOL, ROW_POINTS
            return Op(f"row{i}", run)

        return [make(i, row) for i, row in enumerate(state.items)]


# ------------------------------------------------------------------ oracle


@dataclass
class Solve:
    kind: str
    traj: object
    gauss: object
    spec: object
    t: float
    steps: int
    start: object = None


class Oracle:
    """Two Crank-Nicolson solves per pass, each checked on the theta route."""

    name = "oracle"
    unit = "CN steps"
    passes = 4
    #: fig2.cfg's dt is T/62832; the unconfined solve runs to T/8
    unconfined_steps = 7854
    tiny_steps = 200

    def setup(self, root: Path, seed: int, tiny: bool) -> State:
        state = State(seed=seed, tiny=tiny, root=root)
        rng = np.random.default_rng(seed)
        fixed = config.parse_config(root / "configs" / "oracle.cfg")
        free = config.parse_config(root / "configs" / "fig2.cfg")
        for _ in range(self.passes):
            for kind, raw in (("fixed_frame", fixed), ("unconfined", free)):
                raw = dict(raw)
                raw["gaussian.d"] = repr(float(rng.uniform(0.8, 1.25)))
                raw["gaussian.x0"] = repr(float(rng.uniform(-5.0, 5.0)))
                state.items.append(self._solve(kind, config.ScenarioConfig(raw), tiny))
        state.per_pass = 2
        state.summary = {
            "pool": len(state.items),
            "per_pass": state.per_pass,
            "by_trajectory_kind": {"linear": self.passes, "smooth_periodic": self.passes},
            "offset_share": sum(s.gauss.x0 != 0.0 for s in state.items) / len(state.items),
            "large_kappa_share": None,
            "grid_points": sum(s.spec.n_points + 1 for s in state.items),
            "cn_steps": sum(s.steps for s in state.items),
        }
        return state

    def _solve(self, kind, cfg, tiny) -> Solve:
        consts = config.build_constants(cfg)
        traj = config.build_trajectory(cfg)
        gauss = config.build_gaussian(cfg)
        n_points = cfg.get_int("solver.n_points")
        if kind == "fixed_frame":
            n_steps = cfg.get_int("solver.n_steps")
            dt = cfg.get_float("time.t") / n_steps
            steps = self.tiny_steps if tiny else n_steps
            L0 = traj.length(0.0)
            y = np.linspace(-L0 / 2, L0 / 2, n_points + 1)
            start = core.WaveFunctionGrid(
                positions=y, values=propagator.initial_gaussian(gauss, consts, y), time=0.0
            )
            spec = oracle.SolverSpec(n_points=n_points, dt=dt)
            return Solve(kind, traj, gauss, spec, steps * dt, steps, start)
        dt = traj.period / cfg.get_int("solver.n_steps")
        steps = self.tiny_steps if tiny else self.unconfined_steps
        spec = oracle.SolverSpec(
            n_points=n_points, dt=dt,
            x_min=cfg.get_float("solver.x_min"), x_max=cfg.get_float("solver.x_max"),
        )
        return Solve(kind, traj, gauss, spec, steps * dt, steps)

    def operations(self, state: State) -> list[Op]:
        consts = core.PhysicalConstants()

        def rel_l2(diff, ref, grid):
            return math.sqrt(float(np.trapezoid(np.abs(diff) ** 2, grid))) / math.sqrt(
                float(np.trapezoid(np.abs(ref) ** 2, grid))
            )

        def fixed_frame(s, tracer):
            fmap = oracle.FrameMap(traj=s.traj)
            num = oracle.evolve_fixed_frame(s.start, fmap, s.spec, s.t, consts)
            with span(tracer, "oracle.reference"):
                y = s.start.positions
                x = y * fmap.scale(s.t)
                lab = core.WaveFunctionGrid(
                    positions=x,
                    values=propagator.evolve_theta_general(s.gauss, s.traj, consts, s.t, x),
                    time=s.t,
                )
                ref = oracle.to_fixed_frame(lab, fmap, s.t).values
                return rel_l2(num.values - ref, ref, y), FIXED_FRAME_TOL

        def unconfined(s, tracer):
            num = oracle.unconfined_tdlo_propagate(s.gauss, s.traj, s.spec, s.t, consts)
            with span(tracer, "oracle.reference"):
                x = num.positions
                ref = propagator.evolve_theta_general(s.gauss, s.traj, consts, s.t, x)
                return rel_l2(num.values - ref, ref, x), UNCONFINED_TOL

        def make(i, s):
            solve = fixed_frame if s.kind == "fixed_frame" else unconfined

            def run(tracer):
                rel, tol = solve(s, tracer)
                state.err_max = max(state.err_max, rel)
                if tracer is not None:
                    tracer.count("oracle.steps", s.steps)
                return rel <= tol, s.steps
            return Op(f"{s.kind}{i}", run)

        return [make(i, s) for i, s in enumerate(state.items)]


# ------------------------------------------------------------------ layers


def bind(tracer) -> None:
    """Plan the wrappers of every layer boundary; all workloads use them all.

    ``cli`` imported its own names of the theta, basis and phases functions,
    so those boundaries are wrapped in both calling modules.
    """

    def bucket(args, kwargs):
        kappa = args[2] if len(args) > 2 else kwargs["kappa"]
        return "theta.small_kappa" if abs(kappa) < KAPPA_SPLIT else "theta.large_kappa"

    def counter(key, size=np.size):
        return lambda args, kwargs, result: tracer.count(key, size(result))

    for module in (propagator, cli):
        tracer.bind(module, "theta", bucket, on_call=counter("theta.points"))
        # one call evaluates one mode on a grid
        tracer.bind(module, "basis_solution", "basis",
                    on_call=counter("basis.mode_points"))
    tracer.bind(propagator, "evolve_theta_general", "propagator.closed")
    tracer.bind(propagator, "evolve_sum", "propagator.sum")
    tracer.bind(propagator, "expansion_coefficients", "propagator.expansion",
                on_call=counter("propagator.expansion.modes",
                                lambda ex: sum(1 for _ in ex.modes())))
    for attr in ("total_phase", "dynamical_phase", "geometric_phase", "fig_mode_phases"):
        tracer.bind(cli, attr, "phases")
    tracer.bind(oracle, "solve_banded", "oracle.solve_banded")
    tracer.bind(oracle, "evolve_fixed_frame", "oracle.cn")
    tracer.bind(oracle, "unconfined_tdlo_propagate", "oracle.cn")


WORKLOADS = {w.name: w for w in (Scenarios(), Packet(), Oracle())}
