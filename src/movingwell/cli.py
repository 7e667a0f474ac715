"""Scenario runner: every verification and reproduction as a shell command.

Commands read a flat dotted-key config, write CSV files stamped with the
resolved configuration, and print one summary line each to stdout.  Exit
codes: 0 success, 2 configuration problems, 3 a numerical threshold was
violated (or, under --strict, a warning was emitted).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .basis import (
    _BOX_SECTORS,
    _FAMILIES,
    BasisIndex,
    _box_interval,
    basis_solution,
    schrodinger_residual,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    build_constants,
    build_gaussian,
    build_trajectory,
    parse_config,
)
from .core import (
    ConvergenceError,
    DomainError,
    LinearWall,
    ReversingLinearWall,
    ScaledWall,
    SmoothPeriodicWall,
    WaveFunctionGrid,
)
from .oracle import (
    FrameMap,
    SolverSpec,
    evolve_fixed_frame,
    to_fixed_frame,
    unconfined_tdlo_propagate,
)
from .phases import (
    _level_index,
    dynamical_phase,
    fig_mode_phases,
    geometric_phase,
    total_phase,
)
from .propagator import (
    evolve_cycle_reversing,
    evolve_sum,
    evolve_theta_centered,
    evolve_theta_general,
    evolve_unconfined_approx,
    expansion_coefficients,
    initial_gaussian,
    locality_compare,
)
from .theta import jacobi_transform, theta

COMMANDS = (
    "theta-check",
    "basis-check",
    "evolve",
    "locality",
    "cycle",
    "phase",
    "fig1",
    "fig2",
    "oracle-compare",
)


def _fmt(v: float) -> str:
    return "%.17g" % v


def _write_csv(path: Path, resolved: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config: {resolved}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_text(path: Path, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def _resolve_times(cfg: ScenarioConfig) -> list[float]:
    if cfg.has("time.t_list"):
        return cfg.get_float_list("time.t_list")
    return [cfg.get_float("time.t")]


def _get_count(cfg: ScenarioConfig, key: str, default: int, least: int) -> int:
    n = cfg.get_int(key, default)
    if n < least:
        raise ConfigError(f"{key} must be at least {least}")
    return n


def _time_or_period(cfg: ScenarioConfig, key: str, traj) -> float:
    if cfg.has(key):
        return cfg.get_float(key)
    if traj.period is None:
        raise ConfigError(f"trajectory has no period; set {key}")
    return traj.period


def _grid_from(cfg: ScenarioConfig, x_min: float, x_max: float, n: int = 2000):
    lo = cfg.get_float("grid.x_min", x_min)
    hi = cfg.get_float("grid.x_max", x_max)
    pts = cfg.get_int("grid.n_points", n)
    if not lo < hi:
        raise ConfigError("grid.x_min must lie below grid.x_max")
    if pts < 2:
        raise ConfigError("grid.n_points must be at least 2")
    return np.linspace(lo, hi, pts + 1)


def _solver_spec(cfg: ScenarioConfig, dt: float, box: bool = False) -> SolverSpec:
    """SolverSpec from the solver.* keys (with the static box x_min/x_max
    when ``box``); a bad value is reported by its key."""
    n = cfg.get_int("solver.n_points", 4096)
    if n < 8 or n & (n - 1):
        raise ConfigError("solver.n_points must be a power of two, at least 8")
    if not box:
        return SolverSpec(n_points=n, dt=dt)
    lo = cfg.get_float("solver.x_min", -40.0)
    hi = cfg.get_float("solver.x_max", 40.0)
    if not lo < hi:
        raise ConfigError("solver.x_min must lie below solver.x_max")
    return SolverSpec(n_points=n, dt=dt, x_min=lo, x_max=hi)


def _wavefunction_rows(x, psi):
    a2 = np.abs(psi) ** 2
    return zip(x, psi.real, psi.imag, a2)


# ---------------------------------------------------------------- commands


def cmd_theta_check(cfg: ScenarioConfig, out: Path, seed: int) -> int:
    """Random sweep of the modular-transformation identity."""
    n = _get_count(cfg, "theta.samples", 100, 1)
    tol = cfg.get_float("tolerances.theta_tol", 1e-12)
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for _ in range(n):
        kind = int(rng.choice([2, 3]))
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        kappa = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 5.0))
        direct = theta(kind, z, kappa)
        transformed = jacobi_transform(kind, z, kappa)
        rel = abs(direct - transformed) / max(abs(direct), 1e-30)
        worst = max(worst, rel)
        rows.append((kind, z.real, z.imag, kappa.real, kappa.imag, rel))
    _write_csv(
        out / "theta_check.csv",
        cfg.resolved_line(),
        ["kind", "z_re", "z_im", "kappa_re", "kappa_im", "rel_err"],
        rows,
    )
    print(f"theta-check: samples={n} max_rel_err={worst:.3e} tol={tol:.1e}")
    return 0 if worst <= tol else 3


def cmd_basis_check(cfg: ScenarioConfig, out: Path, seed: int) -> int:
    """Orthonormality of the solution families plus residual convergence."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    t = cfg.get_float("basis.t", 1.0)
    n_max = _get_count(cfg, "basis.n_max", 20, 1)
    gram_tol = cfg.get_float("tolerances.gram_tol", 1e-10)
    L = traj.length(t)
    x = np.linspace(*_box_interval(L, "symmetric"), 16385)
    w = np.full(x.size, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    rows = []
    worst_gram = 0.0
    for code, family in enumerate(_FAMILIES["symmetric"]):
        idxs = [BasisIndex(family.sector, n) for n in range(family.first, n_max + 1)]
        states = np.array([basis_solution(i, traj, constants, t, x) for i in idxs])
        gram = (states.conj() * w) @ states.T
        dev = float(np.max(np.abs(gram - np.eye(len(idxs)))))
        worst_gram = max(worst_gram, dev)
        rows.append((0, float(code), dev))
    # residual halves twice as fast as dt: second-order evolution check
    ratios = []
    for sector, n in (("even", 1), ("odd", 2)):
        idx = BasisIndex(sector, n)
        r1 = schrodinger_residual(idx, traj, constants, t, potential="tdlo", dt=2e-3)
        r2 = schrodinger_residual(idx, traj, constants, t, potential="tdlo", dt=1e-3)
        ratios.append(r1 / r2)
        rows.append((1, float(n), r1 / r2))
    _write_csv(
        out / "basis_check.csv",
        cfg.resolved_line(),
        ["check", "label", "value"],
        rows,
    )
    ok = worst_gram <= gram_tol and all(3.0 < r < 5.0 for r in ratios)
    print(
        f"basis-check: gram_dev={worst_gram:.3e} residual_ratios="
        + ",".join(f"{r:.2f}" for r in ratios)
    )
    return 0 if ok else 3


_ROUTES = ("sum", "theta_centered", "theta_general", "unconfined_approx", "cycle")


EVOLVE_PLOT = """\
# Plot |psi|^2 from the evolve command's CSV output.
import csv
import sys

import matplotlib.pyplot as plt

for path in sys.argv[1:]:
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    head, data = rows[0], rows[1:]
    x = [float(r[0]) for r in data]
    a2 = [float(r[3]) for r in data]
    plt.plot(x, a2, label=path)
plt.xlabel("x")
plt.ylabel("|psi|^2")
plt.legend()
plt.tight_layout()
plt.savefig("evolve.png", dpi=160)
"""


def cmd_evolve(cfg: ScenarioConfig, out: Path, seed: int) -> int:
    """Propagate the packet along one route; one CSV per requested time."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    gauss = build_gaussian(cfg)
    route = cfg.get_str("evolve.route", "theta_general", choices=_ROUTES)
    sector = cfg.get_str("evolve.sector", "symmetric", choices=_BOX_SECTORS)
    times = _resolve_times(cfg)
    x = _grid_from(cfg, *_box_interval(traj.length(0.0), sector))

    if route == "sum":
        expansion = expansion_coefficients(
            gauss, traj, constants, sector=sector,
            tail_tol=cfg.get_float("tolerances.tail_tol", 1e-14),
        )
        job = lambda t: evolve_sum(expansion, traj, constants, t, x)
    elif route == "theta_centered":
        job = lambda t: evolve_theta_centered(gauss, traj, constants, t, x)
    elif route == "theta_general":
        job = lambda t: evolve_theta_general(gauss, traj, constants, t, x, sector=sector)
    elif route == "unconfined_approx":
        job = lambda t: evolve_unconfined_approx(gauss, traj, constants, t, x)
    else:
        cycle_route = cfg.get_str(
            "evolve.cycle_route", "closed", choices=("closed", "reexpansion")
        )
        job = lambda t: evolve_cycle_reversing(
            gauss, traj, constants, t, x, route=cycle_route
        )

    results = [job(t) for t in times]
    for i, (t, psi) in enumerate(zip(times, results)):
        path = out / f"evolve_{i:03d}.csv"
        _write_csv(
            path,
            cfg.resolved_line() + f" __t={_fmt(t)}",
            ["x", "re_psi", "im_psi", "abs2"],
            _wavefunction_rows(x, psi),
        )
        norm = math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, x)))
        print(f"evolve[{i}]: route={route} t={t:g} norm={norm:.12f} -> {path.name}")
    _write_text(out / "evolve_plot.py", EVOLVE_PLOT)
    return 0


def cmd_locality(cfg: ScenarioConfig, out: Path, seed: int) -> int:
    """Moving versus baseline wall: the packet must not notice.

    The baseline is the inner trajectory for a scaled pair, the static box
    otherwise; both pairings share the L''/L history, so any difference
    above tolerance is a genuine failure.
    """
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    gauss = build_gaussian(cfg)
    sector = cfg.get_str("scenario.sector", "symmetric", choices=_BOX_SECTORS)
    tol = cfg.get_float("tolerances.locality_tol", 1e-10)
    warn_ratio = cfg.get_float("tolerances.localization_warn", 0.1)
    if isinstance(traj, ScaledWall):
        baseline = traj.inner
    else:
        baseline = LinearWall(L0=traj.length(0.0), q=0.0)
    times = _resolve_times(cfg)
    x = _grid_from(cfg, gauss.x0 - 8 * gauss.d, gauss.x0 + 8 * gauss.d)
    rows = []
    failed = False
    for t in times:
        rep = locality_compare(
            gauss, constants, traj, baseline, t, x,
            threshold=warn_ratio, tol=tol, sector=sector,
        )
        rows.append((t, rep.sup_error, rep.l2_error, rep.localization_ratio,
                     {"pass": 0.0, "warn": 1.0, "fail": 2.0}[rep.verdict]))
        print(
            f"locality: t={t:g} sup_error={rep.sup_error:.3e} "
            f"l2_error={rep.l2_error:.3e} spread_ratio={rep.localization_ratio:.3f} "
            f"verdict={rep.verdict}"
        )
        failed = failed or rep.verdict == "fail"
    _write_csv(
        out / "locality.csv",
        cfg.resolved_line(),
        ["t", "sup_error", "l2_error", "localization_ratio", "verdict_code"],
        rows,
    )
    return 3 if failed else 0


def cmd_cycle(cfg: ScenarioConfig, out: Path, seed: int) -> int:
    """Full expand-reverse-contract cycle of the reversing wall."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    if not isinstance(traj, ReversingLinearWall):
        raise ConfigError("cycle needs trajectory.kind=reversing_linear")
    gauss = build_gaussian(cfg)
    route_tol = cfg.get_float("tolerances.cycle_route_tol", 1e-9)
    static_tol = cfg.get_float("tolerances.cycle_static_tol", 1e-10)
    t = cfg.get_float("time.t", traj.T)
    x = _grid_from(cfg, gauss.x0 - 8 * gauss.d, gauss.x0 + 8 * gauss.d)
    closed = evolve_cycle_reversing(gauss, traj, constants, t, x, route="closed")
    reexp = evolve_cycle_reversing(gauss, traj, constants, t, x, route="reexpansion")
    static = evolve_theta_general(
        gauss, LinearWall(L0=traj.L0, q=0.0), constants, t, x
    )
    route_diff = float(np.max(np.abs(closed - reexp)))
    static_diff = float(np.max(np.abs(closed - static)))
    for name, psi in (("cycle_closed", closed), ("cycle_reexpansion", reexp)):
        _write_csv(
            out / f"{name}.csv",
            cfg.resolved_line(),
            ["x", "re_psi", "im_psi", "abs2"],
            _wavefunction_rows(x, psi),
        )
    print(
        f"cycle: t={t:g} route_diff={route_diff:.3e} static_diff={static_diff:.3e}"
    )
    ok = route_diff <= route_tol and (t < traj.T or static_diff <= static_tol)
    return 0 if ok else 3


def cmd_phase(cfg: ScenarioConfig, out: Path, seed: int) -> int:
    """Clock / dynamical / geometric split for the lowest box levels."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    n_max = _get_count(cfg, "phase.n_max", 10, 0)
    tol = cfg.get_float("tolerances.phase_tol", 1e-6)
    time_nodes = _get_count(cfg, "phase.time_nodes", 256, 2)
    space_nodes = _get_count(cfg, "phase.space_nodes", 512, 2)
    T = _time_or_period(cfg, "time.T", traj)
    rows = []
    worst = 0.0
    for n in range(n_max + 1):
        nu = n + 1
        idx = _level_index(nu)
        mu = total_phase(idx, traj, constants, T)
        delta = dynamical_phase(
            idx, traj, constants, T, time_nodes=time_nodes, space_nodes=space_nodes
        )
        gamma = geometric_phase(idx, traj, constants, T)
        scale = max(abs(gamma), abs(mu), abs(delta), 1e-30)
        rel = abs(gamma + mu + delta) / scale
        worst = max(worst, rel)
        rows.append((n, nu, mu, delta, gamma, gamma % (2 * math.pi), rel))
    _write_csv(
        out / "phase.csv",
        cfg.resolved_line(),
        ["n", "nu", "mu", "delta", "gamma", "gamma_mod_2pi", "closure_rel_err"],
        rows,
    )
    print(f"phase: modes={n_max + 1} worst_closure={worst:.3e} tol={tol:.1e}")
    return 0 if worst <= tol else 3


FIG1_PLOT = """\
# Geometric phase (mod 2 pi) against mode index, one curve per box size.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

curves = defaultdict(list)
with open("fig1.csv") as fh:
    for row in csv.reader(fh):
        if not row or row[0].startswith("#") or row[0] == "Lbar0":
            continue
        curves[float(row[0])].append((int(float(row[1])), float(row[2])))
for L0 in sorted(curves):
    pts = sorted(curves[L0])
    plt.plot([p[0] for p in pts], [p[1] for p in pts], "o-", label=f"L0={L0:g}")
plt.xlabel("n")
plt.ylabel("gamma mod 2 pi")
plt.legend()
plt.tight_layout()
plt.savefig("fig1.png", dpi=160)
"""


def cmd_fig1(cfg: ScenarioConfig, out: Path, seed: int) -> int:
    """Phase-versus-mode dataset for the family of breathing boxes."""
    constants = build_constants(cfg)
    sizes = cfg.get_float_list("fig1.Lbar0_list", [100.0, 400.0, 800.0, 1000.0])
    n_max = _get_count(cfg, "fig1.n_max", 30, 0)
    q = cfg.get_float("fig1.q", 0.1)
    omega = cfg.get_float("fig1.omega", 1.0)
    tol = cfg.get_float("tolerances.fig1_tol", 1e-9)
    data = fig_mode_phases(
        constants, Lbar0_values=sizes, n_max=n_max, q=q, omega=omega
    )
    rows = []
    for i, L0 in enumerate(data["Lbar0"]):
        for j, n in enumerate(data["n"]):
            rows.append((L0, float(n), data["gamma_mod_2pi"][i, j], data["gamma"][i, j]))
    _write_csv(
        out / "fig1.csv",
        cfg.resolved_line(),
        ["Lbar0", "n", "gamma_mod_2pi", "gamma"],
        rows,
    )
    _write_text(out / "fig1_plot.py", FIG1_PLOT)
    # the unreduced curves must be exact multiples of each other
    base = data["gamma"][0] * (data["Lbar0"][0] ** -2)
    worst = 0.0
    for i, L0 in enumerate(data["Lbar0"]):
        dev = float(np.max(np.abs(data["gamma"][i] / L0**2 - base) / base))
        worst = max(worst, dev)
    print(f"fig1: sizes={len(sizes)} modes={n_max + 1} k2_consistency={worst:.3e}")
    return 0 if worst <= tol else 3


FIG2_PLOT = """\
# Confined (theta resummation) vs unconfined (direct PDE) densities.
import csv

import matplotlib.pyplot as plt

x, conf, unconf = [], [], []
with open("fig2.csv") as fh:
    for row in csv.reader(fh):
        if not row or row[0].startswith("#") or row[0] == "x":
            continue
        x.append(float(row[0]))
        conf.append(float(row[1]))
        unconf.append(float(row[2]))
plt.plot(x, conf, label="confined, exact")
plt.plot(x, unconf, "--", label="unconfined, numerical")
plt.xlabel("x")
plt.ylabel("|psi|^2")
plt.legend()
plt.tight_layout()
plt.savefig("fig2.png", dpi=160)
"""


def cmd_fig2(cfg: ScenarioConfig, out: Path, seed: int) -> int:
    """Confined theta evolution against the wall-free PDE oracle."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    gauss = build_gaussian(cfg)
    tol = cfg.get_float("tolerances.fig2_tol", 1e-3)
    T = _time_or_period(cfg, "time.t", traj)
    n_steps = _get_count(cfg, "solver.n_steps", 62832, 1)
    spec = _solver_spec(cfg, T / n_steps, box=True)
    unconf = unconfined_tdlo_propagate(gauss, traj, spec, T, constants)
    x = unconf.positions
    conf = evolve_theta_general(gauss, traj, constants, T, x)
    num = math.sqrt(float(np.trapezoid(np.abs(unconf.values - conf) ** 2, x)))
    den = math.sqrt(float(np.trapezoid(np.abs(conf) ** 2, x)))
    rel = num / den
    _write_csv(
        out / "fig2.csv",
        cfg.resolved_line(),
        ["x", "abs2_confined", "abs2_unconfined"],
        zip(x, np.abs(conf) ** 2, np.abs(unconf.values) ** 2),
    )
    _write_text(out / "fig2_plot.py", FIG2_PLOT)
    print(f"fig2: t={T:g} rel_l2={rel:.3e} tol={tol:.1e}")
    return 0 if rel <= tol else 3


def cmd_oracle_compare(cfg: ScenarioConfig, out: Path, seed: int) -> int:
    """Crank-Nicolson in the fixed frame against the theta closed form."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    gauss = build_gaussian(cfg)
    t = cfg.get_float("time.t", 2.0)
    tol = cfg.get_float("tolerances.oracle_tol", 1e-4)
    n_steps = _get_count(cfg, "solver.n_steps", 8000, 1)
    spec = _solver_spec(cfg, t / n_steps)
    fmap = FrameMap(traj=traj)
    L0 = fmap.L0
    y = np.linspace(-L0 / 2, L0 / 2, spec.n_points + 1)
    start = WaveFunctionGrid(
        positions=y, values=initial_gaussian(gauss, constants, y), time=0.0
    )
    num = evolve_fixed_frame(start, fmap, spec, t, constants)
    s = fmap.scale(t)
    lab = WaveFunctionGrid(
        positions=y * s,
        values=evolve_theta_general(gauss, traj, constants, t, y * s),
        time=t,
    )
    ref = to_fixed_frame(lab, fmap, t)
    diff = num.values - ref.values
    rel = math.sqrt(float(np.trapezoid(np.abs(diff) ** 2, y))) / math.sqrt(
        float(np.trapezoid(np.abs(ref.values) ** 2, y))
    )
    _write_csv(
        out / "oracle_compare.csv",
        cfg.resolved_line(),
        ["y", "re_num", "im_num", "re_ref", "im_ref", "abs_diff"],
        zip(y, num.values.real, num.values.imag, ref.values.real, ref.values.imag,
            np.abs(diff)),
    )
    print(f"oracle-compare: t={t:g} rel_l2={rel:.3e} tol={tol:.1e}")
    return 0 if rel <= tol else 3


_DISPATCH = {
    "theta-check": cmd_theta_check,
    "basis-check": cmd_basis_check,
    "evolve": cmd_evolve,
    "locality": cmd_locality,
    "cycle": cmd_cycle,
    "phase": cmd_phase,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "oracle-compare": cmd_oracle_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="movingwell",
        description="Verifications and figure reproductions for the moving-wall box.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory (created if absent)")
    parser.add_argument("--seed", type=int, default=12345, help="seed for random sweeps")
    parser.add_argument(
        "--strict", action="store_true", help="any warning turns into exit code 3"
    )
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = ScenarioConfig(parse_config(args.config))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _DISPATCH[args.command](cfg, out, args.seed)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3

    for w in caught:
        print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
    unused = cfg.unused_keys()
    if unused:
        print(f"note: unused config keys: {', '.join(unused)}", file=sys.stderr)
    if args.strict and caught:
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
