"""Scenario runner: every verification and reproduction as a shell command.

Commands read a flat dotted-key config and return their CSV tables, their
stdout lines (one per time for ``evolve`` and ``locality``, one summary
line otherwise) and whether their checks held.  ``main`` writes the CSVs,
stamped with the resolved configuration, and the plot scripts, then prints
the lines, all once the command has finished: a run that fails midway
writes and prints nothing.  Exit codes: 0 success, 2 configuration
problems, 3 a numerical tolerance was violated (or, under --strict, a
warning was emitted).

Every command takes any time in its trajectory's window, through a
reversing wall's turn: the closed forms and the mode sum follow the mode
family that holds each t, and the Crank-Nicolson runs split the step the
turn falls in.  Each route has one library call: the closed form is
``evolve_theta_general`` and the mode sum ``evolve_sum`` over the family
that holds t, which ``_mode_sums`` builds once per run for ``evolve`` and
``cycle`` alike.  Every ``evolve`` route takes either box of
``evolve.sector``, the re-expansion past a turn included.  The closed
cycle is ``evolve.route=theta_general``; ``cycle`` compares it with the
re-expansion route and the static box.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .basis import (
    _BOX_SECTORS,
    _FAMILIES,
    BasisIndex,
    _box_interval,
    _level_index,
    basis_solution,
    schrodinger_residual,
)
from .config import (
    _MISSING,
    ConfigError,
    ScenarioConfig,
    _build,
    _keyed,
    build_constants,
    build_gaussian,
    build_trajectory,
    parse_config,
)
from .core import (
    ConvergenceError,
    DomainError,
    LinearWall,
    ScaledWall,
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
    _cycle_time,
    dynamical_phase,
    fig_mode_phases,
    geometric_phase,
    total_phase,
)
from .propagator import (
    LOCALITY_TOL,
    _packet_fits,
    contraction_coefficients,
    evolve_sum,
    evolve_theta_general,
    evolve_unconfined_approx,
    expansion_coefficients,
    initial_gaussian,
    locality_compare,
)
from .theta import jacobi_transform, theta


def _fmt(v: float) -> str:
    return "%.17g" % v


def _write_csv(path: Path, resolved: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config: {resolved}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _require(ok: bool, key: str, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{key} {rule}")


def _get_times(cfg: ScenarioConfig, key: str, traj, default=_MISSING,
               listed: bool = False) -> list[float]:
    """The times under ``key``, or with ``listed`` the comma list under
    ``<key>_list`` when that is set, each checked against the trajectory's
    window [0, t_max] so that a bad one names its key.  An absent key reads
    ``default``, if one is given; "period" stands for the trajectory's
    period, which the CSV stamp leaves out.  Every command runs through the
    whole window, a wall's turn included.
    """
    if listed and cfg.has(key + "_list"):
        key += "_list"
        times = cfg.get_float_list(key)
    elif default == "period" and not cfg.has(key):
        _require(traj.period is not None, "trajectory", f"has no period; set {key}")
        times = [traj.period]
    else:
        times = [cfg.get_float(key, default)]
    for t in times:
        try:
            traj._check(t)
        except DomainError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return times


def _gaussian(cfg: ScenarioConfig, traj, constants, sector: str):
    """The gaussian block, checked against the ``sector`` box it starts in
    and the mass (``_packet_fits``, which the routes' gate runs too) so
    that an (L0/d)^2 out of range, an m d^2 that underflows, or a packet
    that leaks past the walls names the keys of the product."""
    gauss = build_gaussian(cfg)
    keys = {"x0": "gaussian.x0", "d": "gaussian.d", "L0": "trajectory.L0", "mass": "constants.mass"}
    _keyed(_packet_fits, keys, gauss, traj.length(0.0), constants.mass, sector)
    return gauss


def _grid_from(cfg: ScenarioConfig, x_min: float, x_max: float, n: int = 2000):
    lo = cfg.get_float("grid.x_min", x_min)
    hi = cfg.get_float("grid.x_max", x_max)
    pts = cfg.get_int("grid.n_points", n, 2, MAX_GRID_POINTS)
    _require(lo < hi, "grid.x_min", "must lie below grid.x_max")
    return np.linspace(lo, hi, pts + 1)


#: ceiling on solver.n_points: 2^20 subdivisions, 16 MiB per complex array
MAX_SOLVER_POINTS = 2**20
#: ceiling on grid.n_points: at 2^20 the shipped evolve, locality and cycle
#: configs take 3-19 s and at most 345 MiB, and write ~90 MB per CSV
MAX_GRID_POINTS = 2**20
#: ceiling on basis.n_max: at 256 basis-check holds two 256 x 16,385
#: complex mode tables and takes about 3.4 s and 226 MiB
MAX_BASIS_MODES = 256
#: ceiling on fig1.n_max: at 10^5 fig1 takes about 7 s and 111 MiB and
#: writes a 19 MB CSV
MAX_FIG1_MODES = 10**5


def _solver_spec(cfg: ScenarioConfig, dt: float, L0: float | None = None) -> SolverSpec:
    """SolverSpec from the solver.* keys; a bad value is reported by its key.

    With the fixed frame's box ``L0`` the default n_points is the smallest
    power of two from 4,096 up that keeps the shipped spacing L0/n <= 100/4,096.
    Without it the run is the unconfined one on the static box
    solver.x_min/x_max, [-40, 40] by default, at 4,096 points by default.
    """
    n = 4096
    while L0 is not None and n <= MAX_SOLVER_POINTS and L0 * 4096 > 100.0 * n:
        n *= 2
    n = cfg.get_int("solver.n_points", n)
    if n > MAX_SOLVER_POINTS:
        source = "" if cfg.has("solver.n_points") else f", the default at L0 = {L0:g}"
        raise ConfigError(f"solver.n_points must be at most {MAX_SOLVER_POINTS}{source}")
    if L0 is not None:
        return _build(cfg, "solver", SolverSpec, n_points=n, dt=dt)
    return _build(cfg, "solver", SolverSpec, n_points=n, dt=dt,
                  x_min=cfg.get_float("solver.x_min", -40.0),
                  x_max=cfg.get_float("solver.x_max", 40.0))


#: narrowest packet the Crank-Nicolson commands take, in cells of their
#: grid.  On oracle.cfg (t = 2, 8,000 steps) at 1,024 and 4,096 points a
#: packet below two cells misses the closed form by 0.77 to 1.54 in
#: relative L2, one of two cells by 0.25 and 0.78, and the shipped d = 1 by
#: 4.9e-4 and 3.1e-5: below two cells the solve is lost at any tolerance
MIN_PACKET_CELLS = 2


def _resolved(gauss, span: float, n: int, span_keys: str) -> None:
    """Refuse, before the solve, a packet narrower than MIN_PACKET_CELLS
    cells of a grid of n cells over ``span``, whose keys ``span_keys`` name."""
    floor = MIN_PACKET_CELLS * span / n
    _require(gauss.d >= floor, "gaussian.d",
             f"must span at least {MIN_PACKET_CELLS} cells of the solver grid, "
             f"{MIN_PACKET_CELLS} {span_keys} / solver.n_points = {floor:.3g}, got {gauss.d:g}")


def _rel_l2(psi, ref, x) -> float:
    """||psi - ref|| / ||ref|| in L2 over the grid x, by the trapezoid rule."""
    num, den = (float(np.trapezoid(np.abs(f) ** 2, x)) for f in (psi - ref, ref))
    return math.sqrt(num) / math.sqrt(den)


def _wave_csv(name: str, x, psi, *stamp):
    """A wavefunction table: columns x, re_psi, im_psi, abs2."""
    rows = zip(x, psi.real, psi.imag, np.abs(psi) ** 2)
    return (name, ["x", "re_psi", "im_psi", "abs2"], rows, *stamp)


# ---------------------------------------------------------------- commands
#
# Each command maps (config, seed) to (csvs, lines, ok), a CSV table being
# (file name, header, rows) plus an optional suffix to its config stamp.


def cmd_theta_check(cfg: ScenarioConfig, seed: int):
    """Random sweep of the modular-transformation identity."""
    n = cfg.get_int("theta.samples", 100, 1)
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
        # np.maximum keeps a NaN, which max(0.0, nan) would drop
        worst = np.maximum(worst, rel)
        rows.append((kind, z.real, z.imag, kappa.real, kappa.imag, rel))
    header = ["kind", "z_re", "z_im", "kappa_re", "kappa_im", "rel_err"]
    line = f"theta-check: samples={n} max_rel_err={worst:.3e} tol={tol:.1e}"
    return [("theta_check.csv", header, rows)], [line], worst <= tol


def cmd_basis_check(cfg: ScenarioConfig, seed: int):
    """Orthonormality of the solution families plus residual convergence."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    (t,) = _get_times(cfg, "basis.t", traj, 1.0)
    # the residual probe below reads the solutions at t +- 2e-3, which must
    # lie in the window and in one mode family
    t_hi = math.inf if traj.t_max is None else traj.t_max - 2e-3
    _require(2e-3 <= t <= t_hi and not t - 2e-3 < traj.turn <= t + 2e-3, "basis.t",
             f"must lie in [0.002, {t_hi:g}] and 0.002 clear of the wall's turn: "
             "the residual probe reads t +- 0.002")
    n_max = cfg.get_int("basis.n_max", 20, 1, MAX_BASIS_MODES)
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
        # einsum runs no BLAS, whose rounding follows its thread count; the
        # Gram matrix is Hermitian, so its rows from the diagonal on suffice
        unit = np.eye(len(idxs))
        dev = max(float(np.max(np.abs(np.einsum("x,kx->k", row, states[j:]) - unit[j, j:])))
                  for j, row in enumerate(states.conj() * w))
        worst_gram = np.maximum(worst_gram, dev)
        rows.append((0, float(code), dev))
    # residual halves twice as fast as dt: second-order evolution check, on
    # levels nu = 3 and 4, one in each family
    ratios = []
    # a wall too fast for the probe step names the keys that set its speed
    speed = [f"trajectory.{f.name}" for f in fields(getattr(traj, "inner", traj)) if f.name != "L0"]
    keys = {"t": "basis.t", "wall": f"wall ({', '.join(speed)})"}
    for nu in (3, 4):
        idx = _level_index(nu)
        r1 = _keyed(schrodinger_residual, keys, idx, traj, constants, t, potential="tdlo", dt=2e-3)
        r2 = schrodinger_residual(idx, traj, constants, t, potential="tdlo", dt=1e-3)
        ratios.append(r1 / r2)
        rows.append((1, float(idx.n), r1 / r2))
    ok = worst_gram <= gram_tol and all(3.0 < r < 5.0 for r in ratios)
    listed = ",".join(f"{r:.2f}" for r in ratios)
    line = f"basis-check: gram_dev={worst_gram:.3e} residual_ratios={listed}"
    return [("basis_check.csv", ["check", "label", "value"], rows)], [line], ok


def _mode_sums(gauss, traj, constants, times, x, sector="symmetric", tail_tol=1e-14):
    """The mode-sum route at each of ``times``: every t sums the family that
    holds it, the initial expansion before a wall's turn and from the turn
    on its re-expansion in the contraction family.  Each family is built
    once, and the contraction family only if some t reaches the turn."""
    families = {False: expansion_coefficients(gauss, traj, constants, sector=sector,
                                              tail_tol=tail_tol)}
    if any(t >= traj.turn for t in times):
        families[True] = contraction_coefficients(families[False], traj, constants)
    return [evolve_sum(families[t >= traj.turn], traj, constants, t, x) for t in times]


_ROUTES = ("sum", "theta_general", "unconfined_approx")


def cmd_evolve(cfg: ScenarioConfig, seed: int):
    """Propagate the packet along one route; one CSV per requested time.

    Every route takes either box and runs through a wall's turn.  ``sum``
    sums the family that holds each t (``_mode_sums``).  The default grid
    spans the largest box over t = 0 and every requested t, so no CSV
    leaves out part of its box.
    """
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    sector = cfg.get_str("evolve.sector", "symmetric", choices=_BOX_SECTORS)
    gauss = _gaussian(cfg, traj, constants, sector)
    route = cfg.get_str("evolve.route", "theta_general", choices=_ROUTES)
    times = _get_times(cfg, "time.t", traj, listed=True)
    L = max(traj.length(t) for t in (0.0, *times))
    key = "time.t_list" if cfg.has("time.t_list") else "time.t"
    _require(L < math.inf, key, "takes the box past the double range")
    x = _grid_from(cfg, *_box_interval(L, sector))
    if route == "sum":
        tail_tol = cfg.get_float("tolerances.tail_tol", 1e-14)
        psis = _mode_sums(gauss, traj, constants, times, x, sector, tail_tol)
    else:
        closed = evolve_theta_general if route == "theta_general" else evolve_unconfined_approx
        psis = [closed(gauss, traj, constants, t, x, sector=sector) for t in times]

    csvs, lines = [], []
    for i, (t, psi) in enumerate(zip(times, psis)):
        name = f"evolve_{i:03d}.csv"
        csvs.append(_wave_csv(name, x, psi, f" __t={_fmt(t)}"))
        norm = math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, x)))
        lines.append(f"evolve[{i}]: route={route} t={t:g} norm={norm:.12f} -> {name}")
    return csvs, lines, True


def cmd_locality(cfg: ScenarioConfig, seed: int):
    """Moving versus baseline wall: the packet must not notice.

    The baseline is the inner trajectory for a scaled pair, the static box
    otherwise; both pairings share the L''/L history, so any difference
    above tolerance is a genuine failure.
    """
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    sector = cfg.get_str("scenario.sector", "symmetric", choices=_BOX_SECTORS)
    gauss = _gaussian(cfg, traj, constants, sector)
    tol = cfg.get_float("tolerances.locality_tol", LOCALITY_TOL)
    if isinstance(traj, ScaledWall):
        baseline = traj.inner
    else:
        baseline = LinearWall(L0=traj.length(0.0), q=0.0)
    times = _get_times(cfg, "time.t", traj, listed=True)
    x = _grid_from(cfg, gauss.x0 - 8 * gauss.d, gauss.x0 + 8 * gauss.d)
    # a grid that leaves a box names the keys that set its edges
    edges = [key if cfg.has(key) else f"gaussian.x0 {sign} 8 gaussian.d"
             for key, sign in (("grid.x_min", "-"), ("grid.x_max", "+"))]
    grid = {"comparison grid": "comparison grid from {} to {}".format(*edges)}
    rows, lines = [], []
    for t in times:
        rep = _keyed(locality_compare, grid, gauss, constants, traj, baseline, t, x,
                     tol=tol, sector=sector)
        rows.append((t, rep.sup_error, rep.l2_error, rep.wall_amplitude,
                     {"pass": 0.0, "warn": 1.0, "fail": 2.0}[rep.verdict]))
        lines.append(
            f"locality: t={t:g} sup_error={rep.sup_error:.3e} "
            f"l2_error={rep.l2_error:.3e} wall_amplitude={rep.wall_amplitude:.3e} "
            f"verdict={rep.verdict}"
        )
    header = ["t", "sup_error", "l2_error", "wall_amplitude", "verdict_code"]
    return [("locality.csv", header, rows)], lines, all(r[4] != 2.0 for r in rows)


def cmd_cycle(cfg: ScenarioConfig, seed: int):
    """Full expand-reverse-contract cycle of the reversing wall: the
    closed form against the mode sum re-expanded at the turn, and against
    the static box at the cycle's end."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    _require(not math.isinf(traj.turn), "cycle",
             "needs trajectory.kind=reversing_linear, or kind=scaled with that inner")
    gauss = _gaussian(cfg, traj, constants, "symmetric")
    route_tol = cfg.get_float("tolerances.cycle_route_tol", 1e-9)
    static_tol = cfg.get_float("tolerances.cycle_static_tol", 1e-10)
    (t,) = _get_times(cfg, "time.t", traj, traj.t_max)
    # the grid follows the packet's centre at t
    centre = gauss.x0 + gauss.p0 * t / constants.mass
    x = _grid_from(cfg, centre - 8 * gauss.d, centre + 8 * gauss.d)
    closed = evolve_theta_general(gauss, traj, constants, t, x)
    (reexp,) = _mode_sums(gauss, traj, constants, [t], x)
    static = evolve_theta_general(
        gauss, LinearWall(L0=traj.length(0.0), q=0.0), constants, t, x
    )
    route_diff = float(np.max(np.abs(closed - reexp)))
    static_diff = float(np.max(np.abs(closed - static)))
    csvs = [
        _wave_csv("cycle_closed.csv", x, closed),
        _wave_csv("cycle_reexpansion.csv", x, reexp),
    ]
    line = f"cycle: t={t:g} route_diff={route_diff:.3e} static_diff={static_diff:.3e}"
    ok = route_diff <= route_tol and (t < traj.t_max or static_diff <= static_tol)
    return csvs, [line], ok


def cmd_phase(cfg: ScenarioConfig, seed: int):
    """Clock / dynamical / geometric split for the lowest box levels.

    The split is defined over a cycle of the wall only, so a span that is
    not one is refused before any quadrature; ``dynamical_phase`` sets its
    own resolution.
    """
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    n_max = cfg.get_int("phase.n_max", 10, 0)
    tol = cfg.get_float("tolerances.phase_tol", 1e-6)
    (T,) = _get_times(cfg, "time.T", traj, "period")
    _keyed(_cycle_time, {"T": "time.T"}, traj, T, "geometric phase")
    rows = []
    worst = 0.0
    for n in range(n_max + 1):
        nu = n + 1
        idx = _level_index(nu)
        mu = total_phase(idx, traj, constants, T)
        delta = dynamical_phase(idx, traj, constants, T)
        gamma = geometric_phase(idx, traj, constants, T)
        scale = max(abs(gamma), abs(mu), abs(delta), 1e-30)
        rel = abs(gamma + mu + delta) / scale
        worst = np.maximum(worst, rel)
        rows.append((n, nu, mu, delta, gamma, gamma % (2 * math.pi), rel))
    header = ["n", "nu", "mu", "delta", "gamma", "gamma_mod_2pi", "closure_rel_err"]
    line = f"phase: modes={n_max + 1} worst_closure={worst:.3e} tol={tol:.1e}"
    return [("phase.csv", header, rows)], [line], worst <= tol


def cmd_fig1(cfg: ScenarioConfig, seed: int):
    """Phase-versus-mode dataset for the family of breathing boxes."""
    constants = build_constants(cfg)
    sizes = cfg.get_float_list("fig1.Lbar0_list", [100.0, 400.0, 800.0, 1000.0])
    n_max = cfg.get_int("fig1.n_max", 30, 0, MAX_FIG1_MODES)
    q = cfg.get_float("fig1.q", 0.1)
    omega = cfg.get_float("fig1.omega", 1.0)
    tol = cfg.get_float("tolerances.fig1_tol", 1e-9)
    # the breathing walls check their own L0, q and omega
    keys = {"L0": "fig1.Lbar0_list", "q": "fig1.q", "omega": "fig1.omega"}
    data = _keyed(fig_mode_phases, keys, constants, Lbar0_values=sizes, n_max=n_max,
                  q=q, omega=omega)
    # gamma goes as q^2: at q = 0, or where q^2 underflows, every phase is
    # 0 and the curves' ratio below 0/0
    _require(not np.any(np.abs(data["gamma"]) < sys.float_info.min), "fig1.q",
             "must be nonzero, with every geometric phase, which goes as q^2, a normal double")
    rows = []
    for i, L0 in enumerate(data["Lbar0"]):
        for j, n in enumerate(data["n"]):
            rows.append((L0, float(n), data["gamma_mod_2pi"][i, j], data["gamma"][i, j]))
    # the unreduced curves must be exact multiples of each other
    base = data["gamma"][0] * (data["Lbar0"][0] ** -2)
    worst = 0.0
    for i, L0 in enumerate(data["Lbar0"]):
        dev = float(np.max(np.abs(data["gamma"][i] / L0**2 - base) / base))
        worst = np.maximum(worst, dev)
    header = ["Lbar0", "n", "gamma_mod_2pi", "gamma"]
    line = f"fig1: sizes={len(sizes)} modes={n_max + 1} k2_consistency={worst:.3e}"
    return [("fig1.csv", header, rows)], [line], worst <= tol


def cmd_fig2(cfg: ScenarioConfig, seed: int):
    """Confined theta evolution against the wall-free PDE oracle."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    gauss = _gaussian(cfg, traj, constants, "symmetric")
    tol = cfg.get_float("tolerances.fig2_tol", 1e-3)
    (T,) = _get_times(cfg, "time.t", traj, "period")
    _require(T > 0, "time.t", "must be positive")
    n_steps = cfg.get_int("solver.n_steps", 62832, 1)
    spec = _solver_spec(cfg, T / n_steps)
    _resolved(gauss, spec.x_max - spec.x_min, spec.n_points, "(solver.x_max - solver.x_min)")
    box = {"x_min": "solver.x_min", "x_max": "solver.x_max"}
    unconf = _keyed(unconfined_tdlo_propagate, box, gauss, traj, spec, T, constants)
    x = unconf.positions
    conf = evolve_theta_general(gauss, traj, constants, T, x)
    rel = _rel_l2(unconf.values, conf, x)
    rows = zip(x, np.abs(conf) ** 2, np.abs(unconf.values) ** 2)
    header = ["x", "abs2_confined", "abs2_unconfined"]
    line = f"fig2: t={T:g} rel_l2={rel:.3e} tol={tol:.1e}"
    return [("fig2.csv", header, rows)], [line], rel <= tol


def cmd_oracle_compare(cfg: ScenarioConfig, seed: int):
    """Crank-Nicolson in the fixed frame against the theta closed form."""
    constants = build_constants(cfg)
    traj = build_trajectory(cfg)
    gauss = _gaussian(cfg, traj, constants, "symmetric")
    (t,) = _get_times(cfg, "time.t", traj, 2.0)
    _require(t > 0, "time.t", "must be positive")
    tol = cfg.get_float("tolerances.oracle_tol", 1e-4)
    n_steps = cfg.get_int("solver.n_steps", 8000, 1)
    fmap = FrameMap(traj=traj)
    L0 = fmap.L0
    spec = _solver_spec(cfg, t / n_steps, L0)
    _resolved(gauss, L0, spec.n_points, "trajectory.L0")
    y = np.linspace(-L0 / 2, L0 / 2, spec.n_points + 1)
    start = WaveFunctionGrid(
        positions=y, values=initial_gaussian(gauss, constants, y), time=0.0
    )
    # a packet that does not vanish at the walls names the keys that place it
    keys = {"initial state": "initial state (gaussian.x0, gaussian.d)", "L0": "trajectory.L0"}
    num = _keyed(evolve_fixed_frame, keys, start, fmap, spec, t, constants)
    s = fmap.scale(t)
    lab = WaveFunctionGrid(
        positions=y * s,
        values=evolve_theta_general(gauss, traj, constants, t, y * s),
        time=t,
    )
    ref = to_fixed_frame(lab, fmap, t)
    rel = _rel_l2(num.values, ref.values, y)
    rows = zip(y, num.values.real, num.values.imag, ref.values.real, ref.values.imag,
               np.abs(num.values - ref.values))
    header = ["y", "re_num", "im_num", "re_ref", "im_ref", "abs_diff"]
    line = f"oracle-compare: t={t:g} rel_l2={rel:.3e} tol={tol:.1e}"
    return [("oracle_compare.csv", header, rows)], [line], rel <= tol


#: the one command table; its keys are also the CLI's command choices
COMMANDS = {
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

#: the plot script written beside a command's CSVs, as <command>_plot.py
PLOTS = {"evolve": EVOLVE_PLOT, "fig1": FIG1_PLOT, "fig2": FIG2_PLOT}


def _print_warnings(caught) -> None:
    for w in caught:
        print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)


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
    # a command that fails still shows the warnings it raised first
    caught = []
    try:
        cfg = ScenarioConfig(parse_config(args.config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            csvs, lines, ok = COMMANDS[args.command](cfg, args.seed)
    except (ConfigError, DomainError, OSError) as exc:
        _print_warnings(caught)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        _print_warnings(caught)
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3

    for name, header, rows, *stamp in csvs:
        _write_csv(out / name, cfg.resolved_line() + "".join(stamp), header, rows)
    if args.command in PLOTS:
        (out / f"{args.command}_plot.py").write_text(
            PLOTS[args.command], encoding="utf-8", newline="\n"
        )
    for line in lines:
        print(line)
    _print_warnings(caught)
    unused = cfg.unused_keys()
    if unused:
        print(f"note: unused config keys: {', '.join(unused)}", file=sys.stderr)
    return 3 if (args.strict and caught) or not ok else 0


if __name__ == "__main__":
    raise SystemExit(main())
