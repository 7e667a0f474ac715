"""Acceptance gate for the shipped claims.

One test per claim, one visible verdict line each, printed straight to
the terminal so the gate is auditable from plain pytest output.  Every
tolerance is stated inline; runtime budgets are asserted alongside the
numerical bound.  Nothing here may loosen a bound to make a test pass.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from movingwell import (
    BasisIndex,
    GaussianParams,
    LinearWall,
    PhysicalConstants,
    ReversingLinearWall,
    ScaledWall,
    SmoothPeriodicWall,
    SolverSpec,
    basis_solution,
    dynamical_phase,
    contraction_coefficients,
    evolve_fixed_frame,
    evolve_sum,
    evolve_theta_general,
    evolve_unconfined_approx,
    expansion_coefficients,
    fig_mode_phases,
    geometric_phase,
    initial_gaussian,
    instantaneous_eigenstate,
    jacobi_transform,
    locality_compare,
    reversal_mismatch_ratio,
    schrodinger_residual,
    theta,
    to_fixed_frame,
    transformed_basis_solution,
    unconfined_tdlo_propagate,
)
from movingwell.core import WaveFunctionGrid
from movingwell.oracle import FrameMap
from movingwell.basis import _level_index

C = PhysicalConstants()
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _report(capsys, num, name, ok, detail, elapsed, budget):
    verdict = "PASS" if (ok and elapsed < budget) else "FAIL"
    with capsys.disabled():
        print(
            f"\nacceptance {num:02d} {name}: {verdict} "
            f"({detail}) [{elapsed:.2f}s, budget {budget:g}s]"
        )
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.2f}s over budget {budget:g}s"


def test_01_theta_transformation_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260818)
    worst = 0.0
    for _ in range(100):
        kind = int(rng.integers(2, 4))
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        kappa = complex(rng.uniform(-3, 3), rng.uniform(0.05, 5))
        direct = theta(kind, z, kappa)
        routed = jacobi_transform(kind, z, kappa)
        rel = abs(direct - routed) / max(abs(direct), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(capsys, 1, "theta-transformation-identities", worst <= 1e-12,
            f"100 draws, |z| <= 2, max rel err {worst:.3e}, tol 1e-12",
            elapsed, 1.0)


def test_02_every_route_is_identity_at_t0(capsys):
    t0 = time.perf_counter()
    x = np.linspace(-8.0, 8.0, 801)
    smooth = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    rev = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    centered = GaussianParams(d=1.0)
    offset = GaussianParams(d=1.0, x0=10.0, p0=2.0)
    x_off = x + 10.0

    runs = [
        ("sum", evolve_sum(
            expansion_coefficients(offset, smooth, C), smooth, C, 0.0, x_off),
         initial_gaussian(offset, C, x_off)),
        ("theta_general_centred", evolve_theta_general(centered, smooth, C, 0.0, x),
         initial_gaussian(centered, C, x)),
        ("theta_general", evolve_theta_general(offset, smooth, C, 0.0, x_off),
         initial_gaussian(offset, C, x_off)),
        ("unconfined_approx", evolve_unconfined_approx(centered, smooth, C, 0.0, x),
         initial_gaussian(centered, C, x)),
        ("cycle_closed", evolve_theta_general(centered, rev, C, 0.0, x),
         initial_gaussian(centered, C, x)),
        ("cycle_sum", evolve_sum(expansion_coefficients(centered, rev, C), rev, C, 0.0, x),
         initial_gaussian(centered, C, x)),
    ]
    worst, worst_route = 0.0, ""
    for route, got, want in runs:
        sup = float(np.max(np.abs(got - want)))
        if sup > worst:
            worst, worst_route = sup, route
    elapsed = time.perf_counter() - t0
    _report(capsys, 2, "identity-at-t0-every-route", worst <= 1e-10,
            f"6 routes, worst sup {worst:.3e} ({worst_route}), tol 1e-10",
            elapsed, 1.0)


def test_03_locality_moving_vs_static(capsys):
    t0 = time.perf_counter()
    gauss = GaussianParams(d=1.0)
    x = np.linspace(-8.0, 8.0, 1601)
    worst = 0.0
    for t in (1.0, 3.0, 5.0):
        ref = evolve_theta_general(gauss, LinearWall(L0=100.0, q=0.0), C, t, x)
        scale = float(np.max(np.abs(ref)))
        for q in (-0.5, 0.5, 2.0, 10.0):
            psi = evolve_theta_general(gauss, LinearWall(L0=100.0, q=q), C, t, x)
            worst = max(worst, float(np.max(np.abs(psi - ref))) / scale)
    elapsed = time.perf_counter() - t0
    _report(capsys, 3, "locality-moving-vs-static", worst <= 1e-10,
            f"q in {{-0.5, 0.5, 2, 10}}, t in {{1, 3, 5}}, "
            f"worst sup/max|psi| {worst:.3e}, tol 1e-10",
            elapsed, 2.0)


def test_04_full_cycle_reversal(capsys):
    t0 = time.perf_counter()
    gauss = GaussianParams(d=1.0)
    rev = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    x = np.linspace(-8.0, 8.0, 1601)
    closed = evolve_theta_general(gauss, rev, C, 4.0, x)
    static = evolve_theta_general(gauss, LinearWall(L0=100.0, q=0.0), C, 4.0, x)
    reexpanded = contraction_coefficients(expansion_coefficients(gauss, rev, C), rev, C)
    reexp = evolve_sum(reexpanded, rev, C, 4.0, x)
    sup_static = float(np.max(np.abs(closed - static)))
    sup_routes = float(np.max(np.abs(closed - reexp)))
    elapsed = time.perf_counter() - t0
    _report(capsys, 4, "full-cycle-reversal",
            sup_static <= 1e-10 and sup_routes <= 1e-9,
            f"cycle vs static {sup_static:.3e} (tol 1e-10), "
            f"closed vs re-expansion {sup_routes:.3e} (tol 1e-9)",
            elapsed, 5.0)


def test_05_scaled_wall_locality(capsys):
    t0 = time.perf_counter()
    gauss = GaussianParams(d=1.0)
    inner = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    t = 2.0 * math.pi
    x = np.linspace(-8.0, 8.0, 1601)
    ref = evolve_theta_general(gauss, inner, C, t, x)
    scale = float(np.max(np.abs(ref)))
    worst = 0.0
    for k in (2.0, 4.0):
        psi = evolve_theta_general(gauss, ScaledWall(inner, k), C, t, x)
        worst = max(worst, float(np.max(np.abs(psi - ref))) / scale)
    elapsed = time.perf_counter() - t0
    _report(capsys, 5, "scaled-wall-locality", worst <= 1e-10,
            f"k in {{2, 4}}, t = 2pi, worst sup/max|psi| {worst:.3e}, tol 1e-10",
            elapsed, 2.0)


def test_06_geometric_phase_vs_quadratures(capsys):
    t0 = time.perf_counter()
    traj = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    T = traj.period
    worst = 0.0
    for n in range(11):
        idx = _level_index(n + 1)
        gamma_closed = geometric_phase(idx, traj, C)
        # clock phase from a quadrature of L^-2, not the closed tau
        tau_T, _ = scipy.integrate.quad(lambda s: traj.length(s) ** -2, 0.0, T,
                                        limit=200)
        mu = C.hbar * math.pi**2 * idx.nu**2 * tau_T / (2.0 * C.mass)
        delta = dynamical_phase(idx, traj, C, T)
        gamma_quad = -(mu + delta)
        worst = max(worst, abs(gamma_closed - gamma_quad) / abs(gamma_closed))
    elapsed = time.perf_counter() - t0
    _report(capsys, 6, "geometric-phase-vs-quadratures", worst <= 1e-6,
            f"modes n <= 10, worst rel dev {worst:.3e}, tol 1e-6",
            elapsed, 10.0)


def test_07_phase_scaling_law(capsys):
    t0 = time.perf_counter()
    inner = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    worst = 0.0
    for n in range(11):
        idx = _level_index(n + 1)
        base = geometric_phase(idx, inner, C)
        for k in (4.0, 8.0, 10.0):
            scaled = geometric_phase(idx, ScaledWall(inner, k), C)
            worst = max(worst, abs(scaled - k**2 * base) / abs(k**2 * base))
    elapsed = time.perf_counter() - t0
    _report(capsys, 7, "phase-scaling-law", worst <= 1e-9,
            f"k in {{4, 8, 10}}, n <= 10, worst rel dev {worst:.3e}, tol 1e-9",
            elapsed, 1.0)


def test_08_mode_phase_dataset(capsys):
    t0 = time.perf_counter()
    data = fig_mode_phases(C)
    sizes = np.asarray(data["Lbar0"])
    gamma = data["gamma"]

    # internal consistency: the four curves are one curve times (L/100)^2,
    # asserted before any mod-2pi reduction
    base = gamma[0] / sizes[0] ** 2
    k2_dev = 0.0
    for i in range(len(sizes)):
        k2_dev = max(k2_dev, float(np.max(np.abs(gamma[i] / sizes[i] ** 2 - base)
                                          / base)))
    mod_ok = bool(np.all(data["gamma_mod_2pi"] == np.mod(gamma, 2.0 * math.pi)))

    # regression lock against the frozen first verified run
    frozen = np.loadtxt(FIXTURES / "fig1_gamma.csv", delimiter=",", skiprows=1)
    reg_dev = 0.0
    for row in frozen:
        i = int(np.argwhere(sizes == row[0])[0, 0])
        j = int(row[1])
        reg_dev = max(reg_dev, abs(gamma[i, j] - row[2]) / abs(row[2]))
    elapsed = time.perf_counter() - t0
    _report(capsys, 8, "mode-phase-dataset",
            k2_dev <= 1e-9 and mod_ok and reg_dev <= 1e-12,
            f"4 sizes x 31 modes, k2-consistency {k2_dev:.3e} (tol 1e-9), "
            f"regression dev {reg_dev:.3e} (tol 1e-12)",
            elapsed, 5.0)


def test_09_confined_theta_vs_unconfined_pde(capsys):
    t0 = time.perf_counter()
    traj = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    gauss = GaussianParams(d=1.0)
    T = traj.period
    n_points = 4096
    spec = SolverSpec(n_points=n_points, dt=T / 62832, x_min=-40.0, x_max=40.0)
    pde = unconfined_tdlo_propagate(gauss, traj, spec, T, C)
    ref = evolve_theta_general(gauss, traj, C, T, pde.positions)
    num = np.sqrt(np.trapezoid(np.abs(pde.values - ref) ** 2, pde.positions))
    den = np.sqrt(np.trapezoid(np.abs(ref) ** 2, pde.positions))
    rel = float(num / den)
    elapsed = time.perf_counter() - t0
    _report(capsys, 9, "confined-theta-vs-unconfined-pde", rel <= 1e-3,
            f"N = {n_points}, dt = T/62832, t = 2pi, rel L2 {rel:.3e}, tol 1e-3",
            elapsed, 60.0)


def _fixed_frame_error(traj, gauss, t_final, n_points, dt):
    fmap = FrameMap(traj)
    L0 = traj.length(0.0)
    y = np.linspace(-L0 / 2, L0 / 2, n_points + 1)
    psi0 = WaveFunctionGrid(positions=y, values=initial_gaussian(gauss, C, y),
                            time=0.0)
    spec = SolverSpec(n_points=n_points, dt=dt)
    num = evolve_fixed_frame(psi0, fmap, spec, t_final, C)
    ref_moving = WaveFunctionGrid(
        positions=y * traj.length(t_final) / L0,
        values=evolve_theta_general(gauss, traj, C, t_final,
                                    y * traj.length(t_final) / L0),
        time=t_final,
    )
    ref = to_fixed_frame(ref_moving, fmap, t_final)
    diff = np.sqrt(np.trapezoid(np.abs(num.values - ref.values) ** 2, y))
    den = np.sqrt(np.trapezoid(np.abs(ref.values) ** 2, y))
    return float(diff / den)


def test_10_fixed_frame_oracle_agreement(capsys):
    t0 = time.perf_counter()
    traj = LinearWall(L0=100.0, q=2.0)
    gauss = GaussianParams(d=1.0)
    errs = [
        _fixed_frame_error(traj, gauss, 2.0, n, dt)
        for n, dt in ((1024, 1e-3), (2048, 5e-4), (4096, 2.5e-4))
    ]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = errs[2] <= 1e-4 and all(3.5 <= r <= 4.5 for r in ratios)
    elapsed = time.perf_counter() - t0
    _report(capsys, 10, "fixed-frame-oracle-agreement", ok,
            f"rel L2 {errs[2]:.3e} (tol 1e-4), "
            f"halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} (4 +- 0.5)",
            elapsed, 60.0)


def _transformed_residual(idx, traj, t, dt, n_points=1024):
    """Fixed-frame equation residual of the dilation-transformed solution."""
    hbar, m = C.hbar, C.mass
    L0 = traj.length(0.0)
    grid = np.linspace(-L0 / 2, L0 / 2, n_points + 1)
    y = grid[4:-4]
    L, Lp = traj.length(t), traj.velocity(t)
    k0 = math.pi * idx.nu / L0
    c = m * L * Lp / (2.0 * hbar * L0**2)
    z0 = transformed_basis_solution(idx, traj, C, t, y)
    trig = np.sin(k0 * y) if idx.is_sine else np.cos(k0 * y)
    dtrig = k0 * np.cos(k0 * y) if idx.is_sine else -k0 * np.sin(k0 * y)
    with np.errstate(invalid="ignore", divide="ignore"):
        base = z0 / np.where(np.abs(trig) < 1e-9, np.nan, trig)
        zy = base * (2j * c * y * trig + dtrig)
        zyy = base * ((2j * c + (2j * c * y) ** 2 - k0**2) * trig
                      + 2 * (2j * c * y) * dtrig)
    s2 = (L0 / L) ** 2
    h_z = (-(hbar**2) / (2 * m)) * s2 * zyy \
        + 0.5 * m * traj.omega_squared(t) * (L / L0) ** 2 * y**2 * z0 \
        + 1j * hbar * (Lp / L) * (y * zy + 0.5 * z0)
    zp = transformed_basis_solution(idx, traj, C, t + dt, y)
    zm = transformed_basis_solution(idx, traj, C, t - dt, y)
    lhs = 1j * hbar * (zp - zm) / (2.0 * dt)
    keep = np.isfinite(zyy)
    return float(np.linalg.norm((lhs - h_z)[keep]) / np.linalg.norm(h_z[keep]))


def test_11_residuals_and_orthonormality(capsys):
    t0 = time.perf_counter()
    traj = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    t = 0.7

    families = [
        ("sine", BasisIndex("odd", 2)),
        ("cosine", BasisIndex("even", 1)),
        ("single_wall", BasisIndex("single_wall", 2)),
    ]
    ratios = []
    for _, idx in families:
        r1 = schrodinger_residual(idx, traj, C, t, potential="tdlo", dt=2e-3)
        r2 = schrodinger_residual(idx, traj, C, t, potential="tdlo", dt=1e-3)
        ratios.append(r1 / r2)
    for idx in (BasisIndex("even", 1), BasisIndex("odd", 2)):
        r1 = _transformed_residual(idx, traj, t, 2e-3)
        r2 = _transformed_residual(idx, traj, t, 1e-3)
        ratios.append(r1 / r2)
    second_order = all(3.0 < r < 5.0 for r in ratios)

    x = np.linspace(-traj.length(1.0) / 2, traj.length(1.0) / 2, 16385)
    w = np.full(x.size, x[1] - x[0])
    w[0] = w[-1] = 0.5 * (x[1] - x[0])
    idxs = [BasisIndex("even", n) for n in range(21)] \
        + [BasisIndex("odd", n) for n in range(1, 21)]
    states = np.array([basis_solution(i, traj, C, 1.0, x) for i in idxs])
    gram = (states.conj() * w) @ states.T
    gram_dev = float(np.max(np.abs(gram - np.eye(len(idxs)))))

    elapsed = time.perf_counter() - t0
    _report(capsys, 11, "residuals-and-orthonormality",
            second_order and gram_dev <= 1e-10,
            f"5 residual ratios in ({min(ratios):.2f}, {max(ratios):.2f}) "
            f"(band 3..5), gram dev {gram_dev:.3e} (tol 1e-10)",
            elapsed, 10.0)


def test_12_parseval_completeness(capsys):
    t0 = time.perf_counter()
    gauss = GaussianParams(d=1.0, x0=10.0, p0=2.0)
    traj = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    expansion = expansion_coefficients(gauss, traj, C)
    total = sum(abs(c) ** 2 for _, c in expansion.modes())
    ok = expansion.captured_norm >= 1.0 - 1e-12 and total >= 1.0 - 1e-12
    elapsed = time.perf_counter() - t0
    _report(capsys, 12, "parseval-completeness", ok,
            f"sum |c|^2 = {total:.15f} >= 1 - 1e-12",
            elapsed, 1.0)


def test_13_reversal_mismatch_expansion(capsys):
    t0 = time.perf_counter()
    idx = BasisIndex("even", 0)
    x = np.linspace(0.5, 5.0, 10)

    # small-q regime: the x^2 chirp is the entire first-order mismatch
    sups = []
    for q in (1e-2, 1e-3, 1e-4):
        traj = ReversingLinearWall(L0=100.0, q=q, T=4.0)
        ratio = reversal_mismatch_ratio(idx, traj, C, x)
        ratio0 = reversal_mismatch_ratio(idx, traj, C, 0.0)
        r = ratio / ratio0
        rem = (r - 1.0 - 1j * q * C.mass * x**2 / (C.hbar * 100.0)) / q**2
        sups.append(float(np.max(np.abs(rem))))
    bounded = all(s < 0.05 for s in sups) and max(sups) / min(sups) < 1.1

    # large-q regime: the same factor scatters modes into each other
    traj2 = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    L_h = traj2.half_length
    xg = np.linspace(-L_h / 2 + 0.1, L_h / 2 - 0.1, 20001)
    kernel = reversal_mismatch_ratio(idx, traj2, C, xg)
    kernel = kernel / reversal_mismatch_ratio(idx, traj2, C, 0.0)
    modes = [instantaneous_eigenstate(BasisIndex("even", n), L_h, xg)
             for n in range(8)]
    off_max = 0.0
    for a in range(8):
        for b in range(a + 1, 8):
            o = np.trapezoid(modes[a] * modes[b] * kernel, xg)
            off_max = max(off_max, abs(o))
    elapsed = time.perf_counter() - t0
    _report(capsys, 13, "reversal-mismatch-expansion",
            bounded and off_max > 1e-3,
            f"(ratio - 1 - iqmx^2/hL0)/q^2 sup {max(sups):.4f} (bounded, "
            f"q-spread {max(sups)/min(sups):.3f}), "
            f"max off-diagonal overlap {off_max:.3f} > 1e-3 at q = 2",
            elapsed, 5.0)


def test_14_single_wall_locality(capsys):
    t0 = time.perf_counter()
    gauss = GaussianParams(d=1.0, x0=50.0)
    moving = LinearWall(L0=100.0, q=2.0)
    static = LinearWall(L0=100.0, q=0.0)
    x = np.linspace(35.0, 65.0, 1201)
    worst = 0.0
    for t in (1.0, 5.0):
        rep = locality_compare(gauss, C, moving, static, t, x,
                               sector="single_wall")
        assert rep.verdict == "pass"
        worst = max(worst, rep.sup_error)
    elapsed = time.perf_counter() - t0
    _report(capsys, 14, "single-wall-locality", worst <= 1e-10,
            f"x0 = L0/2 in [0, L0], q in {{2, 0}}, worst sup {worst:.3e}, "
            f"tol 1e-10",
            elapsed, 2.0)


def test_15_static_box_revivals(capsys):
    # E_n T_rev / hbar = 2 pi n^2 in the symmetric box, so psi returns
    # exactly at T_rev = 4 m L^2 / (pi hbar), and at T_rev / 2 every mode
    # picks up (-1)^n, which mirrors the packet: |psi(T/2, x)| = |psi(0, -x)|
    t0 = time.perf_counter()
    L0 = 100.0
    static = LinearWall(L0=L0, q=0.0)
    t_rev = 4 * C.mass * L0**2 / (math.pi * C.hbar)
    x = np.linspace(-L0 / 2, L0 / 2, 2001)
    full = half = route = 0.0
    for gauss in (GaussianParams(d=1.0), GaussianParams(d=1.0, x0=10.0, p0=0.5)):
        psi0 = evolve_theta_general(gauss, static, C, 0.0, x)
        psi_rev = evolve_theta_general(gauss, static, C, t_rev, x)
        psi_half = evolve_theta_general(gauss, static, C, t_rev / 2, x)
        summed = evolve_sum(expansion_coefficients(gauss, static, C), static, C, t_rev, x)
        full = max(full, float(np.max(np.abs(psi_rev - psi0))))
        half = max(half, float(np.max(np.abs(np.abs(psi_half) - np.abs(psi0[::-1])))))
        route = max(route, float(np.max(np.abs(summed - psi_rev))))
    elapsed = time.perf_counter() - t0
    _report(capsys, 15, "static-box-revivals",
            full <= 1e-14 and half <= 1e-13 and route <= 1e-10,
            f"L0 = 100, centred and x0 = 10, p0 = 0.5: full {full:.1e} (tol 1e-14), "
            f"half {half:.1e} (tol 1e-13), sum route {route:.1e} (tol 1e-10)",
            elapsed, 2.0)


def test_16_wall_contact_onset(capsys):
    # what the walls add, sup |psi - psi_wall-free| summed over the pair,
    # bounds the difference of two evolutions that share their wall-free
    # part; across the onset of wall contact the verdict turns "warn"
    # exactly where that amplitude passes the tolerance
    t0 = time.perf_counter()
    tol, slack = 1e-10, 1e-14
    excess, points, warned, wrong = -math.inf, 0, 0, []
    for sector in ("symmetric", "single_wall"):
        for L0 in (20.0, 30.0):
            x0 = 0.0 if sector == "symmetric" else L0 / 2
            gauss = GaussianParams(d=1.0, x0=x0)
            x = np.linspace(x0 - 4.0, x0 + 4.0, 801)
            inner = SmoothPeriodicWall(L0=L0, q=0.1, omega=1.0)
            pairs = [(LinearWall(L0=L0, q=q), LinearWall(L0=L0, q=0.0))
                     for q in (-1.0, 0.5, 2.0)]
            pairs.append((ScaledWall(inner, 1.5), inner))
            for a, b in pairs:
                for t in np.linspace(0.5, 6.0, 12):
                    rep = locality_compare(gauss, C, a, b, t, x, tol=tol, sector=sector)
                    points += 1
                    excess = max(excess, rep.sup_error - rep.wall_amplitude)
                    warned += rep.verdict == "warn"
                    if (rep.verdict == "warn") != (rep.wall_amplitude > tol):
                        wrong.append((sector, L0, float(t), rep.verdict))
    elapsed = time.perf_counter() - t0
    _report(capsys, 16, "wall-contact-onset",
            excess <= slack and not wrong and 0 < warned < points,
            f"{points} points, both sectors, L0 in {{20, 30}}, t in [0.5, 6]: "
            f"max sup - wall_amplitude {excess:.1e} (slack {slack:g}), "
            f"{warned} warn, verdict mismatches {wrong}",
            elapsed, 5.0)
