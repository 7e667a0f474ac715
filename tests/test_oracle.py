import math
import warnings

import numpy as np
import pytest

from movingwell import oracle
from movingwell.basis import BasisIndex, basis_solution, transformed_basis_solution
from movingwell.core import (
    ConvergenceError,
    DomainError,
    GaussianParams,
    LinearWall,
    PhysicalConstants,
    ReversingLinearWall,
    SmoothPeriodicWall,
    WaveFunctionGrid,
)
from movingwell.oracle import (
    FrameMap,
    SolverSpec,
    StepSizeWarning,
    evolve_fixed_frame,
    from_fixed_frame,
    to_fixed_frame,
    unconfined_tdlo_propagate,
)
from movingwell.propagator import evolve_theta_general, initial_gaussian

C = PhysicalConstants()


def free_gaussian(d, t, x):
    s = 1.0 + 0.5j * C.hbar * t / (C.mass * d**2)
    return (2 * math.pi) ** (-0.25) / np.sqrt(d * s) * np.exp(-(x**2) / (4 * d**2 * s))


def l2(values, x):
    return math.sqrt(float(np.trapezoid(np.abs(values) ** 2, x)))


def test_frame_map_basics():
    fmap = FrameMap(traj=LinearWall(L0=100.0, q=2.0))
    assert fmap.L0 == 100.0
    assert fmap.scale(3.0) == pytest.approx(1.06, rel=1e-15)


def test_frame_round_trip_and_norm():
    traj = LinearWall(L0=20.0, q=1.5)
    fmap = FrameMap(traj=traj)
    t = 4.0
    L = traj.length(t)
    x = np.linspace(-L / 2, L / 2, 2001)
    psi = evolve_theta_general(GaussianParams(d=0.8), traj, C, t, x)
    grid = WaveFunctionGrid(positions=x, values=psi, time=t)
    fixed = to_fixed_frame(grid, fmap, t)
    assert fixed.positions[0] == pytest.approx(-10.0, rel=1e-14)
    assert fixed.norm == pytest.approx(grid.norm, rel=1e-13)
    back = from_fixed_frame(fixed, fmap, t)
    np.testing.assert_allclose(back.positions, x, rtol=1e-14)
    np.testing.assert_allclose(back.values, psi, rtol=0, atol=1e-14)


def test_to_fixed_frame_matches_transformed_solution():
    traj = SmoothPeriodicWall(L0=9.0, q=0.2, omega=1.3)
    fmap = FrameMap(traj=traj)
    idx = BasisIndex("odd", 2)
    t = 1.7
    s = fmap.scale(t)
    y = np.linspace(-4.5, 4.5, 1501)
    lab = WaveFunctionGrid(positions=y * s, values=basis_solution(idx, traj, C, t, y * s), time=t)
    fixed = to_fixed_frame(lab, fmap, t)
    ref = transformed_basis_solution(idx, traj, C, t, y)
    np.testing.assert_allclose(fixed.values, ref, rtol=0, atol=1e-12)
    # t=0 the map is the identity
    at0 = to_fixed_frame(
        WaveFunctionGrid(positions=y, values=basis_solution(idx, traj, C, 0.0, y), time=0.0),
        fmap,
        0.0,
    )
    np.testing.assert_allclose(at0.values, basis_solution(idx, traj, C, 0.0, y), atol=1e-15)


def test_static_box_eigenstate_evolution():
    # q=0: the solver must reproduce the e^{-iEt/hbar} phase with no shape
    # distortion; cos(ky) is an exact eigenvector of the discrete Laplacian
    L0 = 10.0
    lin = LinearWall(L0=L0, q=0.0)
    fmap = FrameMap(traj=lin)
    N = 1024
    y = np.linspace(-L0 / 2, L0 / 2, N + 1)
    idx = BasisIndex("even", 0)
    g0 = WaveFunctionGrid(positions=y, values=basis_solution(idx, lin, C, 0.0, y), time=0.0)
    out = evolve_fixed_frame(g0, fmap, SolverSpec(n_points=N, dt=1e-3), 0.5, C)
    exact = basis_solution(idx, lin, C, 0.5, y)
    overlap = np.trapezoid(np.conj(exact) * out.values, y)
    assert abs(overlap) > 1.0 - 1e-10
    assert abs(np.angle(overlap)) < 1e-6
    assert out.norm == pytest.approx(1.0, abs=1e-8)


def run_fixed_frame_error(N, dt, t=2.0):
    gauss = GaussianParams(d=1.0)
    traj = LinearWall(L0=100.0, q=2.0)
    fmap = FrameMap(traj=traj)
    y = np.linspace(-50.0, 50.0, N + 1)
    g0 = WaveFunctionGrid(positions=y, values=initial_gaussian(gauss, C, y), time=0.0)
    out = evolve_fixed_frame(g0, fmap, SolverSpec(n_points=N, dt=dt), t, C)
    s = fmap.scale(t)
    lab = WaveFunctionGrid(positions=y * s, values=evolve_theta_general(gauss, traj, C, t, y * s), time=t)
    ref = to_fixed_frame(lab, fmap, t)
    return l2(out.values - ref.values, y) / l2(ref.values, y)


def test_fixed_frame_second_order_convergence():
    # halve dx and dt together: error against the theta route must fall ~4x
    e1 = run_fixed_frame_error(1024, 1e-3)
    e2 = run_fixed_frame_error(2048, 5e-4)
    assert e2 < 1.5e-4
    assert 3.5 < e1 / e2 < 4.5


def test_fixed_frame_validation():
    traj = LinearWall(L0=10.0, q=1.0)
    fmap = FrameMap(traj=traj)
    y = np.linspace(-5.0, 5.0, 257)
    good = WaveFunctionGrid(positions=y, values=initial_gaussian(GaussianParams(d=0.5), C, y), time=0.0)
    with pytest.raises(DomainError):  # grid/spec point count mismatch
        evolve_fixed_frame(good, fmap, SolverSpec(n_points=512, dt=1e-3), 1.0, C)
    with pytest.raises(DomainError):  # t_final not a multiple of dt
        evolve_fixed_frame(good, fmap, SolverSpec(n_points=256, dt=1e-3), 0.00055, C)
    with pytest.raises(DomainError):  # state labelled at the wrong time
        late = WaveFunctionGrid(positions=y, values=good.values, time=1.0)
        evolve_fixed_frame(late, fmap, SolverSpec(n_points=256, dt=1e-3), 1.0, C)
    with pytest.raises(DomainError):  # does not vanish at the walls
        flat = WaveFunctionGrid(positions=y, values=np.ones_like(y, dtype=complex), time=0.0)
        evolve_fixed_frame(flat, fmap, SolverSpec(n_points=256, dt=1e-3), 1.0, C)
    with pytest.raises(DomainError):
        zero = WaveFunctionGrid(positions=y, values=np.zeros_like(y, dtype=complex), time=0.0)
        evolve_fixed_frame(zero, fmap, SolverSpec(n_points=256, dt=1e-3), 1.0, C)


def test_step_size_warning():
    traj = LinearWall(L0=100.0, q=0.0)
    fmap = FrameMap(traj=traj)
    N = 1024
    y = np.linspace(-50.0, 50.0, N + 1)
    g0 = WaveFunctionGrid(positions=y, values=initial_gaussian(GaussianParams(d=1.0), C, y), time=0.0)
    with pytest.warns(StepSizeWarning):
        evolve_fixed_frame(g0, fmap, SolverSpec(n_points=N, dt=0.3), 0.6, C)


@pytest.mark.parametrize("n_points, warns", [(256, True), (512, True), (1024, False)])
def test_unresolved_wall_chirp_warns_once(n_points, warns):
    # a breathing single wall whose chirp m L L' y / (hbar L0^2) reaches
    # 1.41, 0.71 and 0.35 rad per cell at y = L0 on these grids; the runs
    # end 1.42, 1.60 and 1.16 (relative L2) away from the theta form
    gauss = GaussianParams(d=1.77, x0=29.8, p0=-0.70)
    traj = SmoothPeriodicWall(L0=50.3, q=0.143, omega=1.68)
    fmap = FrameMap(traj=traj)
    y = np.linspace(0.0, fmap.L0, n_points + 1)
    g0 = WaveFunctionGrid(positions=y, values=initial_gaussian(gauss, C, y), time=0.0)
    spec = SolverSpec(n_points=n_points, dt=3.3 / (200 * n_points // 256))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        evolve_fixed_frame(g0, fmap, spec, 3.3, C)
    chirp = [w for w in record if "chirp" in str(w.message)]
    assert len(chirp) == int(warns)
    assert all(w.category is StepSizeWarning for w in chirp)


def test_shipped_oracle_wall_is_chirp_resolved():
    # configs/oracle.cfg: L0 = 100, q = 2 to t = 2 on 4,096 cells, 0.025 rad
    # per cell at the end; a coarse dt keeps the run short and may earn the
    # kinetic-phase warning, never the chirp one
    traj = LinearWall(L0=100.0, q=2.0)
    fmap = FrameMap(traj=traj)
    y = np.linspace(-50.0, 50.0, 4097)
    g0 = WaveFunctionGrid(positions=y, values=initial_gaussian(GaussianParams(d=1.0), C, y), time=0.0)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        evolve_fixed_frame(g0, fmap, SolverSpec(n_points=4096, dt=0.05), 2.0, C)
    assert not [w for w in record if "chirp" in str(w.message)]


def test_solver_spec_validation():
    with pytest.raises(DomainError):
        SolverSpec(n_points=1000)  # not a power of two
    with pytest.raises(DomainError):
        SolverSpec(n_points=4)
    with pytest.raises(DomainError):
        SolverSpec(dt=0.0)
    with pytest.raises(DomainError):
        SolverSpec(x_min=-3.0)  # bound without its partner
    with pytest.raises(DomainError):
        SolverSpec(x_min=3.0, x_max=-3.0)


def test_unconfined_free_spreading():
    # constant wall speed means no compensating potential: the packet must
    # spread exactly like a free Gaussian
    gauss = GaussianParams(d=1.0)
    traj = LinearWall(L0=100.0, q=2.0)
    spec = SolverSpec(n_points=8192, dt=2e-4, x_min=-16.0, x_max=16.0)
    out = unconfined_tdlo_propagate(gauss, traj, spec, 1.0, C)
    ref = free_gaussian(1.0, 1.0, out.positions)
    assert l2(out.values - ref, out.positions) < 1e-6


def test_unconfined_second_order_convergence():
    gauss = GaussianParams(d=1.0)
    traj = LinearWall(L0=100.0, q=2.0)
    errs = []
    for N, dt in ((2048, 5e-4), (4096, 2.5e-4)):
        spec = SolverSpec(n_points=N, dt=dt, x_min=-24.0, x_max=24.0)
        out = unconfined_tdlo_propagate(gauss, traj, spec, 1.0, C)
        ref = free_gaussian(1.0, 1.0, out.positions)
        errs.append(l2(out.values - ref, out.positions))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_unconfined_edge_contamination_aborts():
    gauss = GaussianParams(d=1.0)
    traj = LinearWall(L0=100.0, q=0.0)
    spec = SolverSpec(n_points=1024, dt=1e-3, x_min=-12.0, x_max=12.0)
    with pytest.raises(ConvergenceError):
        unconfined_tdlo_propagate(gauss, traj, spec, 4.0, C)


def test_unconfined_validation():
    gauss = GaussianParams(d=1.0)
    traj = LinearWall(L0=100.0, q=0.0)
    with pytest.raises(DomainError):  # no domain bounds
        unconfined_tdlo_propagate(gauss, traj, SolverSpec(n_points=1024, dt=1e-3), 1.0, C)
    with pytest.raises(DomainError):  # Gaussian already touches the box
        spec = SolverSpec(n_points=1024, dt=1e-3, x_min=-6.0, x_max=6.0)
        unconfined_tdlo_propagate(gauss, traj, spec, 1.0, C)


def capture_cn_calls(monkeypatch):
    """Record the arguments of every _cn_engine call, then run it as usual."""
    calls = []
    real = oracle._cn_engine

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "_cn_engine", spy)
    return calls


def documented_bands(y, L0, frame, constants):
    """Bands written out from ``_cn_engine``'s docstring.

    ``tridiag_at(t_mid)`` gives (diag, upper, lower) of H(t) on the interior
    of y: s^2 K + (m/2)(Omega^2/s^2) y^2 + (L'/L) D with s = L0/L, the
    symmetrized dilation term adding +-i (hbar L'/4 L dy)(y_j + y_{j+1})
    above and below the diagonal.  ``tridiag_at(t_mid, h)`` gives those of
    A = 1 + a H, a = i h/2 hbar, with a folded into the scalar coefficients
    as the docstring writes them."""
    hbar, m = constants.hbar, constants.mass
    dy = y[1] - y[0]
    yi = y[1:-1]
    kin = hbar**2 / (m * dy**2)

    def tridiag_at(t_mid, h=None):
        L, lp, w2 = frame(t_mid)
        s2 = (L0 / L) ** 2
        if h is None:
            diag = kin * s2 + (0.5 * m * w2 / s2) * (yi * yi)
            off = -0.5 * kin * s2
            drift = (hbar * lp / (4.0 * L * dy)) * (yi[:-1] + yi[1:])
            return diag, off + 1j * drift, off - 1j * drift
        a = 0.5j * h / hbar
        diag = (yi * yi) * (a * (0.5 * m * w2 / s2)) + (1.0 + a * (kin * s2))
        off = a * (-0.5 * kin * s2)
        drift = (yi[:-1] + yi[1:]) * (h * lp / (8.0 * L * dy))
        return diag, off - drift, off + drift

    return tridiag_at


def substeps(dt, n_steps, turn=math.inf):
    """(t_mid, h) of every Crank-Nicolson solve: one per step of dt, two
    for the step a turn falls in."""
    for k in range(n_steps):
        if k * dt < turn < (k + 1) * dt:
            yield 0.5 * (k * dt + turn), turn - k * dt
            yield 0.5 * (turn + (k + 1) * dt), (k + 1) * dt - turn
        else:
            yield (k + 0.5) * dt, dt


def solve_banded_reference(psi, dt, n_steps, tridiag_at):
    """Crank-Nicolson in Cayley's form written with scipy's solve_banded:
    A chi = 2 psi, then psi <- chi - psi."""
    from scipy.linalg import solve_banded

    ab = np.zeros((3, psi.size), dtype=complex)
    for t_mid, h in substeps(dt, n_steps):
        diag, up, lo = tridiag_at(t_mid, h)
        ab[0, 1:] = up
        ab[1, :] = diag
        ab[2, :-1] = lo
        psi = solve_banded((1, 1), ab, psi + psi) - psi
    return psi


def two_sided_reference(psi, dt, n_steps, hbar, tridiag_at, turn=math.inf):
    """The two-sided Crank-Nicolson loop written with scipy's solve_banded:
    (1 + a H) psi_new = (1 - a H) psi, the right-hand side a band product."""
    from scipy.linalg import solve_banded

    ab = np.zeros((3, psi.size), dtype=complex)
    for t_mid, h in substeps(dt, n_steps, turn):
        diag, up, lo = tridiag_at(t_mid)
        half = 0.5j * h / hbar
        rhs = psi - half * diag * psi
        rhs[:-1] -= half * up * psi[1:]
        rhs[1:] -= half * lo * psi[:-1]
        ab[0, 1:] = half * up
        ab[1, :] = 1.0 + half * diag
        ab[2, :-1] = half * lo
        psi = solve_banded((1, 1), ab, rhs)
    return psi


def test_cn_step_is_bit_identical_to_solve_banded(monkeypatch):
    # breathing wall: a time-dependent diagonal (tdlo potential) and complex
    # off-diagonals that differ above and below (the dilation term)
    calls = capture_cn_calls(monkeypatch)
    traj = SmoothPeriodicWall(L0=10.0, q=0.2, omega=1.3)
    N = 64
    y = np.linspace(-5.0, 5.0, N + 1)
    g0 = WaveFunctionGrid(positions=y, values=initial_gaussian(GaussianParams(d=0.5), C, y), time=0.0)
    out = evolve_fixed_frame(g0, FrameMap(traj=traj), SolverSpec(n_points=N, dt=2e-3), 0.6, C)
    (y_run, vals, L0, frame, dt, n_steps, constants), _ = calls[0]
    assert n_steps == 300 and L0 == 10.0
    assert frame(0.3) == (traj.length(0.3), traj.velocity(0.3), traj.omega_squared(0.3))
    bands = documented_bands(y_run, L0, frame, constants)
    ref = solve_banded_reference(vals[1:-1].astype(complex), dt, n_steps, bands)
    assert np.array_equal(out.values[1:-1], ref)


def test_unconfined_run_is_the_fixed_frame_at_rest(monkeypatch):
    # the static box: L = L0 = 1 and L' = 0 at every step, Omega^2 from the
    # wall, and the same bands as the fixed frame bit for bit
    calls = capture_cn_calls(monkeypatch)
    traj = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    spec = SolverSpec(n_points=256, dt=1e-2, x_min=-12.0, x_max=12.0)
    out = unconfined_tdlo_propagate(GaussianParams(d=1.0, p0=0.4), traj, spec, 0.5, C)
    (x, vals, L0, frame, dt, n_steps, constants), _ = calls[0]
    assert L0 == 1.0 and n_steps == 50
    assert frame(0.3) == (1.0, 0.0, traj.omega_squared(0.3))
    bands = documented_bands(x, L0, frame, constants)
    ref = solve_banded_reference(vals[1:-1].astype(complex), dt, n_steps, bands)
    assert np.array_equal(out.values[1:-1], ref)


#: the Cayley step against the two-sided loop, relative to the peak
#: (measured 3.11e-14 over 1,500 draws of ``cayley_draw``: 6.1e-15 on
#: breathing walls, 7.2e-15 on reversing walls, 3.1e-14 on the static box)
CAYLEY_TOL = 6e-14


def cayley_draw(i):
    """Draw i of the cross-check: a breathing wall, a reversing wall whose
    turn falls inside a step, or the unconfined static box, in turn.  The
    unconfined box takes the breathing wall's Omega^2 for draws 0-2, a
    uniformly moving wall's zero for 3-5, and so on."""
    rng = np.random.default_rng(i)
    kind = ("breathing", "reversing", "unconfined")[i % 3]
    curved = (i // 3) % 2 == 0
    n = int(rng.choice([64, 128, 256]))
    steps = int(rng.integers(40, 160))
    gauss = GaussianParams(d=0.6 + 0.6 * rng.random(), x0=rng.uniform(-1, 1), p0=rng.uniform(-1, 1))
    if kind == "unconfined":
        q, omega = rng.uniform(0.02, 0.3), rng.uniform(0.5, 2.0)
        traj = SmoothPeriodicWall(L0=100.0, q=q, omega=omega) if curved else LinearWall(100.0, q)
        t = rng.uniform(0.2, 1.0)
        spec = SolverSpec(n_points=n, dt=t / steps, x_min=-15.0, x_max=15.0)
        return kind, lambda: unconfined_tdlo_propagate(gauss, traj, spec, t, C)
    L0 = rng.uniform(24.0, 40.0)
    if kind == "breathing":
        traj = SmoothPeriodicWall(L0=L0, q=rng.uniform(0.02, 0.3), omega=rng.uniform(0.5, 2.0))
        t = rng.uniform(0.2, 1.5)
    else:
        turn = rng.uniform(0.2, 1.0)
        traj = ReversingLinearWall(L0=L0, q=rng.uniform(-2.0, 3.0), T=2.0 * turn)
        t = turn * (1.0 + rng.uniform(0.05, 0.9))
    y = np.linspace(-L0 / 2, L0 / 2, n + 1)
    g0 = WaveFunctionGrid(positions=y, values=initial_gaussian(gauss, C, y), time=0.0)
    spec = SolverSpec(n_points=n, dt=t / steps)
    return kind, lambda: evolve_fixed_frame(g0, FrameMap(traj=traj), spec, t, C)


def test_cayley_step_matches_the_two_sided_loop(monkeypatch):
    # psi <- 2 A^{-1} psi - psi against A^{-1} (2 - A) psi with its band
    # product, on the same documented bands: the two agree to rounding on
    # every route into the engine, a turn split and the dilation term included
    calls = capture_cn_calls(monkeypatch)
    seen = set()
    for i in range(60):
        kind, run = cayley_draw(i)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            out = run()
        (y, vals, L0, frame, dt, n_steps, constants), kw = calls[-1]
        turn = kw.get("turn", math.inf)
        if kind == "reversing":
            assert 0 < turn / dt % 1 < 1 and turn < n_steps * dt
        bands = documented_bands(y, L0, frame, constants)
        ref = two_sided_reference(vals[1:-1].astype(complex), dt, n_steps, C.hbar, bands, turn)
        err = float(np.max(np.abs(out.values[1:-1] - ref)) / np.max(np.abs(ref)))
        assert err <= CAYLEY_TOL, (i, kind, err)
        _, lp, w2 = frame(0.5 * dt)
        seen.add((kind, w2 != 0.0, lp != 0.0))
    # (route, tdlo term, dilation term): a reversing wall has Omega^2 = 0
    # on both legs, the static box has L' = 0
    assert seen == {("breathing", True, True), ("reversing", False, True),
                    ("unconfined", True, False), ("unconfined", False, False)}


def small_system(n=16):
    """A grid with n interior points at unit spacing (hbar = m = 1 in C) and
    a Gaussian that vanishes at its walls."""
    y = np.arange(n + 2, dtype=float) - (n + 1) / 2
    vals = np.exp(-(y**2) / 4.0).astype(complex)
    vals[[0, -1]] = 0.0
    return y, vals


def at_rest(t):
    return (1.0, 0.0, 0.0)


def test_cn_splits_the_step_the_turn_falls_in():
    # the turn at 0.6 falls in the step [0.5, 0.75], which runs as two CN
    # sub-steps, each reading the frame at its own midpoint; the other
    # steps keep theirs, and a turn on a step boundary splits nothing
    y, vals = small_system()
    seen = []

    def frame(t_mid):
        seen.append(t_mid)
        return (1.0, 0.03 if t_mid < 0.6 else -0.03, 0.0)

    split = oracle._cn_engine(y, vals, 1.0, frame, 0.25, 4, C, turn=0.6)
    assert seen == pytest.approx([0.125, 0.375, 0.55, 0.675, 0.875], abs=1e-15)
    psi = vals
    for start, h, n in ((0.0, 0.25, 2), (0.5, 0.1, 1), (0.6, 0.15, 1), (0.75, 0.25, 1)):
        psi = oracle._cn_engine(y, psi, 1.0, lambda t: frame(start + t), h, n, C)
    assert np.max(np.abs(split - psi)) < 1e-14
    seen.clear()
    oracle._cn_engine(y, vals, 1.0, frame, 0.25, 4, C, turn=0.5)
    assert seen == [0.125, 0.375, 0.625, 0.875]


@pytest.mark.parametrize("entry", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cn_non_finite_band_raises(entry, bad):
    # a non-finite L (all bands), L' (off-diagonals) or Omega^2 (diagonal);
    # numpy scalars, so that L = inf divides to inf/NaN in the bands
    y, vals = small_system()

    def frame(t_mid):
        values = [np.float64(v) for v in at_rest(t_mid)]
        if t_mid > 0.02:  # from the third step on
            values[entry] = np.float64(bad)
        return tuple(values)

    with pytest.raises(ConvergenceError, match="non-finite .* at step 3"), \
            np.errstate(invalid="ignore", divide="ignore"):
        oracle._cn_engine(y, vals, 1.0, frame, 0.01, 10, C)


def test_cn_frame_out_of_range_raises():
    # a plain-float L whose s^2 = (L0/L)^2 underflows to 0: the step raises
    # ConvergenceError, not ZeroDivisionError from Omega^2 / s^2
    y, vals = small_system()

    def frame(t_mid):
        return (1.0 if t_mid < 0.01 else 1e300, 0.0, 1.0)

    with pytest.raises(ConvergenceError, match=r"non-finite .* frame at step 2: .*\(L0/L\)\^2"):
        oracle._cn_engine(y, vals, 1.0, frame, 0.01, 10, C)


def test_cn_non_finite_state_raises():
    y, vals = small_system()
    vals[5] = math.nan
    with pytest.raises(ConvergenceError, match="at step 1"), np.errstate(invalid="ignore"):
        oracle._cn_engine(y, vals, 1.0, at_rest, 0.01, 10, C)


def test_cn_singular_system_raises():
    # two interior points at y = +-1/2 with dy = dt = hbar = m = 1: the
    # complex Omega^2 = -4 + 16i puts 1/2 + 2i on the diagonal, so
    # 1 + (i/2) H = (i/4) [[1, -1], [-1, 1]], exactly singular
    y = np.array([-1.5, -0.5, 0.5, 1.5])
    vals = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex)
    with pytest.raises(ConvergenceError, match="singular .* at step 1"):
        oracle._cn_engine(y, vals, 1.0, lambda t: (1.0, 0.0, -4.0 + 16.0j), 1.0, 3, C)


def test_cn_norm_gate_fails_on_nan_drift():
    # finite amplitudes whose squares overflow: both norms are inf and the
    # drift inf - inf is NaN, which must not pass the gate
    y, vals = small_system()
    vals *= 1e160
    with pytest.raises(ConvergenceError, match="norm drifted by nan"), \
            np.errstate(over="ignore", invalid="ignore"):
        oracle._cn_engine(y, vals, 1.0, at_rest, 0.01, 4, C)


def test_unconfined_edge_gate_fails_on_nan(monkeypatch):
    calls = capture_cn_calls(monkeypatch)
    spec = SolverSpec(n_points=256, dt=1e-2, x_min=-12.0, x_max=12.0)
    unconfined_tdlo_propagate(GaussianParams(d=1.0), LinearWall(L0=100.0, q=0.0), spec, 0.1, C)
    edge_check = calls[0][1]["edge_check"]
    state = np.zeros(255, dtype=complex)
    state[100] = 1.0
    edge_check(state, 0.1)  # a clean state passes
    state[-1] = math.nan
    with pytest.raises(ConvergenceError, match="artificial box edge"):
        edge_check(state, 0.1)
