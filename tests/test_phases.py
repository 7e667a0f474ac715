import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from movingwell import basis, phases
from movingwell.basis import (
    BasisIndex,
    _box_interval,
    _box_of,
    _level_index,
    _solution_and_second_derivative,
    basis_solution,
)
from movingwell.config import ScenarioConfig, parse_config
from movingwell.core import (
    ConvergenceError,
    DomainError,
    LinearWall,
    PhysicalConstants,
    ReversingLinearWall,
    ScaledWall,
    SmoothPeriodicWall,
)
from movingwell.phases import (
    PhaseDecomposition,
    dynamical_phase,
    energy_expectation,
    fig_mode_phases,
    geometric_phase,
    phase_decomposition,
    total_phase,
    wall_action_integral,
)

C = PhysicalConstants()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# one breathing cycle of the reference box, frozen against independent
# quadrature of the action integrand
REF_WALL = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
GAMMA0 = 2.8655985682520457
ACTION0 = 175.4121898332376
GROUND = BasisIndex("even", 0)


def by_parts_action(traj, T):
    # integral (L'^2 - L L'') dt == 2 integral L'^2 dt - [L L']_0^T,
    # an identity that holds across velocity jumps as well
    part, _ = quad(lambda s: traj.velocity(s) ** 2, 0.0, T, limit=200)
    boundary = traj.length(T) * traj.velocity(T) - traj.length(0.0) * traj.velocity(0.0)
    return 2.0 * part - boundary


def test_wall_action_closed_vs_quadrature():
    T = REF_WALL.period
    closed = wall_action_integral(REF_WALL)
    direct, err = quad(
        lambda s: REF_WALL.velocity(s) ** 2 - REF_WALL.length(s) * REF_WALL.acceleration(s),
        0.0,
        T,
        limit=200,
    )
    assert err < 1e-7
    assert closed == pytest.approx(direct, rel=1e-10)
    assert closed == pytest.approx(by_parts_action(REF_WALL, T), rel=1e-10)
    assert closed == pytest.approx(ACTION0, rel=1e-13)


def test_wall_action_multiple_cycles_and_partial():
    T = REF_WALL.period
    assert wall_action_integral(REF_WALL, 3 * T) == pytest.approx(
        3 * wall_action_integral(REF_WALL, T), rel=1e-12
    )
    # off-period window goes through adaptive quadrature
    partial = wall_action_integral(REF_WALL, 0.77 * T)
    assert partial == pytest.approx(by_parts_action(REF_WALL, 0.77 * T), rel=1e-9)


def test_wall_action_linear_and_scaled():
    lin = LinearWall(L0=6.0, q=0.5)
    assert wall_action_integral(lin, 3.0) == pytest.approx(0.25 * 3.0, rel=1e-14)
    sc = ScaledWall(inner=REF_WALL, k=3.0)
    assert wall_action_integral(sc) == pytest.approx(9.0 * ACTION0, rel=1e-12)


def test_wall_action_reversing_includes_velocity_jump():
    # pointwise quadrature would miss the impulsive -L L'' contribution;
    # the by-parts identity keeps it
    rev = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    got = wall_action_integral(rev, 4.0)
    assert got == pytest.approx(2.0 * rev.q**2 * rev.T + 2.0 * rev.q * rev.L0, rel=1e-14)
    half = wall_action_integral(rev, 1.5)
    assert half == pytest.approx(rev.q**2 * 1.5, rel=1e-14)


def test_wall_action_validation():
    with pytest.raises(DomainError):
        wall_action_integral(LinearWall(L0=5.0, q=0.1))  # no period, no T
    with pytest.raises(DomainError):
        wall_action_integral(REF_WALL, -1.0)


def test_total_phase_frozen():
    T = REF_WALL.period
    mu = total_phase(GROUND, REF_WALL, C, T)
    assert mu == pytest.approx(math.pi**3 / 11000.0, rel=1e-14)
    # clock scales with nu^2
    mu5 = total_phase(BasisIndex("even", 2), REF_WALL, C, T)
    assert mu5 == pytest.approx(25.0 * mu, rel=1e-13)


def test_energy_expectation_against_grid_quadrature():
    traj = SmoothPeriodicWall(L0=5.0, q=0.1, omega=1.0)
    idx = BasisIndex("even", 1)
    t = 0.7
    L = traj.length(t)
    x = np.linspace(-L / 2, L / 2, 40001)
    psi = basis_solution(idx, traj, C, t, x)
    dx = x[1] - x[0]
    psi_xx = np.gradient(np.gradient(psi, dx), dx)
    v = 0.5 * C.mass * traj.omega_squared(t) * x**2
    ham = -C.hbar**2 / (2.0 * C.mass) * psi_xx + v * psi
    ref = np.trapezoid((np.conj(psi) * ham).real, x)
    assert energy_expectation(idx, traj, C, t) == pytest.approx(ref, rel=1e-6)


def test_energy_expectation_at_rest_instant():
    # breathing wall at t=0: L'=0 and the curvature term is
    # -L L'' = Omega^2(0) L0^2 with Omega^2(0) = -1/22 for q=0.1
    val = energy_expectation(GROUND, REF_WALL, C, 0.0)
    level = math.pi**2 / (2.0 * 100.0**2)
    shape = 1.0 - 6.0 / math.pi**2
    assert val == pytest.approx(level + shape / 24.0 * (-1.0 / 22.0) * 100.0**2, rel=1e-13)


def test_dynamical_phase_static_wall():
    lin = LinearWall(L0=3.0, q=0.0)
    d1 = dynamical_phase(GROUND, lin, C, T=2.0)
    assert d1 == pytest.approx(-math.pi**2 / 9.0, rel=1e-12)
    d4 = dynamical_phase(BasisIndex("odd", 2), lin, C, T=2.0)
    assert d4 == pytest.approx(16.0 * d1, rel=1e-12)


def test_phase_decomposition_closes():
    # quadrature delta against the two closed-form pieces: the geometric
    # remainder -(mu + delta) must match the action formula
    T = REF_WALL.period
    for idx in (GROUND, BasisIndex("odd", 1)):
        mu = total_phase(idx, REF_WALL, C, T)
        delta = dynamical_phase(idx, REF_WALL, C, T)
        gamma = geometric_phase(idx, REF_WALL, C, T)
        assert abs(mu + delta + gamma) < 1e-9
        dec = phase_decomposition(idx, REF_WALL, C, T)
        assert isinstance(dec, PhaseDecomposition)
        assert dec.mu == mu
        assert dec.gamma == pytest.approx(gamma, abs=1e-9)
        assert 0.0 <= dec.gamma_mod_2pi < 2.0 * math.pi
        assert dec.gamma_mod_2pi == pytest.approx(dec.gamma % (2 * math.pi), rel=1e-12)


def test_geometric_phase_frozen_and_box_scaling():
    assert geometric_phase(GROUND, REF_WALL, C) == pytest.approx(GAMMA0, rel=1e-13)
    for L0, factor in ((400.0, 16.0), (800.0, 64.0), (1000.0, 100.0)):
        big = SmoothPeriodicWall(L0=L0, q=0.1, omega=1.0)
        assert geometric_phase(GROUND, big, C) == pytest.approx(factor * GAMMA0, rel=1e-12)
    sc = ScaledWall(inner=REF_WALL, k=3.0)
    assert geometric_phase(GROUND, sc, C) == pytest.approx(9.0 * GAMMA0, rel=1e-12)


def test_geometric_phase_mode_dependence():
    # gamma saturates as nu grows: the nu-dependent factor is 1 - 6/(pi nu)^2
    plateau = GAMMA0 / (1.0 - 6.0 / math.pi**2)
    g7 = geometric_phase(BasisIndex("even", 3), REF_WALL, C)
    assert g7 == pytest.approx(plateau * (1.0 - 6.0 / (49.0 * math.pi**2)), rel=1e-12)
    # and carries m/hbar
    heavy = PhysicalConstants(hbar=2.0, mass=3.0)
    assert geometric_phase(GROUND, REF_WALL, heavy) == pytest.approx(
        1.5 * GAMMA0, rel=1e-12
    )


def test_geometric_phase_requires_cyclic():
    with pytest.raises(DomainError):
        geometric_phase(GROUND, REF_WALL, C, 0.4 * REF_WALL.period)
    rev = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    with pytest.raises(DomainError):
        geometric_phase(GROUND, rev, C, 4.0)  # L' does not return
    with pytest.raises(DomainError):
        phase_decomposition(GROUND, rev, C, 4.0)
    # static wall is cyclic over any window and accrues no geometric phase
    assert geometric_phase(GROUND, LinearWall(L0=3.0, q=0.0), C, 5.0) == 0.0


def test_dynamical_phase_stops_at_its_ceiling(monkeypatch):
    # thirty breathing periods need 1,024 time nodes; with the ceiling
    # lowered to one doubling the resolutions never agree
    T = 30 * REF_WALL.period
    monkeypatch.setattr(phases, "MAX_NODES", 512)
    with pytest.raises(ConvergenceError, match="at 512 time and 1024 space nodes, "
                       "the ceiling of 2 MAX_NODES = 1024"):
        dynamical_phase(GROUND, REF_WALL, C, T)


def _breathing_sweep():
    """Derandomized breathing walls over 1-3 periods, several levels each."""
    rng = np.random.default_rng(23)
    for _ in range(16):
        wall = SmoothPeriodicWall(
            L0=float(rng.uniform(5.0, 400.0)), q=float(rng.uniform(0.02, 0.4)),
            omega=float(rng.uniform(0.3, 3.0)),
        )
        periods = int(rng.integers(1, 4))
        for nu in (1, 2, 5, 12):
            yield _level_index(nu), wall, periods * wall.period
    cfg = ScenarioConfig(parse_config(CONFIGS / "phase.cfg"))
    wall = SmoothPeriodicWall(L0=cfg.get_float("trajectory.L0"), q=cfg.get_float("trajectory.q"),
                              omega=cfg.get_float("trajectory.omega"))
    for n in range(cfg.get_int("phase.n_max") + 1):
        yield _level_index(n + 1), wall, wall.period
    # two long spans that 256/512 nodes leave unconverged
    yield GROUND, wall, 30 * wall.period
    fast = SmoothPeriodicWall(L0=100.0, q=0.3, omega=3.0)
    yield GROUND, fast, 20 * fast.period


def test_dynamical_phase_keeps_the_single_check_where_it_passes():
    # where 256/512 and 512/1,024 nodes agree, the value is the finer one
    # bit for bit; elsewhere it is the finer sum of the first pair that agrees
    agreed = 0
    for idx, wall, T in _breathing_sweep():
        coarse, fine = (phases._delta_at(idx, wall, C, T, nt, 2 * nt) for nt in (256, 512))
        delta = dynamical_phase(idx, wall, C, T)
        if abs(coarse - fine) / max(abs(coarse), abs(fine), 1e-30) <= 1e-9:
            agreed += 1
            assert delta == fine, (idx, wall, T)
        else:
            assert delta == phases._delta_at(idx, wall, C, T, 1024, 2048), (idx, wall, T)
    assert agreed == 75


@pytest.mark.parametrize("nu", [1, 7, 20])
def test_dynamical_phase_sums_each_leg_of_a_turning_wall(nu):
    # L has a kink at the turn; summed on each leg, the first doubling
    # agrees, and delta is the per-leg closed form: L is linear on a leg, so
    # integral dt / L^2 over it is (b - a) / (L(a) L(b))
    wall, T, idx = ReversingLinearWall(L0=40.0, q=1.0, T=20.0), 20.0, _level_index(nu)
    coarse, fine = (phases._delta_at(idx, wall, C, T, nt, 2 * nt) for nt in (256, 512))
    assert abs(coarse - fine) <= 1e-9 * abs(fine)
    assert dynamical_phase(idx, wall, C, T) == fine
    level = (math.pi * nu * C.hbar) ** 2 / (2.0 * C.mass) * T / (wall.L0 * wall.half_length)
    motion = C.mass / 24.0 * (1.0 - 6.0 / (math.pi * nu) ** 2) * wall.q**2 * T
    assert fine == pytest.approx(-(level + motion) / C.hbar, rel=1e-12, abs=0.0)


def _h_reference(idx, traj, t, x):
    """Re psi* H psi from the analytic psi'' in complex arithmetic."""
    psi, psi_xx = _solution_and_second_derivative(idx, traj, C, t, x)
    v = 0.5 * C.mass * traj.omega_squared(t) * x**2
    return (np.conj(psi) * (-(C.hbar**2) / (2.0 * C.mass) * psi_xx + v * psi)).real


def _per_node_delta(idx, traj, T, time_nodes, space_nodes):
    """``phases._delta_at``, one <H> quadrature per time node, the time rule
    applied on each leg of a wall that turns inside (0, T)."""
    base_t, w_t = phases._cc_rule(time_nodes)
    base_x, w_x = phases._cc_rule(space_nodes)
    legs = [(0.0, traj.turn), (traj.turn, T)] if 0.0 < traj.turn < T else [(0.0, T)]
    total = 0.0
    for a, b in legs:
        vals = []
        for t in a + 0.5 * (b - a) * (base_t + 1.0):
            lo, hi = _box_interval(traj.length(t), _box_of(idx))
            scale = 0.5 * (hi - lo)
            x = scale * base_x + 0.5 * (hi + lo)
            vals.append(scale * float(np.sum(w_x * _h_reference(idx, traj, t, x))))
        total += 0.5 * (b - a) * float(np.sum(w_t * np.array(vals)))
    return -total / C.hbar


REV_WALL = ReversingLinearWall(L0=20.0, q=1.5, T=4.0)


@pytest.mark.parametrize(
    "idx, traj, times",
    [
        (BasisIndex("even", 3), REF_WALL, (0.3, 2.9, 5.7)),
        (BasisIndex("odd", 2), ScaledWall(inner=REF_WALL, k=0.1), (1.1, 4.4)),
        # both legs of the reversing wall, its contraction clock restarted
        (BasisIndex("even", 1), REV_WALL, (0.7, 1.9, 2.0, 3.3)),
        (BasisIndex("single_wall", 4), REV_WALL, (0.2, 3.8)),
        (BasisIndex("single_wall", 2), LinearWall(L0=7.0, q=0.4), (0.5, 9.0)),
    ],
)
def test_h_rows_are_the_box_sum_of_re_psi_h_psi(idx, traj, times):
    # the factored row, two space moments per mode, against the same
    # Clenshaw-Curtis sum of Re psi* H psi from the complex solution
    nx = 257
    u, w_x = phases._cc_rule(nx)
    L, v, w2 = (np.array([f(t) for t in times])
                for f in (traj.length, traj.velocity, traj.omega_squared))
    rows = phases._h_rows(idx, C, L, v, w2, nx)
    assert rows.shape == (len(times),)
    for t, row in zip(times, rows):
        lo, hi = _box_interval(traj.length(t), _box_of(idx))
        scale = 0.5 * (hi - lo)
        x = scale * u + 0.5 * (hi + lo)
        ref = scale * float(np.sum(w_x * _h_reference(idx, traj, t, x)))
        assert row == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "idx, traj, T, time_nodes, space_nodes",
    [
        (BasisIndex("even", 2), REF_WALL, None, 3, 512),
        (BasisIndex("odd", 1), REF_WALL, None, 257, 512),
        (BasisIndex("even", 0), REV_WALL, 4.0, 20, 2000),
        (BasisIndex("single_wall", 3), LinearWall(L0=7.0, q=0.4), 2.5, 130, 64),
    ],
)
def test_dynamical_phase_matches_per_node_quadrature(idx, traj, T, time_nodes, space_nodes):
    # few and many nodes, odd and even counts, both boxes and both legs
    T = traj.period if T is None else T
    ours = phases._delta_at(idx, traj, C, T, time_nodes, space_nodes)
    ref = _per_node_delta(idx, traj, T, time_nodes, space_nodes)
    assert ours == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_dynamical_phase_makes_no_per_node_solution_calls(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[3])
        return _solution_and_second_derivative(*args)

    def closed_form(*args):
        raise AssertionError("delta must not use the closed forms it is checked against")

    monkeypatch.setattr(basis, "_solution_and_second_derivative", counting)
    monkeypatch.setattr(phases, "_solution_and_second_derivative", counting, raising=False)
    for name in ("energy_expectation", "geometric_phase", "wall_action_integral"):
        monkeypatch.setattr(phases, name, closed_form)
    monkeypatch.setattr(SmoothPeriodicWall, "wall_action", closed_form)
    dynamical_phase(GROUND, REF_WALL, C)
    assert calls == []


def test_modes_share_one_trajectory_pass_per_resolution():
    # the 11 modes of the shipped phase scenario read the wall at the
    # 257 + 513 time nodes of the checked run (orders 256 and 512) once in
    # all, not once per mode
    cfg = ScenarioConfig(parse_config(CONFIGS / "phase.cfg"))
    calls = []

    class CountingWall(SmoothPeriodicWall):
        def _kinematics(self, t):
            calls.append(t)
            return super()._kinematics(t)

    wall = CountingWall(
        L0=cfg.get_float("trajectory.L0"),
        q=cfg.get_float("trajectory.q"),
        omega=cfg.get_float("trajectory.omega"),
    )
    phases._time_rows.cache_clear()
    for n in range(cfg.get_int("phase.n_max") + 1):
        dynamical_phase(_level_index(n + 1), wall, C)
    assert len(calls) <= 770


def test_dynamical_phase_validation():
    with pytest.raises(DomainError):
        dynamical_phase(GROUND, LinearWall(L0=5.0, q=0.1), C)  # no period, no T
    with pytest.raises(DomainError):
        dynamical_phase(GROUND, REF_WALL, C, T=-1.0)


EPS = np.finfo(float).eps


def _cc_weight(n, k):
    """Clenshaw-Curtis weight k of order n to 40 digits, by the cosine sum
    (c_k / n)(1 - sum_{j=1}^{n/2} b_j cos(2 pi j k / n) / (4 j^2 - 1)), with
    b_j = 1 at j = n/2 and 2 below it, c_k = 1 at the ends and 2 inside."""
    with mp.workdps(40):
        tail = mp.fsum(mp.mpf(1 if 2 * j == n else 2) / (4 * j * j - 1) * mp.cospi(mp.mpf(2 * j * k) / n)
                       for j in range(1, n // 2 + 1))
        return mp.mpf(1 if k in (0, n) else 2) / n * (1 - tail)


@pytest.mark.parametrize("n", [2, 3, 8, 255, 256, 1024, 16384])
def test_cc_rule_is_symmetric_and_positive(n):
    x, w = phases._cc_rule(n)
    assert x.shape == w.shape == (n + 1,)
    assert x[0] == -1.0 and x[-1] == 1.0 and np.all(np.diff(x) > 0)
    assert np.max(np.abs(x + np.cos(np.pi * np.arange(n + 1) / n))) <= 2 * EPS
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(w > 0)
    # measured: at most 2 eps
    assert abs(float(np.sum(w)) - 2.0) <= 4 * EPS


@pytest.mark.parametrize("n", [2, 3, 8, 256, 1024])
def test_cc_rule_integrates_even_monomials_to_its_order(n):
    x, w = phases._cc_rule(n)
    for j in range(0, n + 1, 2):
        err = abs(float(w @ x**j) * (j + 1) / 2.0 - 1.0)
        # x**j itself rounds by up to j/2 ulps near the ends, where these
        # monomials weigh most; measured: 5.5 eps at n = 256, 14 at 1,024
        assert err <= (4.0 + j / 32.0) * EPS, j


@pytest.mark.parametrize("n", [2, 8, 256, 1024, 16384])
def test_cc_weights_against_40_digits(n):
    _, w = phases._cc_rule(n)
    # every weight to the middle at the small orders (the rest by symmetry),
    # else the four outermost, where the weights are smallest, n/3 and the middle
    for k in range(n // 2 + 1) if n <= 8 else (0, 1, 2, 3, n // 3, n // 2):
        ref = _cc_weight(n, k)
        # measured: at most 1.04 eps of the largest weight, which is at most
        # 2.3e-13 relative at the two end weights
        assert abs(float(w[k] - ref)) <= 2 * EPS * w.max(), k
        assert abs(float((w[k] - ref) / ref)) <= 1e-12, k


def test_fig_mode_phases_dataset():
    data = fig_mode_phases(C, n_max=6)
    assert data["gamma"].shape == (4, 7)
    assert np.array_equal(data["nu"], np.arange(1, 8))
    assert data["gamma"][0, 0] == pytest.approx(GAMMA0, rel=1e-13)
    # L0^2 scaling across rows
    np.testing.assert_allclose(data["gamma"][1], 16.0 * data["gamma"][0], rtol=1e-12)
    np.testing.assert_allclose(data["gamma"][3], 100.0 * data["gamma"][0], rtol=1e-12)
    assert np.all(data["gamma_mod_2pi"] >= 0.0)
    assert np.all(data["gamma_mod_2pi"] < 2.0 * math.pi)
    # spot check an odd-parity level: n=5 -> nu=6
    traj = SmoothPeriodicWall(L0=800.0, q=0.1, omega=1.0)
    assert data["gamma"][2, 5] == pytest.approx(
        geometric_phase(BasisIndex("odd", 3), traj, C), rel=1e-13
    )
    with pytest.raises(DomainError):
        fig_mode_phases(C, n_max=-1)
    with pytest.raises(DomainError):
        fig_mode_phases(C, Lbar0_values=(100.0, -5.0))
