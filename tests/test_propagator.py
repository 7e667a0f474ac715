import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from movingwell import propagator
from movingwell.basis import (
    _BABY,
    _CHUNK,
    _FAMILIES,
    _SLAB,
    BasisIndex,
    _chirp_rate,
    _clock_phase,
    _in_box,
    _leg,
    _mode_sum,
    basis_solution,
    reversal_mismatch_ratio,
)
from movingwell.core import (
    ConvergenceError,
    DomainError,
    GaussianParams,
    LinearWall,
    LocalizationWarning,
    PhysicalConstants,
    ReversingLinearWall,
    ScaledWall,
    SmoothPeriodicWall,
    TruncationWarning,
)
from movingwell.propagator import (
    SpectralExpansion,
    contraction_coefficients,
    evolve_sum,
    evolve_theta_general,
    evolve_unconfined_approx,
    expansion_coefficients,
    initial_gaussian,
    _theta_bracket,
    locality_compare,
    theta_nome,
)
from movingwell.theta import theta

C = PhysicalConstants()
G1 = GaussianParams(d=1.0)
SMOOTH = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)


def test_initial_gaussian_is_normalized():
    x = np.linspace(-40.0, 40.0, 8001)
    g = GaussianParams(d=2.0, x0=3.0, p0=1.5)
    psi = initial_gaussian(g, C, x)
    assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=1e-12)
    # mean momentum: <p> = hbar Im(psi* psi') -> p0 (second-order gradient
    # limits the accuracy)
    dpsi = np.gradient(psi, x)
    p_mean = np.trapezoid((psi.conj() * dpsi).imag * C.hbar, x)
    assert p_mean == pytest.approx(1.5, abs=1e-4)


def test_coefficients_match_quadrature_projection():
    # independent oracle: project the initial packet on the t = 0 modes by
    # straightforward quadrature
    g = GaussianParams(d=1.3, x0=12.0, p0=0.7)
    ex = expansion_coefficients(g, SMOOTH, C)
    x = np.linspace(-50.0, 50.0, 40001)
    psi0 = initial_gaussian(g, C, x)
    for idx in [BasisIndex("even", 0), BasisIndex("even", 17), BasisIndex("odd", 9)]:
        mode = basis_solution(idx, SMOOTH, C, 0.0, x)
        ref = np.trapezoid(psi0 * np.conj(mode), x)
        even, odd = ex.coeffs
        got = (even if idx.sector == "even" else odd)[idx.n]
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_coefficients_match_quadrature_single_wall():
    g = GaussianParams(d=1.0, x0=35.0)
    lin = LinearWall(L0=100.0, q=2.0)
    ex = expansion_coefficients(g, lin, C, sector="single_wall")
    x = np.linspace(0.0, 100.0, 40001)
    psi0 = initial_gaussian(g, C, x)
    for n in [1, 25, 60]:
        mode = basis_solution(BasisIndex("single_wall", n), lin, C, 0.0, x)
        ref = np.trapezoid(psi0 * np.conj(mode), x)
        assert ex.coeffs[0][n] == pytest.approx(ref, rel=1e-8, abs=1e-12)


def test_centered_coefficients_closed_form():
    # with the wall momentarily at rest the even projections are real
    # Gaussians in the mode number
    ex = expansion_coefficients(G1, SMOOTH, C)
    d, L0 = 1.0, 100.0
    for n in [0, 3, 11]:
        nu = 2 * n + 1
        expect = (
            2.0**1.25
            * math.pi**0.25
            * math.sqrt(d / L0)
            * math.exp(-(math.pi * nu * d / L0) ** 2)
        )
        assert ex.coeffs[0][n] == pytest.approx(expect, rel=1e-13)
    assert np.all(ex.coeffs[1] == 0.0)


def test_captured_norm_is_complete():
    for g in [G1, GaussianParams(d=1.0, x0=20.0, p0=3.0)]:
        ex = expansion_coefficients(g, SMOOTH, C)
        assert ex.captured_norm == pytest.approx(1.0, abs=1e-13)


def test_far_offset_packet_captures_its_norm_without_warning():
    # x0^2/(4 d^2) ~ 63 here: merging the offset and mode exponents after
    # rounding left a 1.13e-14 deficit and a spurious TruncationWarning
    g = GaussianParams(d=1.975, x0=31.321875)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        ex = expansion_coefficients(g, LinearWall(L0=50.0, q=3.0), C, sector="single_wall")
    assert abs(1.0 - ex.captured_norm) <= 5e-15


def test_expansion_record_derives_its_size_and_norm():
    ex = propagator.SpectralExpansion("symmetric", ([0.6, 0.0, 0.0], [0.0, 0.8j, 0.0]))
    assert ex.n_max == 2
    assert ex.captured_norm == pytest.approx(1.0, abs=1e-15)
    assert ex.family == "initial"
    assert [(idx.sector, idx.n) for idx, _ in ex.modes()] == [("even", 0), ("odd", 1)]
    one = propagator.SpectralExpansion("single_wall", (np.array([0.0, 1.0]),))
    assert (one.n_max, one.captured_norm) == (1, 1.0)


@pytest.mark.parametrize(
    "sector, coeffs, family",
    [
        ("bogus", ([1.0],), "initial"),
        ("symmetric", ([1.0], [0.0]), "bogus"),
        ("symmetric", ([1.0],), "initial"),
        ("single_wall", ([0.0, 1.0], [0.0, 1.0]), "contraction"),
        ("symmetric", ([1.0, 0.0], [0.0]), "initial"),
    ],
    ids=["sector", "family", "too-few-arrays", "too-many-arrays", "ragged"],
)
def test_expansion_record_rejects_what_it_cannot_hold(sector, coeffs, family):
    with pytest.raises(DomainError):
        propagator.SpectralExpansion(sector, coeffs, family=family)


@pytest.mark.parametrize("k", [0.0, 0.37, -2.9, 41.0])
def test_overlap_exponent_against_mpmath(k):
    # (beta + i k)^2/(4a) - (Re beta)^2/(4 Re a) at 50 digits from the
    # state's own a and beta: the cancelled form is exact to rounding
    g = GaussianParams(d=1.975, x0=31.321875, p0=0.4)
    state = propagator._packet_state(g, LinearWall(L0=50.0, q=3.0), C)
    with mp.workdps(50):
        a = mp.mpc(state.a.real, state.a.imag)
        beta = mp.mpc(state.beta.real, state.beta.imag)
        ref = (beta + 1j * mp.mpf(k)) ** 2 / (4 * a) - beta.real**2 / (4 * a.real)
        ref = complex(ref)
    got = propagator._exponent(state, k)
    assert abs(got - ref) <= 4e-16 * max(abs(ref), 1.0)
    # past the turn the spread A is complex: (-P^2 + i b (2P - c))/(4a),
    # P = p0/hbar + k and c = (r/A) b, at 50 digits from the contraction
    # state's own a, b and c, for packets whose X^2/(4 d^2) reaches ~2500
    traj = ReversingLinearWall(L0=200.0, q=2.0, T=4.0)
    for g in (GaussianParams(d=0.7, x0=70.0), GaussianParams(d=1.0, x0=-50.0, p0=0.8)):
        state = propagator._packet_state(g, traj, C, traj.turn)
        with mp.workdps(50):
            a = mp.mpc(state.a.real, state.a.imag)
            b = mp.mpc(state.b.real, state.b.imag)
            c = mp.mpf(state.rate) / mp.mpc(state.spread.real, state.spread.imag) * b
            P = mp.mpf(state.k0) + mp.mpf(k)
            ref = complex((-P * P + 1j * b * (2 * P - c)) / (4 * a))
        got = propagator._exponent(state, k)
        assert abs(got - ref) <= 4e-16 * max(abs(ref), 1.0)


def test_theta_routes_equal_initial_gaussian_at_t0():
    x = np.linspace(-8.0, 8.0, 33)
    psi0 = initial_gaussian(G1, C, x)
    assert np.max(np.abs(evolve_theta_general(G1, SMOOTH, C, 0.0, x) - psi0)) < 1e-14
    offset = GaussianParams(d=1.0, x0=10.0, p0=2.0)
    got = evolve_theta_general(offset, SMOOTH, C, 0.0, x + 10.0)
    assert np.max(np.abs(got - initial_gaussian(offset, C, x + 10.0))) < 1e-14


@pytest.mark.parametrize(
    "traj",
    [SMOOTH, LinearWall(L0=100.0, q=2.0), LinearWall(L0=120.0, q=-1.0)],
    ids=lambda tr: f"{type(tr).__name__}",
)
def test_mode_sum_agrees_with_theta_centered(traj):
    # the centred packet, whose closed form is the single theta_2
    ex = expansion_coefficients(G1, traj, C)
    x = np.linspace(-9.0, 9.0, 61)
    for t in [0.7, 3.0]:
        ms = evolve_sum(ex, traj, C, t, x)
        th = evolve_theta_general(G1, traj, C, t, x)
        assert np.max(np.abs(ms - th)) < 5e-14


def test_mode_sum_agrees_with_theta_general_offcenter():
    g = GaussianParams(d=1.0, x0=30.0, p0=1.0)
    ex = expansion_coefficients(g, SMOOTH, C)
    x = np.linspace(20.0, 44.0, 49)
    for t in [1.0, 4.0]:
        ms = evolve_sum(ex, SMOOTH, C, t, x)
        th = evolve_theta_general(g, SMOOTH, C, t, x)
        assert np.max(np.abs(ms - th)) < 5e-14


def test_mode_sum_agrees_with_theta_general_single_wall():
    g = GaussianParams(d=1.0, x0=40.0)
    lin = LinearWall(L0=100.0, q=2.0)
    ex = expansion_coefficients(g, lin, C, sector="single_wall")
    x = np.linspace(30.0, 52.0, 45)
    for t in [1.0, 3.0]:
        ms = evolve_sum(ex, lin, C, t, x)
        th = evolve_theta_general(g, lin, C, t, x, sector="single_wall")
        assert np.max(np.abs(ms - th)) < 1e-13


#: sup |mode sum - closed form| in the single-wall box from the reversing
#: wall's turn on, by box: measured at most 2.96e-14 (bare, L0 = 100) and
#: 3.56e-13 (k = 4, L0 = 400) over 700 draws per box of d in [0.5, 2],
#: x0 in [0.3, 0.7] L0, |p0| <= 1 at t = turn, in (turn, 2 turn) and t_max
SINGLE_WALL_CYCLE_TOL = {1.0: 6e-14, 4.0: 6e-13}


@pytest.mark.parametrize("k", [1.0, 4.0], ids=["bare", "k4"])
def test_single_wall_mode_sum_agrees_with_theta_general_past_the_turn(k):
    # the contraction family as expansion_coefficients(..., t) projects it
    # at the turn; test_properties checks the re-expansion against it
    rev = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    wall = rev if k == 1.0 else ScaledWall(inner=rev, k=k)
    L0 = wall.length(0.0)
    rng = np.random.default_rng(2024)
    for _ in range(4):
        g = GaussianParams(d=rng.uniform(0.5, 2.0), x0=rng.uniform(0.4, 0.6) * L0,
                           p0=rng.uniform(-1.0, 1.0))
        for t in (wall.turn, 3.0, wall.t_max):
            x = np.linspace(0.0, wall.length(t), 401)
            with warnings.catch_warnings():
                # in the k = 4 box the contraction expansion captures 1 to
                # within ~1e-13 in rounding, which can exceed tail_tol
                warnings.simplefilter("ignore", TruncationWarning)
                ex = expansion_coefficients(g, wall, C, sector="single_wall", t=t)
            assert ex.family == "contraction"
            ms = evolve_sum(ex, wall, C, t, x)
            th = evolve_theta_general(g, wall, C, t, x, sector="single_wall")
            assert np.max(np.abs(ms - th)) <= SINGLE_WALL_CYCLE_TOL[k]


@pytest.mark.parametrize("sector", ["symmetric", "single_wall"])
def test_nan_positions_give_zero_on_both_routes(sector):
    # NaN counts as outside the box: the closed form used to raise from the
    # theta term-count probe while the mode sum returned 0
    g = GaussianParams(d=1.0, x0=40.0 if sector == "single_wall" else 10.0, p0=0.5)
    lin = LinearWall(L0=100.0, q=2.0)
    ex = expansion_coefficients(g, lin, C, sector=sector)
    x = np.linspace(30.0, 52.0, 7) - (0.0 if sector == "single_wall" else 30.0)
    with_nan = np.insert(x, [0, 4], math.nan)
    for t in (0.9, 40.0):
        closed = evolve_theta_general(g, lin, C, t, with_nan, sector=sector)
        summed = evolve_sum(ex, lin, C, t, with_nan)
        nan_at = np.isnan(with_nan)
        assert np.all(closed[nan_at] == 0.0) and np.all(summed[nan_at] == 0.0)
        assert np.array_equal(closed[~nan_at], evolve_theta_general(g, lin, C, t, x, sector=sector))
        assert np.array_equal(summed[~nan_at], evolve_sum(ex, lin, C, t, x))
        assert np.max(np.abs(closed - summed)) < 1e-13
    assert evolve_theta_general(g, lin, C, 0.9, math.nan, sector=sector) == 0.0


@pytest.mark.parametrize("sector", ["symmetric", "single_wall"])
def test_infinite_positions_give_zero_quietly(sector):
    # +-inf lies past every wall: the box routes give 0 there as they do
    # for NaN, and the wall-free form gives the packet's limit, 0, all
    # without a numpy RuntimeWarning
    g = GaussianParams(d=1.0, x0=40.0 if sector == "single_wall" else 10.0, p0=0.5)
    lin = LinearWall(L0=100.0, q=2.0)
    ex = expansion_coefficients(g, lin, C, sector=sector)
    x = np.array([math.inf, 40.0 if sector == "single_wall" else 10.0, -math.inf])
    routes = {
        "closed": lambda: evolve_theta_general(g, lin, C, 1.0, x, sector=sector),
        "sum": lambda: evolve_sum(ex, lin, C, 1.0, x),
    }
    if sector == "symmetric":
        routes["wall_free"] = lambda: evolve_unconfined_approx(g, lin, C, 1.0, x)
    for name, route in routes.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = route()
        assert psi[0] == 0.0 and psi[2] == 0.0, name
        assert abs(psi[1]) > 0.1, name


def _sweep_cases():
    """(sector, wall, packet, t) over both sectors, both mode families, four
    wall kinds (a scaled reversing wall among them), centred, offset and
    boosted packets and widths from 0.2 to 3."""
    rev = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    walls = [LinearWall(L0=100.0, q=3.0), SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0),
             rev, ScaledWall(inner=rev, k=4.0)]
    for sector in ("symmetric", "single_wall"):
        for wall in walls:
            L0 = wall.length(0.0)
            centre = L0 / 2.0 if sector == "single_wall" else 0.0
            for d in (0.2, 1.0, 3.0):
                for x0, p0 in ((0.0, 0.0), (0.3, 0.0), (0.0, 1.5), (-0.25, -0.8)):
                    g = GaussianParams(d=d, x0=centre + x0 * L0, p0=p0)
                    for t in (0.0,) if math.isinf(wall.turn) else (0.0, wall.turn):
                        yield sector, wall, g, t


def test_expansion_ends_three_labels_past_the_floor():
    # a brute-force table four times wider holds no coefficient at or above
    # the floor past the kept labels, and n_max is the last one there plus
    # the guard; the kept coefficients are that table's own, to rounding
    # (numpy's complex multiply can round an element differently in an
    # array of another size)
    cases = 0
    for sector, wall, g, t in _sweep_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ex = expansion_coefficients(g, wall, C, sector=sector, t=t)
        state = propagator._packet_state(g, wall, C, t)
        wide = propagator._overlap_table(state, sector, 4 * (ex.n_max + 1))
        mags = np.abs(wide)
        above = np.flatnonzero(np.any(mags >= propagator._COEFF_FLOOR * mags.max(), axis=0))
        assert ex.n_max == above[-1] + propagator._COEFF_RUN, (sector, wall, g, t)
        for c, w in zip(ex.coeffs, wide):
            assert np.max(np.abs(c - w[: ex.n_max + 1])) <= 1e-15 * mags.max()
        cases += 1
    assert cases == 2 * 3 * 4 * (2 + 2 * 2)


def test_expansion_table_grows_until_its_envelope_clears_the_floor(monkeypatch):
    # a first table far too short doubles to the same expansion; a label
    # limit below the expansion's end raises ConvergenceError
    g = GaussianParams(d=0.5, x0=10.0, p0=1.0)
    ref = expansion_coefficients(g, SMOOTH, C)
    tables = []
    real = propagator._overlap_table

    def counting(state, sector, n_end):
        tables.append(n_end)
        return real(state, sector, n_end)

    monkeypatch.setattr(propagator, "_overlap_table", counting)
    monkeypatch.setattr(propagator, "_TABLE_MARGIN", -29.0)
    grown = expansion_coefficients(g, SMOOTH, C)
    assert len(tables) > 2 and tables[-1] >= ref.n_max
    assert grown.n_max == ref.n_max
    for a, b in zip(grown.coeffs, ref.coeffs):
        assert np.max(np.abs(a - b)) <= 1e-15
    monkeypatch.setattr(propagator, "_MODE_LIMIT", ref.n_max - 1)
    with pytest.raises(ConvergenceError, match=f"within {ref.n_max - 1} modes"):
        expansion_coefficients(g, SMOOTH, C)


@pytest.mark.parametrize("sector", ["symmetric", "single_wall"])
def test_expansion_takes_no_exp_per_label(monkeypatch, sector):
    # the overlaps are one np.exp over the whole table, whatever the label
    # count; the only cmath.exp is the packet state's own norm phase
    calls = {"cmath": 0, "np": 0}
    for module, key in ((cmath, "cmath"), (np, "np")):
        original = module.exp

        def counting(*args, _key=key, _original=original, **kw):
            calls[_key] += 1
            return _original(*args, **kw)

        monkeypatch.setattr(module, "exp", counting)
    rev = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    centre = 50.0 if sector == "single_wall" else 0.0
    for g in (GaussianParams(d=0.3, x0=centre), GaussianParams(d=2.0, x0=centre + 5.0, p0=1.0)):
        for t in (0.0, rev.turn):
            calls.update(cmath=0, np=0)
            propagator._packet_state(g, rev, C, t)
            state_calls = calls["cmath"]
            calls.update(cmath=0, np=0)
            ex = expansion_coefficients(g, rev, C, sector=sector, t=t)
            assert ex.n_max > 20
            assert calls["cmath"] == state_calls <= 1
            assert calls["np"] <= len(_FAMILIES[sector])


def test_evolved_norm_is_conserved():
    traj = LinearWall(L0=100.0, q=2.0)
    for t in [0.0, 2.0, 5.0]:
        L = traj.length(t)
        x = np.linspace(-L / 2, L / 2, 8001)
        psi = evolve_theta_general(G1, traj, C, t, x)
        assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=1e-10)


def test_nome_parameter():
    # at rest: kappa(0) = i pi 4 d^2 / L0^2 exactly
    k0 = theta_nome(G1, SMOOTH, C, 0.0)
    assert k0 == pytest.approx(4j * math.pi * 1e-4, rel=1e-14)
    # the imaginary part stays positive however far the evolution runs
    for traj in [SMOOTH, LinearWall(L0=100.0, q=2.0), LinearWall(L0=100.0, q=0.0)]:
        for t in [0.0, 1.0, 10.0, 40.0]:
            assert theta_nome(G1, traj, C, t).imag > 0
    boosted = GaussianParams(d=1.0, p0=5.0)
    assert theta_nome(boosted, LinearWall(L0=100.0, q=3.0), C, 7.0).imag > 0


def test_unconfined_equals_free_gaussian_any_speed():
    # the wall-free form must not know the wall speed: for every constant-
    # speed trajectory it reduces to the same free Gaussian
    _assert_unconfined_is_free_gaussian("symmetric", G1)


def test_unconfined_equals_free_gaussian_any_speed_single_wall():
    # nor which wall moves: the single-wall box gives the same free Gaussian
    _assert_unconfined_is_free_gaussian("single_wall", GaussianParams(d=1.0, x0=50.0, p0=0.3))


def _assert_unconfined_is_free_gaussian(sector, gauss):
    t = 3.0
    x = gauss.x0 + np.linspace(-8.0, 8.0, 41)
    s = 1.0 + 1j * C.hbar * t / (2.0 * C.mass * gauss.d**2)
    X = gauss.x0 + gauss.p0 * t / C.mass
    free = (2 * math.pi) ** -0.25 * (gauss.d * s) ** -0.5 * np.exp(
        -((x - X) ** 2) / (4 * gauss.d**2 * s)
        + 1j * gauss.p0 * x / C.hbar - 1j * gauss.p0**2 * t / (2 * C.mass * C.hbar)
    )
    for q in [0.0, 2.0, -0.5]:
        ua = evolve_unconfined_approx(gauss, LinearWall(L0=100.0, q=q), C, t, x, sector=sector)
        assert np.max(np.abs(ua - free)) < 1e-14


def test_unconfined_warns_when_spread_reaches_walls():
    with pytest.warns(LocalizationWarning):
        evolve_unconfined_approx(G1, LinearWall(L0=100.0, q=0.0), C, 25.0, 0.0)


def test_nan_position_keeps_the_unconfined_warning():
    # the wall-free form gives 0 at NaN, as the closed form does, so the
    # wall term there is 0 and the other points still decide the warning
    wall = LinearWall(L0=100.0, q=1.0)
    x = np.array([0.0, 10.0, math.nan])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        psi = evolve_unconfined_approx(GaussianParams(d=1.0), wall, C, 30.0, x)
        ref = evolve_unconfined_approx(GaussianParams(d=1.0), wall, C, 30.0, x[:2])
    assert [w.category for w in caught] == [LocalizationWarning] * 2
    assert str(caught[0].message) == str(caught[1].message)
    assert "the walls add 1.962e-08" in str(caught[0].message)
    assert np.array_equal(psi, np.append(ref, 0.0))


def test_unconfined_is_silent_while_the_walls_add_nothing():
    x = np.linspace(-8.0, 8.0, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.0, 3.0, 10.0):
            evolve_unconfined_approx(G1, LinearWall(L0=100.0, q=0.0), C, t, x)


def _free_gaussian(gauss, t, x):
    # the boosted free packet: the centred one spread for t and carried
    # along x0 + v t, times the plane wave e^{i(k0 x - hbar k0^2 t/2m)}
    s = 1.0 + 1j * C.hbar * t / (2.0 * C.mass * gauss.d**2)
    k0 = gauss.p0 / C.hbar
    centre = gauss.x0 + C.hbar * k0 * t / C.mass
    return (2 * math.pi) ** -0.25 * (gauss.d * s) ** -0.5 * np.exp(
        -((x - centre) ** 2) / (4 * gauss.d**2 * s)
        + 1j * (k0 * x - C.hbar * k0**2 * t / (2.0 * C.mass))
    )


@pytest.mark.parametrize(
    "sector, gauss",
    [
        ("symmetric", GaussianParams(d=1.0, x0=10.0)),
        ("symmetric", GaussianParams(d=1.0, x0=-7.0, p0=2.0)),
        ("single_wall", GaussianParams(d=1.0, x0=50.0, p0=-0.7)),
        ("single_wall", GaussianParams(d=1.5, x0=30.0, p0=2.0)),
    ],
)
def test_wall_free_form_is_the_free_gaussian_for_offset_packets(sector, gauss):
    # the leading modular term of the bracket's first theta, taken at z - C,
    # is the free packet itself for any constant wall speed
    worst = 0.0
    for q in (-1.0, 0.0, 2.0):
        traj = LinearWall(L0=100.0, q=q)
        state = propagator._packet_state(gauss, traj, C)
        for t in (0.0, 1.0, 3.0, 7.0):
            centre = gauss.x0 + gauss.p0 * t / C.mass
            x = np.linspace(centre - 8.0, centre + 8.0, 161)
            free = propagator._evaluate(state, traj, C, t, x, sector=sector, wall_free=True)
            worst = max(worst, float(np.max(np.abs(free - _free_gaussian(gauss, t, x)))))
    assert worst < 1e-13


def test_initial_gate_rejects_leaky_packet():
    with pytest.raises(DomainError):
        expansion_coefficients(GaussianParams(d=1.0, x0=48.0), SMOOTH, C)
    with pytest.raises(DomainError):
        # d large enough that the tails cross the 1e-6 mass limit
        expansion_coefficients(GaussianParams(d=10.9), SMOOTH, C)
    # single-wall box: packet too close to the fixed wall
    with pytest.raises(DomainError):
        expansion_coefficients(
            GaussianParams(d=1.0, x0=2.0), LinearWall(L0=100.0, q=2.0), C,
            sector="single_wall",
        )


def test_packet_whose_m_d2_underflows_is_refused_where_it_enters():
    # the spread hbar t / (2 m d^2) divided by 0 in _packet_state
    heavy = PhysicalConstants(mass=1e-150)
    with pytest.raises(DomainError, match=r"mass \* d\^2 must be at least"):
        evolve_theta_general(GaussianParams(d=1e-150), LinearWall(L0=1.0, q=0.0), heavy, 0.0, 0.0)


def test_boost_past_the_closed_form_raises_rather_than_nan():
    # at |p0| d / hbar = 28, Re E = -784: e^E underflows to 0, the bracket
    # overflows, and the closed form read NaN at the packet's peak; the
    # wall term of the locality check was NaN too, and its verdict "fail"
    x = np.linspace(-20.0, 20.0, 2001)
    gauss = GaussianParams(d=1.0, p0=28.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ConvergenceError, match=r"p0 d / hbar = 28\b.*evolve\.route=sum"):
            evolve_theta_general(gauss, SMOOTH, C, 0.0, x)
        with pytest.raises(ConvergenceError, match=r"p0 d / hbar = -30\b"):
            locality_compare(GaussianParams(d=1.0, p0=-30.0), C, LinearWall(L0=100.0, q=2.0),
                             LinearWall(L0=100.0, q=0.0), 1.0, x)
    # the mode sum it points to takes the packet
    psi = evolve_sum(expansion_coefficients(gauss, SMOOTH, C), SMOOTH, C, 0.0, x)
    assert float(np.trapezoid(np.abs(psi) ** 2, x)) == pytest.approx(1.0, abs=1e-12)


def test_wide_packet_warns_but_still_runs():
    # d/L0 = 0.102: inside the tail gate but wide enough to warn; the norm
    # deficit from the walls also trips the truncation warning
    g = GaussianParams(d=10.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ex = expansion_coefficients(g, SMOOTH, C)
    kinds = {w.category for w in caught}
    assert LocalizationWarning in kinds
    assert TruncationWarning in kinds
    assert ex.captured_norm < 1.0


def test_evolve_sum_family_guards():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    ex = expansion_coefficients(G1, traj, C)
    evolve_sum(ex, traj, C, 1.9, 0.0)  # fine before the turn
    with pytest.raises(DomainError):
        evolve_sum(ex, traj, C, 2.0, 0.0)
    con = expansion_coefficients(G1, traj, C, t=traj.turn)
    evolve_sum(con, traj, C, 3.0, 0.0)
    with pytest.raises(DomainError):
        evolve_sum(con, traj, C, 1.0, 0.0)
    with pytest.raises(DomainError):
        evolve_sum(con, SMOOTH, C, 3.0, 0.0)


def _per_mode_sum(expansion, traj, t, x):
    """The mode sum written mode by mode: every term carries its own chirp."""
    total = np.zeros(x.shape, dtype=complex)
    for idx, c in expansion.modes():
        total = total + c * basis_solution(idx, traj, C, t, x)
    return total


@pytest.mark.parametrize(
    "gauss, traj, t, sector",
    [
        (GaussianParams(d=1.0, x0=10.0, p0=2.0), SMOOTH, 3.0, "symmetric"),
        (GaussianParams(d=1.5, x0=40.0, p0=-1.0), LinearWall(L0=80.0, q=3.0), 7.0,
         "single_wall"),
        (G1, ReversingLinearWall(L0=100.0, q=2.0, T=4.0), 1.5, "symmetric"),
    ],
)
def test_mode_sum_matches_per_mode_solutions(gauss, traj, t, sector):
    ex = expansion_coefficients(gauss, traj, C, sector=sector)
    L = traj.length(t)
    # the grid runs past both walls, where both forms must vanish
    x = np.linspace(-0.6 * L, 1.1 * L, 1501)
    ours = evolve_sum(ex, traj, C, t, x)
    ref = _per_mode_sum(ex, traj, t, x)
    assert np.max(np.abs(ours - ref)) < 1e-14
    assert np.all(ours[np.abs(ref) == 0.0] == 0.0)
    assert evolve_sum(ex, traj, C, t, x[700]) == ours[700]


_LD_PI = np.longdouble("3.14159265358979323846264338327950288")


def _long_double_mode_sum(expansion, traj, t, x):
    """The mode sum with every trig factor sin/cos(pi nu x / L) taken in
    extended precision and summed there; the amplitudes c e^{-i phase}, the
    chirp and sqrt(2/L) are formed in doubles as the library forms them."""
    L, v, tau = _leg(traj, t)
    xl = x.astype(np.longdouble)
    re = np.zeros(x.shape, np.longdouble)
    im = np.zeros(x.shape, np.longdouble)
    for idx, c in expansion.modes():
        a = complex(c) * cmath.exp(-1j * _clock_phase(idx.nu, C, tau))
        arg = _LD_PI * idx.nu * xl / np.longdouble(L)
        trig = np.sin(arg) if idx.is_sine else np.cos(arg)
        re += np.longdouble(a.real) * trig
        im += np.longdouble(a.imag) * trig
    total = re.astype(float) + 1j * im.astype(float)
    out = math.sqrt(2.0 / L) * np.exp(1j * _chirp_rate(C, L, v) * x**2) * total
    return np.where(_in_box(x, L, expansion.sector), out, 0.0)


#: the mode sum's error against ``_long_double_mode_sum``, in units of
#: eps sqrt(2/L) sum |c_n|: over 280 random packets of 294-1,539 modes
#: (narrow centred, offset and boosted, single-wall, contraction family)
#: the blocked sum measured at most 37.8, and on the cases below 40.9
HORNER_ULPS = 100


@pytest.mark.parametrize(
    "gauss, traj, sector, times",
    [
        (GaussianParams(d=0.3), LinearWall(L0=200.0, q=1.0), "symmetric", (0.0, 7.0, 90.0)),
        (GaussianParams(d=0.5, x0=100.0, p0=-1.0), SmoothPeriodicWall(L0=200.0, q=0.1, omega=1.0),
         "single_wall", (0.5, 6.0)),
        (GaussianParams(d=0.5, x0=-40.0, p0=2.5), LinearWall(L0=200.0, q=2.0), "symmetric",
         (1.0, 13.0)),
        (GaussianParams(d=0.5, x0=5.0, p0=0.7), ReversingLinearWall(L0=200.0, q=3.0, T=4.0),
         "contraction", (2.0, 3.1)),
    ],
    ids=["centred", "single_wall", "offset_boosted", "contraction"],
)
def test_mode_sum_against_long_double_trig(gauss, traj, sector, times):
    if sector == "contraction":
        ex = contraction_coefficients(expansion_coefficients(gauss, traj, C), traj, C)
    else:
        ex = expansion_coefficients(gauss, traj, C, sector=sector)
    modes = sum(1 for _ in ex.modes())
    assert modes >= 500
    for t in times:
        L = traj.length(t)
        x = np.linspace(*propagator._box_interval(L, ex.sector), 1001)
        ours = evolve_sum(ex, traj, C, t, x)
        scale = math.sqrt(2.0 / L) * sum(abs(c) for _, c in ex.modes())
        err = np.max(np.abs(ours - _long_double_mode_sum(ex, traj, t, x)))
        assert err <= HORNER_ULPS * np.finfo(float).eps * scale, (t, err / scale)
        # a point alone gives the value it has inside the grid, bit for bit
        for i in (1, 137, 500, 862, 999):
            assert evolve_sum(ex, traj, C, t, x[i]) == ours[i]


def test_contraction_mode_sum_matches_per_mode_solutions():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    x = np.linspace(-60.0, 60.0, 1201)
    closed = expansion_coefficients(G1, traj, C, t=traj.turn)
    for con in (closed, contraction_coefficients(expansion_coefficients(G1, traj, C), traj, C)):
        for t in (2.0, 3.5):
            ours = evolve_sum(con, traj, C, t, x)
            assert np.max(np.abs(ours - _per_mode_sum(con, traj, t, x))) < 1e-14


def _random_expansion(rng, sector, terms):
    """An expansion of unit norm with ``terms`` random modes per family of
    ``sector``, the last family one mode shorter."""
    families = _FAMILIES[sector]
    coeffs = np.zeros((len(families), terms + 1), dtype=complex)
    for i, (family, row) in enumerate(zip(families, coeffs)):
        m = terms - (i == len(families) - 1 and len(families) > 1)
        row[family.first : family.first + m] = rng.normal(size=m) + 1j * rng.normal(size=m)
    coeffs /= math.sqrt(np.sum(np.abs(coeffs) ** 2))
    return propagator.SpectralExpansion(sector, tuple(coeffs))


@pytest.mark.parametrize("sector", ["symmetric", "single_wall"])
@pytest.mark.parametrize("terms", [1, _BABY - 1, _BABY, _BABY + 1, 2 * _BABY + 1])
def test_blocked_mode_sum_at_block_edges(sector, terms):
    # the mode counts where the baby-step blocks fill, spill and pad
    traj = LinearWall(L0=60.0, q=1.5)
    ex = _random_expansion(np.random.default_rng(terms), sector, terms)
    assert sum(1 for _ in ex.modes()) == len(_FAMILIES[sector]) * terms - (sector == "symmetric")
    for t in (0.4, 9.0):
        L = traj.length(t)
        x = np.linspace(-0.6 * L, 1.1 * L, 301)
        ours = evolve_sum(ex, traj, C, t, x)
        assert np.max(np.abs(ours - _per_mode_sum(ex, traj, t, x))) < 1e-14
        for i in (0, 150, 190, 300):
            assert evolve_sum(ex, traj, C, t, x[i]) == ours[i]


@pytest.mark.parametrize("sector", ["symmetric", "single_wall"])
@pytest.mark.parametrize(
    "points", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2001, _SLAB + 1, 2 * _SLAB + 1]
)
def test_blocked_mode_sum_is_the_same_in_any_grid(sector, points):
    # a point's value does not depend on the grid around it: not on its
    # place in a chunk or a slab, the chunk count, the other points or NaN
    # holes
    g = GaussianParams(d=0.7, x0=30.0 if sector == "single_wall" else 6.0, p0=0.8)
    traj = SmoothPeriodicWall(L0=60.0, q=0.1, omega=1.0)
    ex = expansion_coefficients(g, traj, C, sector=sector)
    assert sum(1 for _ in ex.modes()) > 2 * _BABY
    t = 2.5
    L = traj.length(t)
    x = np.linspace(*propagator._box_interval(L, sector), points)
    full = evolve_sum(ex, traj, C, t, x)
    rng = np.random.default_rng(points)
    subset = rng.permutation(points)[: max(1, points // 3)]
    assert np.array_equal(evolve_sum(ex, traj, C, t, x[subset]), full[subset])
    holes = rng.random(points) < 0.2
    holed = evolve_sum(ex, traj, C, t, np.where(holes, math.nan, x))
    assert np.all(holed[holes] == 0.0)
    assert np.array_equal(holed[~holes], full[~holes])
    assert all(evolve_sum(ex, traj, C, t, xi) == f for xi, f in zip(x, full))


def test_closed_contraction_coefficients_are_the_gaussian_overlaps():
    # the post-turn packet is a centred Gaussian of exponent a: its even
    # coefficients are sqrt(2/L_h) norm e^{-k^2/(4 a)}, bit for bit, at
    # the turn and at any later t
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    con = expansion_coefficients(G1, traj, C, t=traj.turn)
    assert con.family == "contraction"
    later = expansion_coefficients(G1, traj, C, t=3.5)
    assert all(np.array_equal(a, b) for a, b in zip(later.coeffs, con.coeffs))
    state = propagator._packet_state(G1, traj, C, traj.turn)
    front = math.sqrt(2.0 / traj.half_length) * state.norm
    k = math.pi * (2 * np.arange(con.n_max + 1) + 1) / traj.half_length
    expect = front * np.exp(-(k**2) / (4.0 * state.a))
    assert np.array_equal(con.coeffs[0], expect)
    assert np.all(con.coeffs[1] == 0.0)
    assert con.coeffs[1].shape == con.coeffs[0].shape


def _cycle_sum(gauss, traj, t, x):
    """The mode-sum route through the cycle: the initial expansion before
    the turn, its re-expansion in the contraction family from the turn on."""
    ex = expansion_coefficients(gauss, traj, C)
    if t >= traj.turn:
        ex = contraction_coefficients(ex, traj, C)
    return evolve_sum(ex, traj, C, t, x)


def test_theta_forms_run_past_the_turn():
    # from the turn on the closed form follows the contraction family and
    # agrees with re-expansion
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    x = np.linspace(-10.0, 10.0, 41)
    for t in (2.0, 2.5, 3.0, 4.0):
        closed = evolve_theta_general(G1, traj, C, t, x)
        numeric = _cycle_sum(G1, traj, t, x)
        assert np.max(np.abs(closed - numeric)) < 1e-12
    # the contraction clock reads zero at the turn, where kappa is
    # i pi / (a_h L_h^2) for the packet spread by s = 1 + i hbar t_h/(2 m d^2)
    # and chirped by the wall speed -q, and it runs with tau from there
    L_h, s = traj.half_length, 1.0 + 1j * C.hbar * traj.turn / (2.0 * C.mass)
    a_h = 1.0 / (4.0 * s) - 1j * C.mass * traj.q / (2.0 * C.hbar * L_h)
    at_turn = theta_nome(G1, traj, C, traj.turn)
    assert at_turn == pytest.approx(1j * math.pi / (a_h * L_h**2), rel=1e-14)
    later = theta_nome(G1, traj, C, 3.0) - at_turn
    clock = 2.0 * math.pi * C.hbar * (traj.tau(3.0) - traj.tau(traj.turn)) / C.mass
    assert later == pytest.approx(-clock, rel=1e-12)


def test_contraction_routes_cross_validate():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    closed = expansion_coefficients(G1, traj, C, t=traj.turn)
    numeric = contraction_coefficients(expansion_coefficients(G1, traj, C), traj, C)
    n = min(closed.n_max, numeric.n_max)
    assert np.max(np.abs(closed.coeffs[0][: n + 1] - numeric.coeffs[0][: n + 1])) < 1e-12
    # centred packet: odd projections vanish
    assert np.max(np.abs(numeric.coeffs[1])) < 1e-13
    assert closed.captured_norm == pytest.approx(1.0, abs=1e-12)


def _trapezoid_contraction(gauss, traj, grid_points=2**15):
    """The re-expansion projection written mode by mode with np.trapezoid:
    (even, odd, n_max, captured norm)."""
    start = expansion_coefficients(gauss, traj, C)
    L_h = traj.half_length
    xg = np.linspace(-L_h / 2, L_h / 2, grid_points + 1)
    pre = _mode_sum(
        start.coeffs, C, L_h, traj.q, traj.tau(traj.T / 2), xg, "symmetric"
    )
    rate = -C.mass * traj.q / (2.0 * C.hbar * L_h)
    weighted = math.sqrt(2.0 / L_h) * np.exp(-1j * rate * xg**2) * pre
    n_fit = max(2 * start.n_max + 8, 16)
    even = np.array([
        np.trapezoid(weighted * np.cos(math.pi * (2 * n + 1) * xg / L_h), xg)
        for n in range(n_fit + 1)
    ])
    odd = np.array([0.0] + [
        np.trapezoid(weighted * np.sin(math.pi * 2 * n * xg / L_h), xg)
        for n in range(1, n_fit + 1)
    ])
    floor = propagator._COEFF_FLOOR * max(np.max(np.abs(even)), np.max(np.abs(odd)))
    last = int(np.flatnonzero((np.abs(even) >= floor) | (np.abs(odd) >= floor))[-1])
    n_max = last + propagator._COEFF_RUN
    even, odd = even[: n_max + 1], odd[: n_max + 1]
    return even, odd, n_max, float(np.sum(np.abs(even) ** 2) + np.sum(np.abs(odd) ** 2))


@pytest.mark.parametrize("gauss", [G1, GaussianParams(d=1.0, x0=5.0, p0=0.7)])
def test_reexpansion_fft_projection_matches_trapezoid_sums(gauss):
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    ours = contraction_coefficients(expansion_coefficients(gauss, traj, C), traj, C)
    even, odd, n_max, captured = _trapezoid_contraction(gauss, traj)
    assert ours.n_max == n_max
    assert ours.captured_norm == pytest.approx(captured, abs=1e-14)
    biggest = max(np.max(np.abs(even)), np.max(np.abs(odd)))
    assert np.max(np.abs(ours.coeffs[0] - even)) <= 1e-14 * biggest
    assert np.max(np.abs(ours.coeffs[1] - odd)) <= 1e-14 * biggest
    if gauss.x0 != 0.0:
        assert np.max(np.abs(odd)) > 0.1 * biggest


def test_reexpansion_projection_does_not_loop_over_modes(monkeypatch):
    # neither the pre-turn mode sum nor the projection onto the contraction
    # family evaluates a transcendental function on the grid once per mode:
    # the sum takes its units e^{i pi nu x / L_h} for nu = 1, 2 and the
    # chirp, the projection its conjugate chirp, each as one cos and one sin
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    grid_points = propagator._PROJECTION_POINTS
    calls = []
    for name in ("exp", "sin", "cos"):
        original = getattr(np, name)

        def counting(arg, *rest, _name=name, _original=original, **kw):
            if np.size(arg) > grid_points:
                calls.append(_name)
            return _original(arg, *rest, **kw)

        monkeypatch.setattr(np, name, counting)
    start = expansion_coefficients(G1, traj, C)
    con = contraction_coefficients(start, traj, C)
    assert con.n_max > 10
    assert calls == ["cos", "sin"] * 4


def test_reexpansion_reads_no_bin_past_the_grid():
    # at d = 0.0055 on this wall the projection asked for labels up to
    # 2 n_max + 8 = 31,676, past nu = N = 2^15, where the length-2N FFT's
    # bins mirror lower ones: it captured 1.459 of unit norm and did not warn
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    start = expansion_coefficients(GaussianParams(d=0.0055), traj, C)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = contraction_coefficients(start, traj, C)
    assert ours.n_max == (propagator._PROJECTION_POINTS - 1) // 2
    assert abs(1.0 - ours.captured_norm) <= 1e-10
    # a norm above 1 warns as a deficit does
    grown = SpectralExpansion("symmetric", tuple(1.1 * c for c in start.coeffs))
    with pytest.warns(TruncationWarning, match="capture 1.21"):
        contraction_coefficients(grown, traj, C)


def test_cycle_routes_agree_throughout():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    x = np.linspace(-10.0, 10.0, 41)
    for t in [1.0, 2.0, 3.0, 4.0]:
        a = evolve_theta_general(G1, traj, C, t, x)
        b = _cycle_sum(G1, traj, t, x)
        assert np.max(np.abs(a - b)) < 1e-12


def test_cycle_state_continuous_across_turn():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    x = np.linspace(-10.0, 10.0, 41)
    eps = 1e-8
    before = evolve_theta_general(G1, traj, C, 2.0 - eps, x)
    after = evolve_theta_general(G1, traj, C, 2.0, x)
    assert np.max(np.abs(after - before)) < 1e-7


def test_cycle_norm_at_full_period():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    x = np.linspace(-50.0, 50.0, 4001)
    psi = evolve_theta_general(G1, traj, C, 4.0, x)
    assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=1e-10)


def test_cycle_validation():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    with pytest.raises(DomainError):
        contraction_coefficients(expansion_coefficients(G1, SMOOTH, C), SMOOTH, C)
    # both routes past the turn take any packet the gate admits, and only
    # those
    leaky = GaussianParams(d=1.0, x0=48.0)
    with pytest.raises(DomainError):
        expansion_coefficients(leaky, traj, C, t=3.0)
    with pytest.raises(DomainError):
        evolve_theta_general(leaky, traj, C, 3.0, 0.0)


def test_contraction_coefficients_reexpands_only_an_initial_expansion():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    start = expansion_coefficients(G1, traj, C)
    assert contraction_coefficients(start, traj, C).family == "contraction"
    # a single-wall start re-expands in the single-wall contraction family
    wall = expansion_coefficients(GaussianParams(d=1.0, x0=50.0), traj, C, sector="single_wall")
    ours = contraction_coefficients(wall, traj, C)
    assert (ours.sector, ours.family, len(ours.coeffs)) == ("single_wall", "contraction", 1)
    refused = {
        "contraction family": expansion_coefficients(G1, traj, C, t=3.0),
        "its own output": contraction_coefficients(start, traj, C),
        "its own single-wall output": ours,
        "a packet": G1,
    }
    for bad in refused.values():
        with pytest.raises(DomainError, match="initial-family expansion"):
            contraction_coefficients(bad, traj, C)
    # a wall that never turns has no contraction family
    with pytest.raises(DomainError, match="never turns"):
        contraction_coefficients(expansion_coefficients(G1, SMOOTH, C), SMOOTH, C)


def test_a_unit_rescaling_of_the_reversing_wall_changes_nothing():
    # the turn belongs to the trajectory, so the bare wall and the same
    # wall scaled by 1 take the same branches and give the same bits
    rev = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    scaled = ScaledWall(inner=rev, k=1.0)
    assert scaled.turn == rev.turn == 2.0
    x = np.linspace(-10.0, 10.0, 41)
    for t in (1.0, 2.0, 3.0, 4.0):
        assert np.array_equal(
            evolve_theta_general(G1, scaled, C, t, x), evolve_theta_general(G1, rev, C, t, x)
        )
        assert np.array_equal(_cycle_sum(G1, scaled, t, x), _cycle_sum(G1, rev, t, x))
    for build in (lambda traj: expansion_coefficients(G1, traj, C, t=traj.turn),
                  lambda traj: contraction_coefficients(expansion_coefficients(G1, traj, C),
                                                        traj, C)):
        ours, bare = build(scaled), build(rev)
        assert (ours.n_max, ours.captured_norm) == (bare.n_max, bare.captured_norm)
        assert np.array_equal(ours.coeffs[0], bare.coeffs[0])
        assert np.array_equal(ours.coeffs[1], bare.coeffs[1])
    xr = np.linspace(-5.0, 5.0, 21)  # the nodes of ("even", 3) lie at |x| > 7
    idx = BasisIndex("even", 3)
    assert np.array_equal(
        reversal_mismatch_ratio(idx, scaled, C, xr), reversal_mismatch_ratio(idx, rev, C, xr)
    )
    for t in (1.0, 2.0, 3.0, 4.0):
        assert _leg(scaled, t) == _leg(rev, t)
    # past the turn the closed forms follow the contraction family of
    # either wall alike, and an initial-family sum refuses for both
    initial = expansion_coefficients(G1, rev, C)
    for t in (2.0, 3.0):
        assert np.array_equal(
            evolve_theta_general(G1, scaled, C, t, x), evolve_theta_general(G1, rev, C, t, x)
        )
        assert theta_nome(G1, scaled, C, t) == theta_nome(G1, rev, C, t)
        for traj in (rev, scaled):
            with pytest.raises(DomainError):
                evolve_sum(initial, traj, C, t, x)


def test_locality_wall_speed_is_invisible_early():
    # constant-speed walls induce no extra potential, so while the packet
    # is far from them the speed cannot matter
    fast = LinearWall(L0=100.0, q=2.0)
    slow = LinearWall(L0=100.0, q=-1.0)
    rep = locality_compare(G1, C, fast, slow, 1.0, np.linspace(-8, 8, 33))
    assert rep.verdict == "pass"
    assert rep.sup_error < 1e-12
    assert rep.wall_amplitude < 1e-12


def test_locality_box_size_is_invisible_early():
    big = ScaledWall(inner=SMOOTH, k=4.0)
    rep = locality_compare(G1, C, SMOOTH, big, 1.0, np.linspace(-8, 8, 33))
    assert rep.verdict == "pass"
    assert rep.sup_error < 1e-12


def test_locality_detects_mismatched_dynamics():
    # a breathing wall drags its quadratic term through the whole box, so
    # comparing against a constant-speed wall reports a genuine difference
    lin = LinearWall(L0=100.0, q=2.0)
    rep = locality_compare(G1, C, lin, SMOOTH, 1.0, np.linspace(-8, 8, 33))
    assert rep.verdict == "fail"
    assert rep.sup_error > 1e-3
    assert rep.wall_amplitude < 1e-12


def test_locality_warns_once_spread_reaches_walls():
    fast = LinearWall(L0=100.0, q=2.0)
    slow = LinearWall(L0=100.0, q=-1.0)
    x = np.linspace(-8.0, 8.0, 33)
    # at t = 25 the free spread is ~12.5: the comparison itself is suspect
    rep = locality_compare(G1, C, fast, slow, 25.0, x)
    assert rep.verdict == "warn"
    assert rep.wall_amplitude > 1e-10


@pytest.mark.parametrize("q, t", [(-1.0, 2.5), (-1.0, 3.0), (2.0, 3.0)])
def test_locality_warns_on_wall_contact_of_a_narrow_packet(q, t):
    # the packet's free spread is below a tenth of the box, yet its tails
    # reach the walls: the difference is the walls' own term, not a failure
    x = np.linspace(-4.0, 4.0, 801)
    moving, static = LinearWall(L0=20.0, q=q), LinearWall(L0=20.0, q=0.0)
    rep = locality_compare(G1, C, moving, static, t, x, tol=1e-10)
    assert rep.verdict == "warn"
    assert rep.wall_amplitude == pytest.approx(rep.sup_error, rel=0.01)


def test_locality_validation():
    with pytest.raises(DomainError):
        locality_compare(
            G1, C, LinearWall(L0=100.0, q=2.0), LinearWall(L0=50.0, q=2.0), 1.0, 0.0
        )
    with pytest.raises(DomainError):
        locality_compare(
            G1, C, LinearWall(L0=100.0, q=2.0), SMOOTH, 1.0,
            np.linspace(-60.0, 60.0, 11),
        )


def _four_call_bracket(z, c, kappa, sector):
    # the resummed mode series before the kappa/4 identity: both parity
    # families of the symmetric box, or the single wall's sine family
    th = lambda kind, w: theta(kind, w, kappa)
    if sector == "symmetric":
        return 0.5 * (th(2, z + c) + th(2, z - c) + th(3, z - c) - th(3, z + c))
    return 0.5 * (th(2, z - c) + th(3, z - c) - th(2, z + c) - th(3, z + c))


@pytest.mark.parametrize("sector", ["symmetric", "single_wall"])
@pytest.mark.parametrize(
    "im_range",
    [(0.25, 3.0), (0.06, 0.19), (1e-3, 0.03)],
    ids=["direct", "direct_then_transformed", "transformed"],
)
def test_kappa_quarter_bracket_matches_four_call_combination(sector, im_range):
    # Im kappa >= 0.2 keeps both kappa and kappa/4 on direct summation;
    # the middle band sends only kappa/4 to the modular transform; the
    # last sends both there
    rng = np.random.default_rng(7 + int(1e3 * im_range[0]) + len(sector))
    lo, hi = (-math.pi / 2, math.pi / 2) if sector == "symmetric" else (0.0, math.pi)
    for _ in range(25):
        kappa = complex(rng.uniform(-0.8, 0.8), rng.uniform(*im_range))
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        z = rng.uniform(lo, hi, 41)
        ours = _theta_bracket(z, c, kappa, sector)
        ref = _four_call_bracket(z, c, kappa, sector)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(ours - ref)) <= 1e-14 * scale


def _mp_four_call(z, c, kappa, sector, dps=40):
    with mp.workdps(dps):
        kap = mp.mpc(kappa)
        q = mp.exp(1j * mp.pi * kap)

        def th(kind, w):
            v = mp.jtheta(kind, mp.mpc(w), q)
            if kind == 2:
                # series convention e^{i pi kappa/4}, not mpmath's principal q^{1/4}
                v = v / q ** mp.mpf(0.25) * mp.exp(1j * mp.pi * kap / 4)
            return v

        if sector == "symmetric":
            v = th(2, z + c) + th(2, z - c) + th(3, z - c) - th(3, z + c)
        else:
            v = th(2, z - c) + th(3, z - c) - th(2, z + c) - th(3, z + c)
        return complex(v / 2)


@pytest.mark.parametrize(
    "z, c, kappa, sector",
    [
        (0.3, 0.4 + 0.1j, 0.7 + 0.9j, "symmetric"),
        (-1.1, -0.25 - 0.05j, -1.3 + 0.12j, "symmetric"),
        (0.9, 0.6 + 0.2j, 0.2 + 0.4j, "single_wall"),
        (2.5, 0.1 - 0.1j, -0.4 + 1.5j, "single_wall"),
    ],
)
def test_kappa_quarter_bracket_against_mpmath(z, c, kappa, sector):
    ours = _theta_bracket(np.array([z]), c, kappa, sector)[0]
    ref = _mp_four_call(z, c, kappa, sector)
    assert ours == pytest.approx(ref, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("traj", [SMOOTH, LinearWall(L0=100.0, q=2.0)], ids=["smooth", "linear"])
def test_general_form_of_centred_packet_is_the_centred_form(traj):
    # for x0 = p0 = 0 the bracket is theta_2(z, kappa) and the packet is
    # (2 pi)^{-1/4} d^{-1/2} sqrt(pi/a) e^{i m x^2 L'/(2 hbar L)}
    # theta_2(pi x / L, kappa) / sqrt(L0 L), as written out here
    x = np.linspace(-12.0, 12.0, 241)
    L0 = traj.length(0.0)
    a = 0.25 + 1j * C.mass * traj.velocity(0.0) / (2.0 * C.hbar * L0)
    for t in [0.0, 1.0, 6.5]:
        general = evolve_theta_general(G1, traj, C, t, x)
        L, v = traj.length(t), traj.velocity(t)
        centred = (
            (2.0 * math.pi) ** -0.25 * cmath.sqrt(math.pi / a) / math.sqrt(L0 * L)
            * np.exp(1j * C.mass * v * x**2 / (2.0 * C.hbar * L))
            * theta(2, math.pi * x / L, theta_nome(G1, traj, C, t))
        )
        assert np.max(np.abs(general - centred)) <= 1e-15 * np.max(np.abs(centred))


def test_general_form_theta_calls(monkeypatch):
    calls = []

    def counting(kind, z, kappa):
        calls.append(kind)
        return theta(kind, z, kappa)

    monkeypatch.setattr(propagator, "theta", counting)
    x = np.linspace(-8.0, 8.0, 17)
    evolve_theta_general(G1, SMOOTH, C, 2.0, x)
    assert calls == [2]
    calls.clear()
    evolve_theta_general(GaussianParams(d=1.0, x0=5.0, p0=0.5), SMOOTH, C, 2.0, x)
    assert calls == [3, 4]
    calls.clear()
    evolve_theta_general(
        GaussianParams(d=1.0, x0=50.0, p0=0.5), LinearWall(L0=100.0, q=1.0), C, 2.0,
        x + 50.0, sector="single_wall",
    )
    assert calls == [3, 3]
