"""Randomized cross-route sweeps: the theta closed form against the mode
sum and against the fixed-frame Crank-Nicolson oracle.

Hypothesis draws a packet (d, x0, p0), a box (L0, wall kind and its
parameters), a time and a box sector, all inside the wall-tail gate.  The
first sweep requires ``evolve_theta_general`` and ``evolve_sum`` to agree to
the route tolerance of the acceptance gate, with no TruncationWarning from
the mode expansion (every packet sits far inside the gate).  The second
runs ``evolve_fixed_frame`` at two resolutions a factor 2 apart in dx and
dt and requires the theta form to sit where CN's second-order error puts
the exact solution.  Two more sweeps run past a reversing wall's turn, on
offset and boosted packets that keep clear of the walls until the turn,
in either box: the closed cycle route against the re-expansion route,
and CN, with the turn anywhere inside a step, against the re-expansion
route.  A last sweep takes packets that the walls meet before the turn:
wherever the closed form past the turn is more than sqrt(TAIL_GATE) off
the re-expansion, it must refuse the packet; on such packets, in both
sectors, the image cells' bound B must hold the wall term just before
the turn.  The draws are derandomized, so the sweeps are the same on
every run.  One fixed case follows: CN on a single-wall packet the walls
met before the turn, which only the re-expansion follows, closes on it as
the grid is refined.  The last sweep ties the two boxes together with no
CN: a single-wall packet is the odd half of a mirror pair in the doubled
symmetric box, on the closed form, the wall-free form, the mode sum and
the re-expansion past the turn alike.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from movingwell import (
    DomainError,
    FrameMap,
    GaussianParams,
    LinearWall,
    LocalizationWarning,
    PhysicalConstants,
    ReversingLinearWall,
    ScaledWall,
    SmoothPeriodicWall,
    SolverSpec,
    StepSizeWarning,
    TruncationWarning,
    WaveFunctionGrid,
    contraction_coefficients,
    evolve_fixed_frame,
    evolve_sum,
    evolve_theta_general,
    evolve_unconfined_approx,
    expansion_coefficients,
    initial_gaussian,
    to_fixed_frame,
)
from movingwell import propagator
from movingwell.basis import _box_interval

C = PhysicalConstants()
#: sup-norm agreement the acceptance gate asks of the two routes
ROUTE_TOL = 1e-10
#: packet centre at least this many widths from either wall, which keeps
#: the mass beyond the walls near 1e-15, far inside the gate
MARGIN = 9.0
POINTS = 401

unit = st.floats(0.0, 1.0)


@st.composite
def scenarios(draw):
    L0 = 50.0 * (200.0 / 50.0) ** draw(unit)
    d = 0.4 + 1.6 * draw(unit)  # 2 MARGIN d stays below the smallest L0
    sector = draw(st.sampled_from(["symmetric", "single_wall"]))
    lo, hi = _box_interval(L0, sector)
    x0 = lo + MARGIN * d + (hi - lo - 2 * MARGIN * d) * draw(unit)
    p0 = draw(st.floats(-2.0, 2.0))
    kind = draw(st.sampled_from(["linear", "smooth_periodic", "reversing_linear"]))
    t_rev = 4.0 * C.mass * L0**2 / (math.pi * C.hbar)
    if kind == "linear":
        traj = LinearWall(L0=L0, q=draw(st.floats(-0.2, 5.0)))
    elif kind == "smooth_periodic":
        traj = SmoothPeriodicWall(
            L0=L0, q=draw(st.floats(0.02, 0.2)), omega=draw(st.floats(0.5, 2.0))
        )
    else:
        # the theta form and the initial-family sum stop at the turn; a
        # closing wall keeps at least half its size, L(T/2) >= L0/2
        T = draw(st.floats(0.2, 2.0)) * t_rev
        q = draw(st.floats(max(-0.2, -L0 / T), 5.0))
        traj = ReversingLinearWall(L0=L0, q=q, T=T)
        t_rev = 0.999 * T / 2
    t_hi = t_rev if traj.t_max is None else min(t_rev, traj.t_max)
    t = 0.05 * (t_hi / 0.05) ** draw(unit)
    return GaussianParams(d=d, x0=x0, p0=p0), traj, t, sector


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
# an offset packet whose coefficient exponents once cancelled in rounding
# and left a 1.13e-14 norm deficit, above the default tail_tol
@example((GaussianParams(d=1.975, x0=31.321875), LinearWall(L0=50.0, q=3.0), 5.0, "single_wall"))
def test_theta_form_matches_mode_sum(case):
    gauss, traj, t, sector = case
    L = traj.length(t)
    lo, hi = _box_interval(L, sector)
    x = np.linspace(lo, hi, POINTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        expansion = expansion_coefficients(gauss, traj, C, sector=sector)
    summed = evolve_sum(expansion, traj, C, t, x)
    closed = evolve_theta_general(gauss, traj, C, t, x, sector=sector)
    assert float(np.max(np.abs(closed - summed))) <= ROUTE_TOL


#: the CN sweep's coarse run; the fine run doubles both counts
CN_POINTS = 256
CN_STEPS = 200
#: CN error ratio of the coarse and fine runs, 4 for a second-order method
#: (measured 3.978-4.001 over 400 draws of ``resolved_scenarios``)
ORDER_RANGE = (3.5, 4.5)
#: the fine run's error against the theta form, over its Richardson
#: estimate |coarse - fine|/3 (measured 1.000-1.006 over the same draws)
RICHARDSON_SLACK = 1.1


@st.composite
def resolved_scenarios(draw):
    """Packets and walls that the coarse CN grid resolves: a box 20-40 wide
    (dx <= 0.16), a width of at least 6 grid steps, |p0| <= 1 and a wall
    speed |L'| <= 2, so the chirp m L' x / hbar L stays resolved too."""
    L0 = 20.0 * 2.0 ** draw(unit)
    d = L0 * (0.025 + 0.02 * draw(unit))
    sector = draw(st.sampled_from(["symmetric", "single_wall"]))
    lo, hi = _box_interval(L0, sector)
    x0 = lo + MARGIN * d + (hi - lo - 2 * MARGIN * d) * draw(unit)
    p0 = draw(st.floats(-1.0, 1.0))
    t = 0.5 * 10.0 ** draw(unit)
    kind = draw(st.sampled_from(["linear", "smooth_periodic", "reversing_linear"]))
    if kind == "linear":
        traj = LinearWall(L0=L0, q=draw(st.floats(-1.0, 2.0)))
    elif kind == "smooth_periodic":
        omega = draw(st.floats(0.5, 2.0))
        speed = draw(st.floats(0.1, 2.0))
        traj = SmoothPeriodicWall(L0=L0, q=speed / (omega * L0), omega=omega)
    else:
        # t stays before the turn, where the theta form stops
        T = t * (2.05 + 4.0 * draw(unit))
        traj = ReversingLinearWall(L0=L0, q=draw(st.floats(-1.0, 2.0)), T=T)
    return GaussianParams(d=d, x0=x0, p0=p0), traj, t, sector


def fixed_frame_run(gauss, traj, t, sector, n_points, n_steps):
    fmap = FrameMap(traj=traj)
    L0 = fmap.L0
    lo, hi = _box_interval(L0, sector)
    y = np.linspace(lo, hi, n_points + 1)
    start = WaveFunctionGrid(positions=y, values=initial_gaussian(gauss, C, y), time=0.0)
    spec = SolverSpec(n_points=n_points, dt=t / n_steps)
    return evolve_fixed_frame(start, fmap, spec, t, C)


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(resolved_scenarios())
def test_crank_nicolson_converges_onto_the_theta_form(case):
    gauss, traj, t, sector = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coarse = fixed_frame_run(gauss, traj, t, sector, CN_POINTS, CN_STEPS)
        fine = fixed_frame_run(gauss, traj, t, sector, 2 * CN_POINTS, 2 * CN_STEPS)
        fmap = FrameMap(traj=traj)
        x = coarse.positions * fmap.scale(t)
        lab = WaveFunctionGrid(
            positions=x,
            values=evolve_theta_general(gauss, traj, C, t, x, sector=sector),
            time=t,
        )
    exact = to_fixed_frame(lab, fmap, t).values
    # the fine grid holds every coarse point
    err_coarse = np.linalg.norm(coarse.values - exact)
    err_fine = np.linalg.norm(fine.values[::2] - exact)
    estimate = np.linalg.norm(coarse.values - fine.values[::2]) / 3.0
    assert ORDER_RANGE[0] < err_coarse / err_fine < ORDER_RANGE[1]
    assert err_fine <= RICHARDSON_SLACK * estimate


def packet_clear_until_the_turn(draw, L0, d, q_range, p0_max, gap, sector="symmetric"):
    """A reversing wall of box L0 and a packet of width d that keeps ``gap``
    widths from both walls of box ``sector`` until the turn, where the
    closed forms take it as the free Gaussian.

    The wall turns while the free spread |s| is at most 1.25.  The
    clearance from either wall, such as hi(t) - (x0 + p0 t/m) - gap d |s(t)|
    for the wall at hi(t), is concave in t, so holding it at t = 0 and at
    the turn holds it in between.
    """
    turn = 2.0 * C.mass * d * d / C.hbar * (0.25 + 0.5 * draw(unit))
    traj = ReversingLinearWall(L0=L0, q=draw(st.floats(*q_range)), T=2.0 * turn)
    width = d * abs(1.0 + 1j * C.hbar * turn / (2.0 * C.mass * d * d))
    (a0, b0), (a1, b1) = (_box_interval(L, sector) for L in (L0, traj.length(turn)))
    lo0, hi0 = a0 + gap * d, b0 - gap * d
    lo1, hi1 = a1 + gap * width, b1 - gap * width
    # the drift p0 turn/m that both ends of the packet's path allow
    reach = min(hi0 - lo1, hi1 - lo0)
    p0 = min(p0_max, 0.9 * reach * C.mass / turn) * draw(st.floats(-1.0, 1.0))
    shift = p0 * turn / C.mass
    lo, hi = max(lo0, lo1 - shift), min(hi0, hi1 - shift)
    return GaussianParams(d=d, x0=lo + (hi - lo) * draw(unit), p0=p0), traj


#: closed cycle route against the re-expansion route past the turn, per
#: box.  Symmetric: measured 4.63e-14 over 300 draws of ``offset_cycles``,
#: where the pre-turn theta-vs-sum gap of the worst packets reaches 4.6e-14
#: too.  Single wall: 1.12e-13 over 1,092 derandomized draws and 2.36e-13
#: over 1,238 random ones; there x runs to L, not L/2, so the chirp phases
#: r x^2 that both routes round reach four times as far
CYCLE_ROUTE_TOL = {"symmetric": 6e-14, "single_wall": 3e-13}


def reexpanded(gauss, traj, sector="symmetric"):
    """The contraction family of the mode-sum route: the initial expansion
    in box ``sector`` re-expanded at the turn."""
    start = expansion_coefficients(gauss, traj, C, sector=sector)
    return contraction_coefficients(start, traj, C)


@st.composite
def offset_cycles(draw):
    """Packets up to ~90 from the box's centre with |p0| <= 2, 13 widths
    from the walls until the turn (a wall term below e^{-13^2/4} of the peak
    there), at a time past the turn, in either box sector."""
    L0 = 100.0 * 2.0 ** draw(unit)
    d = 0.5 + 1.5 * draw(unit)
    sector = draw(st.sampled_from(["symmetric", "single_wall"]))
    gauss, traj = packet_clear_until_the_turn(draw, L0, d, (-0.2, 4.0), 2.0, 13.0, sector)
    return gauss, traj, traj.turn * (1.0 + draw(unit)), sector


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(offset_cycles())
@example((GaussianParams(d=0.7, x0=70.0), ReversingLinearWall(L0=200.0, q=2.0, T=4.0), 3.0,
          "symmetric"))
def test_closed_cycle_matches_reexpansion_past_the_turn(case):
    gauss, traj, t, sector = case
    x = np.linspace(*_box_interval(traj.length(t), sector), POINTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = evolve_theta_general(gauss, traj, C, t, x, sector=sector)
        numeric = evolve_sum(reexpanded(gauss, traj, sector), traj, C, t, x)
    assert float(np.max(np.abs(closed - numeric))) <= CYCLE_ROUTE_TOL[sector]


def wall_touched_cycle(i, sector="symmetric"):
    """Draw i of a reversing wall and a packet whose free centre at the turn
    lies from 3 widths past a wall to 10 widths inside it, so that the walls
    have met it before the turn, strongly or barely: (gauss, traj)."""
    rng = np.random.default_rng(2500 + i)
    while True:
        L0, turn, d = rng.uniform(15.0, 60.0), rng.uniform(0.5, 6.0), rng.uniform(0.3, 1.5)
        traj = ReversingLinearWall(L0=L0, q=rng.uniform(-1.0, 2.0), T=2.0 * turn)
        width = d * abs(1.0 + 1j * C.hbar * turn / (2.0 * C.mass * d * d))
        # the box centres at t = 0 and at the turn; the centre at the turn,
        # c widths inside one wall, and a start that the initial gate admits
        # with |p0| <= 2 (and a further m L'/2 in the single-wall box)
        c0, c1 = (sum(_box_interval(L, sector)) / 2 for L in (L0, traj.length(turn)))
        X = c1 + rng.choice([-1.0, 1.0]) * (traj.length(turn) / 2 - rng.uniform(-3.0, 10.0) * width)
        reach = L0 / 2 - 5.5 * d
        lo, hi = max(c0 - reach, X - 2.0 * turn), min(c0 + reach, X + 2.0 * turn)
        if lo < hi:
            x0 = rng.uniform(lo, hi)
            return GaussianParams(d=d, x0=x0, p0=C.mass * (X - x0) / turn), traj


def test_turn_gate_refuses_every_packet_the_closed_form_gets_wrong():
    # past the turn the closed form resums the free Gaussian there; against
    # the re-expansion, which follows the walls, its L2 gap over the box is
    # what the walls did before the turn.  Wherever that gap passes
    # sqrt(TAIL_GATE), the closed form must refuse the packet
    tol = math.sqrt(propagator.TAIL_GATE)
    refused, admitted = [], []
    for i in range(40):
        gauss, traj = wall_touched_cycle(i)
        turn = traj.turn
        L = traj.length(turn)
        x = np.linspace(-L / 2, L / 2, 4001)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            summed = evolve_sum(reexpanded(gauss, traj), traj, C, turn, x)
        state = propagator._packet_state(gauss, traj, C, turn)
        resummed = propagator._evaluate(state, traj, C, turn, x)
        gap = math.sqrt(float(np.trapezoid(np.abs(resummed - summed) ** 2, x)))
        try:
            evolve_theta_general(gauss, traj, C, turn, x)
        except DomainError as exc:
            assert f"t = {turn}" in str(exc) and "evolve.route=sum" in str(exc)
            refused.append(gap)
            continue
        assert gap <= tol, (i, gap)
        admitted.append(gap)
    # the sweep crosses the tolerance both ways, and admits packets the
    # walls touched well above rounding
    assert max(refused) > tol and min(refused) < tol
    assert max(admitted) > 1e-8


#: how far the wall term's squared norm just before the turn, by the
#: trapezoid on TURN_POINTS, may pass B^2 (measured at most 1.22e-7 on the
#: test's 18 draws and on 42 draws of both sectors; the worst draw's
#: excess falls to 1.2e-9 at 2,000,001 points, so it is the quadrature's)
IMAGE_SLACK = 3e-7
TURN_POINTS = 200_001


def test_image_cells_bound_the_wall_term_at_the_turn():
    # on the linear leg before the turn, psi - psi_wall-free is the images
    # of the free Gaussian's mass in the neighbouring cells, so its squared
    # norm over the box is at most B^2, which _turn_error's bound
    # sqrt(2 (B^2 + P_out)) carries.  Equal where one wall carries the
    # mass, half of it where both carry the same
    both = ReversingLinearWall(L0=15.0, q=-1.0, T=8.0)
    cases = [(wall_touched_cycle(i, sector), sector)
             for i, sector in enumerate(["symmetric", "single_wall"] * 8)]
    cases += [((GaussianParams(d=0.6, x0=sum(_box_interval(15.0, sector)) / 2), both), sector)
              for sector in ("symmetric", "single_wall")]
    ratios = []
    for (gauss, traj), sector in cases:
        turn = traj.turn
        before = math.nextafter(turn, 0.0)
        x = np.linspace(*_box_interval(traj.length(before), sector), TURN_POINTS)
        state = propagator._packet_state(gauss, traj, C)
        psi = propagator._evaluate(state, traj, C, before, x, sector)
        free = propagator._evaluate(state, traj, C, before, x, sector, wall_free=True)
        box = float(np.trapezoid(np.abs(psi - free) ** 2, x))
        sigma = gauss.d * math.hypot(1.0, C.hbar * turn / (2.0 * C.mass * gauss.d**2))
        X = gauss.x0 + gauss.p0 * turn / C.mass
        outside = propagator._outside(X, sigma, traj.length(turn), sector)
        images = propagator._turn_error(gauss, traj, C, sector) ** 2 / 2 - outside
        assert box <= images * (1.0 + IMAGE_SLACK), (sector, gauss, traj, box / images)
        ratios.append(box / images)
    # B is the wall term itself where one wall carries the mass
    assert max(ratios) > 1.0 - IMAGE_SLACK and min(ratios) < 0.6


#: CN error ratio of the coarse and fine runs past the turn (measured
#: 3.989-3.997 over 300 draws of ``resolved_cycles``, both sectors, with
#: the fine error at most 1.0036 of its Richardson estimate; an engine
#: that read one midpoint across the turn gave 0.93-6.52)
TURN_ORDER_RANGE = (3.95, 4.05)


@st.composite
def resolved_cycles(draw):
    """Reversing walls the coarse CN grid resolves (the box, width, |p0|
    and wall-speed ranges of ``resolved_scenarios``), in either box
    sector, the packet MARGIN widths from the walls until the turn, at a
    time past it, so that the turn falls anywhere inside a step.
    """
    L0 = 20.0 * 2.0 ** draw(unit)
    d = L0 * (0.025 + 0.01 * draw(unit))
    sector = draw(st.sampled_from(["symmetric", "single_wall"]))
    gauss, traj = packet_clear_until_the_turn(draw, L0, d, (-1.0, 2.0), 1.0, MARGIN, sector)
    return gauss, traj, traj.turn * (1.0 + draw(unit)), sector


@settings(
    derandomize=True,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(resolved_cycles())
def test_crank_nicolson_converges_onto_the_cycle_past_the_turn(case):
    # either box against its re-expansion route
    gauss, traj, t, sector = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coarse = fixed_frame_run(gauss, traj, t, sector, CN_POINTS, CN_STEPS)
        fine = fixed_frame_run(gauss, traj, t, sector, 2 * CN_POINTS, 2 * CN_STEPS)
        fmap = FrameMap(traj=traj)
        x = coarse.positions * fmap.scale(t)
        psi = evolve_sum(reexpanded(gauss, traj, sector), traj, C, t, x)
    exact = to_fixed_frame(WaveFunctionGrid(positions=x, values=psi, time=t), fmap, t).values
    err_coarse = np.linalg.norm(coarse.values - exact)
    err_fine = np.linalg.norm(fine.values[::2] - exact)
    estimate = np.linalg.norm(coarse.values - fine.values[::2]) / 3.0
    assert TURN_ORDER_RANGE[0] < err_coarse / err_fine < TURN_ORDER_RANGE[1]
    assert err_fine <= RICHARDSON_SLACK * estimate


#: the wall-touched single-wall packet below: CN's relative L2 gap to the
#: re-expansion at 2,048 points and 1,400 steps, and at twice both
#: (measured 6.51e-4 and 1.91e-4, a ratio of 3.41; 6.58e-5 at 8,192
#: points, a further 2.90: the runs are not yet asymptotic)
TOUCHED_FINE_GAP = 2.5e-4
TOUCHED_RATIO = (3.0, 4.2)


def test_crank_nicolson_converges_onto_a_touched_single_wall_reexpansion():
    # the packet spreads into the fixed wall before the turn at t = 5, so
    # only the re-expansion follows it past the turn; CN on [0, L0] must
    # close on it as the grid is refined.  Its spectrum decays slowly, and
    # the re-expansion, cut at twice the initial labels, misses 6e-10 of
    # the norm
    gauss, traj, t = GaussianParams(d=0.5, x0=4.5), ReversingLinearWall(20.0, 1.0, 10.0), 7.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        expansion = reexpanded(gauss, traj, "single_wall")
    gaps = []
    for n, steps in ((2048, 1400), (4096, 2800)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            run = fixed_frame_run(gauss, traj, t, "single_wall", n, steps)
        fmap = FrameMap(traj=traj)
        x = run.positions * fmap.scale(t)
        psi = evolve_sum(expansion, traj, C, t, x)
        exact = to_fixed_frame(WaveFunctionGrid(positions=x, values=psi, time=t), fmap, t).values
        gaps.append(np.linalg.norm(run.values - exact) / np.linalg.norm(exact))
    assert gaps[1] <= TOUCHED_FINE_GAP
    assert TOUCHED_RATIO[0] < gaps[0] / gaps[1] < TOUCHED_RATIO[1]


#: the walls of the mirror sweep: a linear and a breathing one, and a wall
#: that turns at t = 10, also as the rescaled wall, the other kind that turns
MIRROR_WALLS = (
    LinearWall(L0=50.0, q=2.0),
    SmoothPeriodicWall(L0=60.0, q=0.1, omega=1.0),
    ReversingLinearWall(L0=40.0, q=1.0, T=20.0),
    ScaledWall(ReversingLinearWall(L0=20.0, q=0.5, T=20.0), 2.0),
)
#: sup |single wall - odd pair| / sup |single wall| per route, measured
#: over 600 random draws of ``mirror_pairs``, item 18's 48 cases and grids
#: of the narrowest packets: at most 4.3e-16 on the closed form and 3.4e-16
#: on the wall-free one; 3.2e-14 on the mode sum and 2.7e-14 on the
#: re-expansion, both for d = 0.5 next to the fixed wall, whose sums run to
#: label 210 of both families in the doubled box
MIRROR_TOL = {"closed": 1e-15, "wall_free": 1e-15, "sum": 1e-13, "reexpansion": 1e-13}


@st.composite
def mirror_pairs(draw):
    """A single-wall packet from (d, x0, p0) = (0.5, 3, 0) to (2, 30, -0.8),
    6 widths or more from the fixed wall, on one of MIRROR_WALLS, and a
    time out to 14, past the turn."""
    traj = draw(st.sampled_from(MIRROR_WALLS))
    d = 0.5 + 1.5 * draw(unit)
    x0 = 6.0 * d + (30.0 - 6.0 * d) * draw(unit)
    return GaussianParams(d=d, x0=x0, p0=-0.8 * draw(unit)), traj, 14.0 * draw(unit)


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mirror_pairs())
def test_the_single_wall_is_the_odd_half_of_the_doubled_symmetric_box(case):
    # G(x0, p0) in the box [0, L] evolves as G(x0, p0) - G(-x0, -p0) in the
    # symmetric box [-L, L] of ScaledWall(traj, 2), on x >= 0: the doubled
    # box's sin family is the single wall's, and its cos coefficients of
    # the pair cancel.  The wall-free form drops every image, the mirror
    # packet included, so there the single wall is G alone in the doubled
    # box.  Past the turn the single wall's closed and wall-free forms
    # refuse a packet that the walls met before the turn, and the
    # re-expansions are compared only where they take it: on such a packet
    # each re-expansion misses up to 1e-8 of the norm, cut at its own
    # label, and the two differ by up to 6e-7 of the sup
    gauss, traj, t = case
    mirror = GaussianParams(d=gauss.d, x0=-gauss.x0, p0=-gauss.p0)
    doubled = ScaledWall(traj, 2.0)
    walls = (traj, doubled, doubled)
    x = np.linspace(0.0, traj.length(t), POINTS)

    def check(route, single, pair):
        assert np.max(np.abs(single - pair)) <= MIRROR_TOL[route] * np.max(np.abs(single))

    def sums(starts):
        single, plus, minus = (evolve_sum(s, wall, C, t, x) for s, wall in zip(starts, walls))
        return single, plus - minus

    with warnings.catch_warnings():
        # a packet 6 widths from a wall leaves 1e-9 of its norm past it,
        # and the walls may meet it by t: the pair holds both alike
        warnings.simplefilter("ignore", TruncationWarning)
        warnings.simplefilter("ignore", LocalizationWarning)
        starts = [expansion_coefficients(gauss, traj, C, sector="single_wall")] + [
            expansion_coefficients(g, doubled, C) for g in (gauss, mirror)]
        if t < traj.turn:
            check("sum", *sums(starts))
        try:
            single = evolve_theta_general(gauss, traj, C, t, x, sector="single_wall")
        except DomainError:
            assert t >= traj.turn
            with pytest.raises(DomainError):
                evolve_unconfined_approx(gauss, traj, C, t, x, sector="single_wall")
            return
        closed = [evolve_theta_general(g, doubled, C, t, x) for g in (gauss, mirror)]
        check("closed", single, closed[0] - closed[1])
        check("wall_free", evolve_unconfined_approx(gauss, traj, C, t, x, sector="single_wall"),
              evolve_unconfined_approx(gauss, doubled, C, t, x))
        if t >= traj.turn:
            check("reexpansion", *sums([contraction_coefficients(s, wall, C)
                                        for s, wall in zip(starts, walls)]))
