import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import movingwell
from movingwell import core
from movingwell.basis import BasisIndex, basis_solution
from movingwell.core import (
    DomainError,
    GaussianParams,
    Kinematics,
    LinearWall,
    PhysicalConstants,
    ReversingLinearWall,
    ScaledWall,
    SmoothPeriodicWall,
    WaveFunctionGrid,
)
from movingwell.oracle import (
    FrameMap,
    SolverSpec,
    evolve_fixed_frame,
    unconfined_tdlo_propagate,
)
from movingwell.phases import dynamical_phase, total_phase
from movingwell.propagator import (
    SpectralExpansion,
    contraction_coefficients,
    evolve_sum,
    evolve_theta_general,
    evolve_unconfined_approx,
    expansion_coefficients,
    initial_gaussian,
)

RNG = np.random.default_rng(20240613)


def central_diff(f, t, h):
    return (f(t + h) - f(t - h)) / (2 * h)


def all_trajectories():
    return [
        LinearWall(L0=100.0, q=2.0),
        LinearWall(L0=100.0, q=0.0),
        LinearWall(L0=50.0, q=-1.0),
        ReversingLinearWall(L0=100.0, q=2.0, T=4.0),
        SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0),
        SmoothPeriodicWall(L0=30.0, q=-0.4, omega=2.5),
        ScaledWall(inner=SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0), k=3.0),
    ]


def sample_times(traj, n=25):
    hi = traj.t_max if traj.t_max is not None else 10.0
    # stay away from the window edges so finite differences fit inside
    return RNG.uniform(0.02 * hi, 0.98 * hi, size=n)


@pytest.mark.parametrize("traj", all_trajectories(), ids=lambda tr: type(tr).__name__)
def test_velocity_is_length_derivative(traj):
    for t in sample_times(traj):
        h = 1e-6 * max(1.0, t)
        if abs(t - traj.turn) < 2 * h:  # skip the kink where L' is discontinuous
            continue
        fd = central_diff(traj.length, t, h)
        assert fd == pytest.approx(traj.velocity(t), abs=1e-5 * (1 + abs(fd)))


@pytest.mark.parametrize("traj", all_trajectories(), ids=lambda tr: type(tr).__name__)
def test_acceleration_is_velocity_derivative(traj):
    for t in sample_times(traj):
        h = 1e-5 * max(1.0, t)
        if abs(t - traj.turn) < 2 * h:
            continue
        fd = central_diff(traj.velocity, t, h)
        assert fd == pytest.approx(traj.acceleration(t), abs=2e-4 * (1 + abs(fd)))


@pytest.mark.parametrize("traj", all_trajectories(), ids=lambda tr: type(tr).__name__)
def test_tau_matches_quadrature(traj):
    for t in sorted(sample_times(traj, n=8)):
        # tell quad where the integrand has a kink
        pts = [traj.turn] if traj.turn < t else None
        val, err = quad(lambda s: traj.length(s) ** -2, 0.0, t, limit=200, points=pts)
        assert traj.tau(t) == pytest.approx(val, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("traj", all_trajectories(), ids=lambda tr: type(tr).__name__)
def test_omega_squared_consistent_with_generic_form(traj):
    for t in sample_times(traj, n=10):
        generic = -traj.acceleration(t) / traj.length(t)
        assert traj.omega_squared(t) == pytest.approx(generic, rel=1e-12, abs=1e-15)


#: the accessors that read one field of ``WallTrajectory.kinematics``
_ACCESSORS = {
    "length": "L",
    "velocity": "v",
    "acceleration": "a",
    "tau": "tau",
    "omega_squared": "w2",
}

_SCALED_REVERSING = ScaledWall(inner=ReversingLinearWall(L0=100.0, q=2.0, T=4.0), k=3.0)


@pytest.mark.parametrize(
    "traj", all_trajectories() + [_SCALED_REVERSING], ids=lambda tr: type(tr).__name__
)
def test_accessors_read_their_kinematics_field(traj):
    times = list(sample_times(traj)) + [0.0]
    if math.isfinite(traj.turn):
        # both legs next to the turn, and the turn itself
        times += [math.nextafter(traj.turn, 0.0), traj.turn, traj.turn + 1e-9]
    for t in times:
        kin = traj.kinematics(t)
        assert type(kin) is Kinematics
        for accessor, field_name in _ACCESSORS.items():
            assert getattr(traj, accessor)(t) == getattr(kin, field_name), (accessor, t)


def test_only_the_base_class_owns_the_accessors():
    # a trajectory supplies _kinematics; the accessors and the window check
    # live once, on WallTrajectory
    tree = ast.parse((Path(movingwell.__file__).parent / "core.py").read_text())
    checks = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            if cls.name != "WallTrajectory":
                assert fn.name not in _ACCESSORS, (cls.name, fn.name)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "self._check":
                    checks.append((cls.name, fn.name))
    assert checks == [("WallTrajectory", "kinematics")]


def test_array_records_compare_by_identity():
    x = np.linspace(0.0, 1.0, 5)
    makers = [
        lambda: WaveFunctionGrid(positions=x, values=np.ones(5), time=0.0),
        lambda: SpectralExpansion("symmetric", ([1.0, 0.0], [0.0, 0.0])),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b, a}) == 2


def test_smooth_periodic_frozen_values():
    traj = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    # over one full period the sine term vanishes: tau = T / (L0^2 (1+q))
    T = traj.period
    assert T == pytest.approx(2 * math.pi)
    assert traj.tau(T) == pytest.approx(2 * math.pi / 11000.0, rel=1e-14)
    # t=0: u = 1+q, L''(0) = L0 sqrt(1+q) q w^2 / (2 (1+q)^{3/2}) = L0 q w^2/(2(1+q))
    assert traj.omega_squared(0.0) == pytest.approx(-0.1 / 2.2, rel=1e-12)
    assert traj.length(0.0) == pytest.approx(100.0, rel=1e-15)
    assert traj.velocity(0.0) == 0.0


def test_linear_tau_closed_form():
    traj = LinearWall(L0=100.0, q=2.0)
    assert traj.tau(4.0) == pytest.approx(4.0 / (100.0 * 108.0), rel=1e-14)
    still = LinearWall(L0=7.0, q=0.0)
    assert still.tau(3.0) == pytest.approx(3.0 / 49.0, rel=1e-14)


def test_linear_contracting_window():
    traj = LinearWall(L0=50.0, q=-1.0)
    assert traj.t_max == pytest.approx(49.5)
    traj.length(49.0)
    with pytest.raises(DomainError):
        traj.length(49.9)


def test_reversing_wall_geometry():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    assert traj.length(0.0) == 100.0
    assert traj.length(2.0) == 104.0  # turning point
    assert traj.length(4.0) == 100.0
    assert traj.velocity(1.0) == 2.0
    assert traj.velocity(3.0) == -2.0
    # the switch instant belongs to the contraction leg
    assert traj.velocity(2.0) == -2.0
    assert traj.half_length == 104.0
    assert not traj.is_cyclic(4.0)  # L returns but L' flips sign


def test_reversing_wall_tau_continuity():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    eps = 1e-9
    assert traj.tau(2.0 - eps) == pytest.approx(traj.tau(2.0), rel=1e-7)
    tau_half = 4.0 / (100.0 * 208.0)  # T / (L0 (2 L0 + q T))
    assert traj.tau(2.0) == pytest.approx(tau_half, rel=1e-13)


def test_scaled_wall_relations():
    inner = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
    k = 4.0
    traj = ScaledWall(inner=inner, k=k)
    for t in [0.0, 1.3, 5.9]:
        assert traj.length(t) == pytest.approx(k * inner.length(t), rel=1e-15)
        assert traj.velocity(t) == pytest.approx(k * inner.velocity(t), rel=1e-15)
        assert traj.tau(t) == pytest.approx(inner.tau(t) / k**2, rel=1e-15)
        assert traj.omega_squared(t) == pytest.approx(
            inner.omega_squared(t), rel=1e-15
        )
    assert traj.L0 == pytest.approx(400.0)
    assert traj.period == inner.period


def test_smooth_periodic_is_cyclic():
    # at omega = 1e150, L' at the period's end is a rounding of about 1e135
    # from 0: against L0 it stayed open, against the span's own speed
    # L0 / T ~ 1.6e151 it closes
    for omega in (1.0, 1e150):
        traj = SmoothPeriodicWall(L0=100.0, q=0.1, omega=omega)
        assert traj.is_cyclic(traj.period)
        assert not traj.is_cyclic(0.37 * traj.period)
    assert traj.velocity(traj.period) != 0.0
    # static wall is cyclic over any horizon
    assert LinearWall(L0=10.0, q=0.0).is_cyclic(5.0)
    with pytest.raises(DomainError, match="T > 0"):
        traj.is_cyclic(0.0)


def test_validation_errors():
    with pytest.raises(DomainError):
        LinearWall(L0=-1.0, q=0.0)
    with pytest.raises(DomainError):
        SmoothPeriodicWall(L0=10.0, q=1.0, omega=1.0)
    with pytest.raises(DomainError):
        SmoothPeriodicWall(L0=10.0, q=0.5, omega=-1.0)
    with pytest.raises(DomainError):
        ReversingLinearWall(L0=10.0, q=-6.0, T=4.0)  # collapses before T/2
    with pytest.raises(DomainError):
        ScaledWall(inner=LinearWall(L0=10.0, q=0.0), k=0.0)
    with pytest.raises(DomainError):
        GaussianParams(d=0.0)
    with pytest.raises(DomainError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(DomainError):
        LinearWall(L0=10.0, q=1.0).length(-0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(bad):
    makers = [
        lambda: PhysicalConstants(hbar=bad),
        lambda: PhysicalConstants(mass=bad),
        lambda: GaussianParams(d=bad),
        lambda: GaussianParams(d=1.0, x0=bad),
        lambda: GaussianParams(d=1.0, p0=bad),
        lambda: LinearWall(L0=bad, q=0.0),
        lambda: LinearWall(L0=10.0, q=bad),
        lambda: ReversingLinearWall(L0=bad, q=1.0, T=4.0),
        lambda: ReversingLinearWall(L0=10.0, q=bad, T=4.0),
        lambda: ReversingLinearWall(L0=10.0, q=1.0, T=bad),
        lambda: SmoothPeriodicWall(L0=bad, q=0.1, omega=1.0),
        lambda: SmoothPeriodicWall(L0=10.0, q=bad, omega=1.0),
        lambda: SmoothPeriodicWall(L0=10.0, q=0.1, omega=bad),
        lambda: ScaledWall(inner=LinearWall(L0=10.0, q=0.0), k=bad),
    ]
    for make in makers:
        with pytest.raises(DomainError):
            make()


B = core.SCALE_MAX
#: (maker, field, edge) for each bound a constructor makes
EDGES = [
    (lambda v: PhysicalConstants(hbar=v), "hbar", 1 / B),
    (lambda v: PhysicalConstants(hbar=v), "hbar", B),
    (lambda v: PhysicalConstants(mass=v), "mass", 1 / B),
    (lambda v: PhysicalConstants(mass=v), "mass", B),
    (lambda v: GaussianParams(d=v), "d", 1 / B),
    (lambda v: GaussianParams(d=v), "d", B),
    (lambda v: GaussianParams(d=1.0, x0=v), "x0", -B),
    (lambda v: GaussianParams(d=1.0, p0=v), "p0", B),
    (lambda v: LinearWall(L0=v, q=1.0), "L0", 1 / B),
    (lambda v: LinearWall(L0=v, q=1.0), "L0", B),
    (lambda v: LinearWall(L0=10.0, q=v), "q", B),
    (lambda v: LinearWall(L0=10.0, q=v), "q", -B),
    (lambda v: ReversingLinearWall(L0=v, q=1.0, T=4.0), "L0", 1 / B),
    (lambda v: ReversingLinearWall(L0=10.0, q=v, T=4.0), "q", B),
    (lambda v: ReversingLinearWall(L0=10.0, q=1.0, T=v), "T", B),
    (lambda v: SmoothPeriodicWall(L0=v, q=0.1, omega=1.0), "L0", B),
    (lambda v: SmoothPeriodicWall(L0=10.0, q=0.1, omega=v), "omega", B),
    (lambda v: ScaledWall(inner=LinearWall(L0=10.0, q=0.0), k=v), "k", 1 / B),
    (lambda v: ScaledWall(inner=LinearWall(L0=10.0, q=0.0), k=v), "k", B),
]


@pytest.mark.parametrize("make, name, edge", EDGES)
def test_bounds_take_their_edge_and_refuse_past_it(make, name, edge):
    make(edge)
    past = math.nextafter(edge, 0.0 if abs(edge) < 1 else math.copysign(math.inf, edge))
    with pytest.raises(DomainError, match=f"^{name} must be at "):
        make(past)


def test_time_and_frequency_have_no_floor():
    # nothing divides by T or omega, so neither needs a lower bound
    ReversingLinearWall(L0=10.0, q=1.0, T=1e-300)
    SmoothPeriodicWall(L0=10.0, q=0.1, omega=1e-300)


@pytest.mark.parametrize("make, message", [
    (lambda: PhysicalConstants(mass=0.0), "mass must be positive"),
    (lambda: GaussianParams(d=-1.0), "d must be positive"),
    (lambda: SmoothPeriodicWall(L0=10.0, q=1.0, omega=1.0), "q must lie in (-1, 1)"),
    (lambda: ReversingLinearWall(L0=10.0, q=-6.0, T=4.0), "L0 + q*T/2 must be positive"),
    (lambda: ScaledWall(inner=LinearWall(L0=10.0, q=0.0), k=0.0), "k must be positive"),
])
def test_messages_lead_with_the_field(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value).startswith(message)


def test_wavefunction_grid_norm_and_immutability():
    x = np.linspace(-8.0, 8.0, 3201)
    psi = (2 * math.pi) ** -0.25 * np.exp(-(x**2) / 4.0)
    grid = WaveFunctionGrid(positions=x, values=psi, time=0.0)
    assert grid.norm == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        grid.values[3] = 0.0
    with pytest.raises(DomainError):
        WaveFunctionGrid(positions=np.array([0.0, 1.0, 3.0]), values=np.zeros(3), time=0.0)


@pytest.mark.parametrize("module", ["basis.py", "propagator.py", "cli.py", "phases.py"])
def test_only_the_trajectory_says_where_it_turns(module):
    # basis, propagator, cli and phases read WallTrajectory.turn: no class
    # checks for the reversing wall and no T / 2 of their own
    tree = ast.parse((Path(movingwell.__file__).parent / module).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            assert "ReversingLinearWall" not in ast.unparse(node.args[1]), node.lineno
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            halving = isinstance(node.right, ast.Constant) and node.right.value == 2
            assert not (halving and ast.unparse(node.left).split(".")[-1] == "T"), node.lineno


#: d/L0 = 0.101: inside the tail gate, wide enough to warn
_WIDE = GaussianParams(d=10.1)
_REV = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
_C = PhysicalConstants()


def _coarse_cn_start():
    y = np.linspace(-50.0, 50.0, 1025)
    values = initial_gaussian(GaussianParams(d=1.0), _C, y)
    return WaveFunctionGrid(positions=y, values=values, time=0.0)


#: calls whose warnings arise in the package, most of them below one public
#: route or more; each warning must name the calling line in this file
_WARNING_CALLS = {
    "theta_general": lambda: evolve_theta_general(_WIDE, LinearWall(100.0, 1.0), _C, 1.0, 0.0),
    "unconfined": lambda: evolve_unconfined_approx(
        GaussianParams(d=1.0), LinearWall(100.0, 1.0), _C, 30.0, 0.0
    ),
    "expansion": lambda: expansion_coefficients(_WIDE, LinearWall(100.0, 1.0), _C),
    "cycle_after_turn": lambda: expansion_coefficients(_WIDE, _REV, _C, t=3.0),
    "reexpansion": lambda: contraction_coefficients(expansion_coefficients(_WIDE, _REV, _C),
                                                    _REV, _C),
    "fixed_frame_dt": lambda: evolve_fixed_frame(
        _coarse_cn_start(), FrameMap(traj=LinearWall(100.0, 0.0)),
        SolverSpec(n_points=1024, dt=0.3), 0.6, _C,
    ),
    "unconfined_cn_dt": lambda: unconfined_tdlo_propagate(
        GaussianParams(d=1.0), LinearWall(100.0, 0.0),
        SolverSpec(n_points=1024, dt=0.3, x_min=-40.0, x_max=40.0), 0.6, _C,
    ),
}


@pytest.mark.parametrize("name", sorted(_WARNING_CALLS))
def test_warnings_name_the_callers_line(name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _WARNING_CALLS[name]()
    assert caught
    for w in caught:
        assert w.filename == __file__, (w.category.__name__, w.filename, w.lineno)


_IDX = BasisIndex("even", 0)

#: public routes that read the wall at a caller's time
_TIME_ROUTES = {
    "kinematics": lambda traj, t: traj.kinematics(t),
    "basis_solution": lambda traj, t: basis_solution(_IDX, traj, _C, t, 0.0),
    "evolve_sum": lambda traj, t: evolve_sum(
        SpectralExpansion("symmetric", ([1.0, 0.0], [0.0, 0.0])), traj, _C, t, 0.0
    ),
    "total_phase": lambda traj, t: total_phase(_IDX, traj, _C, t),
    "dynamical_phase": lambda traj, t: dynamical_phase(_IDX, traj, _C, t),
}


@pytest.mark.parametrize("route", sorted(_TIME_ROUTES))
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("traj", all_trajectories(), ids=lambda tr: type(tr).__name__)
def test_non_finite_times_are_rejected(traj, bad, route):
    # a DomainError that names t and its value, never a NaN result, a bare
    # math domain error or a message about some other condition
    with pytest.raises(DomainError, match=f"t must be finite, got {bad}"):
        _TIME_ROUTES[route](traj, bad)
