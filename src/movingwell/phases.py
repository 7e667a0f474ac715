"""Phase anatomy of the exact mode solutions over a wall cycle.

Each mode carries an explicit phase clock exp(-i mu(t)) with

    mu(t) = hbar pi^2 nu^2 tau(t) / (2 m),

while the dynamical phase a mode accumulates is

    delta = -(1/hbar) integral_0^T <H(t)> dt,

with <H> taken in the instantaneous state (kinetic term plus the
compensating quadratic potential of an accelerating wall).  The two do not
cancel: over a cycle of the wall (L and L' both returned to their initial
values) the mode's wave function is restored, so the leftover

    gamma = -(mu + delta) = (1/hbar) integral <H> dt  -  mu

is the cycle's geometric phase.  It has the closed form

    gamma = (m / (24 hbar)) (1 - 6/(pi^2 nu^2)) integral_0^T (L'^2 - L L'') dt,

whose trajectory factor is exposed as ``wall_action_integral``.  The
dynamical phase is deliberately computed by quadrature of <H(t)> rather
than from the closed form, so the decomposition cross-validates it.  The
quadrature integrand is Re psi* H psi taken pointwise; with |psi| =
sqrt(2/L) |trig| the chirp phase cancels and the imaginary parts of psi''
drop out, so it is formed in real arithmetic over a (time x space) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    BasisIndex,
    _box_interval,
    _box_of,
    _chirp_rate,
    _clock_phase,
    _level_index,
    instantaneous_energy,
)
from .core import (
    ConvergenceError,
    DomainError,
    PhysicalConstants,
    SmoothPeriodicWall,
    WallTrajectory,
)


@dataclass(frozen=True)
class PhaseDecomposition:
    """Cycle phases of one mode: clock mu, dynamical delta, geometric gamma.

    gamma = -(mu + delta); gamma_mod_2pi folds it into [0, 2 pi).
    """

    mu: float
    delta: float
    gamma: float
    gamma_mod_2pi: float


@lru_cache(maxsize=8)
def _gl_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def _cycle_time(traj: WallTrajectory, T: float | None, what: str = "") -> float:
    """T, or the trajectory's period when T is None; it must be positive.
    A quantity named by ``what`` is defined only when the wall closes a
    cycle over [0, T]."""
    if T is None:
        T = traj.period
        if T is None:
            raise DomainError("trajectory has no period; pass T explicitly")
    if T <= 0:
        raise DomainError("T must be positive")
    if what and not traj.is_cyclic(T):
        raise DomainError(f"trajectory is not cyclic over [0, {T}]; {what} undefined")
    return T


def total_phase(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    T: float,
) -> float:
    """Phase clock reading mu(T) = hbar pi^2 nu^2 tau(T) / (2 m).

    The mode's explicit time dependence is the factor exp(-i mu(t)).
    """
    return _clock_phase(idx.nu, constants, traj.tau(T))


def energy_expectation(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
) -> float:
    """<H(t)> in mode idx: box level plus the wall-motion corrections.

    <H> = (pi nu hbar)^2 / (2 m L^2)
        + (m/24) (1 - 6/(pi^2 nu^2)) (L'^2 - L L'').

    The L'^2 piece is kinetic energy carried by the chirp; the L L'' piece
    is the expectation of the compensating quadratic potential.
    """
    L, Lp, Lpp, _, _ = traj.kinematics(t)
    level = instantaneous_energy(idx, L, constants)
    shape = 1.0 - 6.0 / (math.pi**2 * idx.nu**2)
    return level + (constants.mass / 24.0) * shape * (Lp**2 - L * Lpp)


#: points per (time x space) block of the <H> quadrature; rows per block
#: follow from the space resolution
_BLOCK_POINTS = 2**16


def _h_density(idx, traj, constants, ts, u):
    """Re psi* H psi on a (time x space) grid, in real arithmetic.

    Row i holds time ts[i]; column j the box point at unit coordinate
    u[j] in [-1, 1].  Returns (half-width of the box per row, density).
    With |pre|^2 = 2/L the chirp phase cancels, and the 2 i alpha and
    cross terms of psi'' are imaginary against a real trig, so

        Re psi* H psi = (2/L) trig^2 [(hbar^2/2m)(k^2 + 4 alpha^2 x^2)
                                      + (m/2) Omega^2 x^2].
    """
    hbar, m = constants.hbar, constants.mass
    L, v, _, _, w2 = np.array([traj.kinematics(t) for t in ts]).T[:, :, None]
    lo, hi = _box_interval(L, _box_of(idx))
    scale = 0.5 * (hi - lo)
    x = scale * u + 0.5 * (hi + lo)
    k = math.pi * idx.nu / L
    alpha = _chirp_rate(constants, L, v)
    trig = np.sin(k * x) if idx.is_sine else np.cos(k * x)
    # per row the bracket times 2/L is a + b x^2
    kin = hbar**2 / (2.0 * m)
    a = (2.0 / L) * kin * k**2
    b = (2.0 / L) * (4.0 * kin * alpha**2 + 0.5 * m * w2)
    return scale[:, 0], trig**2 * (a + b * x**2)


def dynamical_phase(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    T: float | None = None,
    time_nodes: int = 256,
    space_nodes: int = 512,
    check: bool = True,
) -> float:
    """delta = -(1/hbar) integral_0^T <H(t)> dt by nested quadrature.

    Gauss-Legendre in both time and space over the integrand Re psi* H psi,
    evaluated pointwise in real arithmetic as (2/L) trig^2 [(hbar^2/2m)
    (k^2 + 4 alpha^2 x^2) + (m/2) Omega^2 x^2] on blocks of at most 2^16
    (time, space) points, so memory does not grow with ``time_nodes``.
    With ``check`` the computation repeats at doubled resolution and a
    relative disagreement above 1e-9 raises ConvergenceError.  An impulsive
    velocity reversal (kink in L') contributes only through the smooth
    pieces on either side.
    """
    T = _cycle_time(traj, T)
    if time_nodes < 2 or space_nodes < 2:
        raise DomainError("need at least 2 quadrature nodes in each direction")

    def run(nt, nx):
        base_t, w_t = _gl_nodes(nt)
        base_x, w_x = _gl_nodes(nx)
        ts = 0.5 * T * (base_t + 1.0)
        vals = np.empty(nt)
        rows = max(1, _BLOCK_POINTS // nx)
        for start in range(0, nt, rows):
            block = slice(start, start + rows)
            scale, density = _h_density(idx, traj, constants, ts[block], base_x)
            vals[block] = scale * np.sum(density * w_x, axis=1)
        return -0.5 * T * float(np.sum(w_t * vals)) / constants.hbar

    delta = run(time_nodes, space_nodes)
    if check:
        refined = run(2 * time_nodes, 2 * space_nodes)
        scale = max(abs(delta), abs(refined), 1e-30)
        if abs(delta - refined) / scale > 1e-9:
            raise ConvergenceError(
                f"dynamical phase did not converge: {delta!r} vs {refined!r} "
                "at doubled resolution; raise time_nodes/space_nodes"
            )
        delta = refined
    return delta


def wall_action_integral(traj: WallTrajectory, T: float | None = None) -> float:
    """integral_0^T (L'^2 - L L'') dt, the trajectory factor of gamma.

    Each trajectory evaluates it (``WallTrajectory.wall_action``): in closed
    form for constant-speed and reversing walls (the turn's velocity jump
    adds an impulsive term), breathing walls over whole periods and
    rescaled walls (a factor k^2), by adaptive quadrature otherwise.
    """
    T = _cycle_time(traj, T)
    traj._check(T)
    return traj.wall_action(T)


def geometric_phase(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    T: float | None = None,
) -> float:
    """Closed-form geometric phase of mode idx over a wall cycle.

    gamma = (m / (24 hbar)) (1 - 6/(pi^2 nu^2)) integral_0^T (L'^2 - L L'') dt.

    Requires the trajectory to be cyclic over [0, T] (L and L' both
    restored), otherwise the split of the total phase into dynamical and
    geometric parts is not meaningful and DomainError is raised.
    """
    T = _cycle_time(traj, T, "geometric phase")
    shape = 1.0 - 6.0 / (math.pi**2 * idx.nu**2)
    return (
        constants.mass
        / (24.0 * constants.hbar)
        * shape
        * wall_action_integral(traj, T)
    )


def phase_decomposition(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    T: float | None = None,
    time_nodes: int = 256,
    space_nodes: int = 512,
    check: bool = True,
) -> PhaseDecomposition:
    """Split a mode's cycle phase into clock, dynamical and geometric parts.

    mu comes from the closed-form clock, delta from quadrature of <H>, and
    gamma = -(mu + delta).  For a cyclic trajectory gamma reproduces
    ``geometric_phase`` to quadrature accuracy; the redundancy is the
    point, as the two routes share no code.
    """
    T = _cycle_time(traj, T, "decomposition")
    mu = total_phase(idx, traj, constants, T)
    delta = dynamical_phase(
        idx, traj, constants, T, time_nodes=time_nodes,
        space_nodes=space_nodes, check=check,
    )
    gamma = -(mu + delta)
    return PhaseDecomposition(
        mu=mu, delta=delta, gamma=gamma, gamma_mod_2pi=gamma % (2.0 * math.pi)
    )


def fig_mode_phases(
    constants: PhysicalConstants,
    Lbar0_values=(100.0, 400.0, 800.0, 1000.0),
    n_max: int = 30,
    q: float = 0.1,
    omega: float = 1.0,
):
    """Geometric phase per mode for a family of breathing-wall sizes.

    For each mean box size in ``Lbar0_values`` a breathing wall with the
    given modulation q and frequency omega runs one full period; rows are
    mode indices n = 0..n_max labelling box levels nu = n + 1.  Returns a
    dict with keys "Lbar0", "n", "nu", "gamma", "gamma_mod_2pi"; the phase
    arrays have shape (len(Lbar0_values), n_max + 1).

    gamma grows with the square of the box size, so the folded values wrap
    many times for the larger boxes.
    """
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    sizes = [float(v) for v in Lbar0_values]
    if any(v <= 0 for v in sizes):
        raise DomainError("box sizes must be positive")
    ns = np.arange(n_max + 1)
    nus = ns + 1
    gamma = np.empty((len(sizes), n_max + 1), dtype=float)
    for i, L0 in enumerate(sizes):
        traj = SmoothPeriodicWall(L0=L0, q=q, omega=omega)
        for j, nu in enumerate(nus):
            gamma[i, j] = geometric_phase(_level_index(int(nu)), traj, constants)
    return {
        "Lbar0": np.asarray(sizes),
        "n": ns,
        "nu": nus,
        "gamma": gamma,
        "gamma_mod_2pi": np.mod(gamma, 2.0 * math.pi),
    }
