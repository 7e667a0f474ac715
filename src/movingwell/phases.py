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
integrand Re psi* H psi is real: with |psi| = sqrt(2/L) |trig| the chirp
phase cancels and the imaginary parts of psi'' drop out.  On the box,
x = (L/2)(u + sigma) with u in [-1, 1] (sigma = 0 for the symmetric box, 1
for the single wall), so k x = pi nu (u + sigma)/2 does not depend on t and
the (time x space) Gauss-Legendre sum factors: two space moments per mode,
then one term per time node.  The nodes come from Newton's method on the
Legendre recurrence (Hale and Townsend, SIAM J. Sci. Comput. 35, A652
(2013)), and all modes share one pass of the wall per time resolution.
The quadrature picks its own resolution: it doubles both node counts
until two successive sums agree to 1e-9 relative.
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


#: ``dynamical_phase`` doubles its resolution up to 2 MAX_NODES space and
#: MAX_NODES time nodes; a call that reaches the ceiling takes about 2.5 s on
#: 2 cores, most of it building the 16,384 nodes, and the cost grows as the
#: square of the count
MAX_NODES = 8192

#: Newton steps allowed per node set; from Tricomi's guesses three suffice
#: up to 2 MAX_NODES nodes
_NEWTON_STEPS = 10


def _legendre_pair(n: int, y):
    """P_n and P_{n-1} at x = 1 - y by the three-term recurrence, run in y so
    that nodes near x = 1 keep their digits."""
    p0, p1 = np.ones_like(y), 1.0 - y
    for j in range(1, n):
        p0, p1 = p1, (2 * j + 1) / (j + 1) * (p1 - y * p1) - j / (j + 1) * p0
    return p1, p0


@lru_cache(maxsize=8)
def _gl_nodes(n: int):
    """Gauss-Legendre nodes (ascending) and weights of order n on [-1, 1].

    Newton's method in y = 1 - x on P_n(1 - y), started from Tricomi's
    guesses, for the nodes with x >= 0; the others follow by symmetry.  With
    1 - x^2 = y (2 - y) and P_n' = n (x P_n - P_{n-1}) / (x^2 - 1), each step
    is P_n y (2 - y) / (n (x P_n - P_{n-1})), and the weights
    2 / ((1 - x^2) P_n'^2) are 2 y (2 - y) / (n (x P_n - P_{n-1}))^2 at the
    converged nodes.  Raises ConvergenceError rather than return nodes that
    have not converged.
    """
    theta = math.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    # 1 - (1 - (n - 1) / (8 n^3)) cos(theta), without the cancellation
    y = 2.0 * np.sin(0.5 * theta) ** 2 + (n - 1) / (8.0 * n**3) * np.cos(theta)
    for _ in range(_NEWTON_STEPS):
        pn, pm = _legendre_pair(n, y)
        step = pn * y * (2.0 - y) / (n * (pn - y * pn - pm))
        y = y - step
        # convergence is quadratic: after a relative step below 1e-9 the
        # error left is at rounding, whose floor nears 2e-11 at 2 MAX_NODES
        if np.max(np.abs(step) / y) < 1e-9:
            break
    else:
        raise ConvergenceError(f"Gauss-Legendre nodes of order {n} did not converge")
    pn, pm = _legendre_pair(n, y)
    w = 2.0 * y * (2.0 - y) / (n * (pn - y * pn - pm)) ** 2
    # exact by Sterbenz's lemma for x <= 1/2
    x = 1.0 - y
    if n % 2:
        x[-1] = 0.0
    return np.concatenate([-x, x[::-1][n % 2:]]), np.concatenate([w, w[::-1][n % 2:]])


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


@lru_cache(maxsize=8)
def _time_rows(traj: WallTrajectory, T: float, nt: int):
    """The wall at the nt Gauss-Legendre nodes of [0, T], one pass shared by
    every mode: (time weights, L, L', Omega^2)."""
    base, w = _gl_nodes(nt)
    L, v, _, _, w2 = np.array([traj.kinematics(t) for t in 0.5 * T * (base + 1.0)]).T
    return 0.5 * T * w, L, v, w2


def _h_rows(idx: BasisIndex, constants: PhysicalConstants, L, v, w2, nx: int):
    """<H> of mode idx, one row per (box size L, wall speed v, Omega^2 w2), as
    the nx-node Gauss-Legendre sum over the box of

        Re psi* H psi = (2/L) trig^2 [(hbar^2/2m) k^2 + B x^2],
        B = (hbar^2/2m) 4 alpha^2 + (m/2) Omega^2.

    With x = (L/2)(u + sigma) and (2/L)(L/2) = 1 each row is
    (hbar^2/2m) k^2 M0 + B (L/2)^2 M2, where M0 = sum w trig^2 and
    M2 = sum w trig^2 (u + sigma)^2 do not depend on the row, and with the
    chirp rate alpha = m L' / (2 hbar L), B (L/2)^2 = (m/8)(L'^2 + Omega^2 L^2).
    """
    u, w_x = _gl_nodes(nx)
    s = u + sum(_box_interval(1.0, _box_of(idx)))
    trig2 = (np.sin if idx.is_sine else np.cos)(0.5 * math.pi * idx.nu * s) ** 2
    m0, m2 = w_x @ trig2, w_x @ (trig2 * s**2)
    kin = constants.hbar**2 / (2.0 * constants.mass)
    return kin * (math.pi * idx.nu / L) ** 2 * m0 + constants.mass / 8.0 * (v**2 + w2 * L**2) * m2


def _delta_at(idx: BasisIndex, traj: WallTrajectory, constants: PhysicalConstants,
              T: float, nt: int, nx: int) -> float:
    """delta from the Gauss-Legendre sum at nt time and nx space nodes."""
    w_t, L, v, w2 = _time_rows(traj, T, nt)
    return -float(np.dot(w_t, _h_rows(idx, constants, L, v, w2, nx))) / constants.hbar


def dynamical_phase(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    T: float | None = None,
) -> float:
    """delta = -(1/hbar) integral_0^T <H(t)> dt by nested quadrature.

    Gauss-Legendre in both time and space over the integrand Re psi* H psi =
    (2/L) trig^2 [(hbar^2/2m)(k^2 + 4 alpha^2 x^2) + (m/2) Omega^2 x^2].  The
    sum over the (time x space) grid is separable: two space moments per
    mode and one term per time node, O(time nodes + space nodes) per mode.
    The nodes come from Newton's method on the Legendre recurrence, built
    once per order, and the wall is read once per time resolution.  The
    resolution sets itself: the sum starts at 256 time and 512 space nodes
    and doubles both until two successive resolutions agree to 1e-9
    relative, then returns the finer one.  ConvergenceError is raised when
    agreement would take more than 2 MAX_NODES space nodes.  An impulsive
    velocity reversal (kink in L') contributes only through the smooth
    pieces on either side.
    """
    T = _cycle_time(traj, T)
    nt, nx = 256, 512
    delta = _delta_at(idx, traj, constants, T, nt, nx)
    while nx <= MAX_NODES:
        nt, nx = 2 * nt, 2 * nx
        coarse, delta = delta, _delta_at(idx, traj, constants, T, nt, nx)
        scale = max(abs(coarse), abs(delta), 1e-30)
        if abs(coarse - delta) / scale <= 1e-9:
            return delta
    raise ConvergenceError(
        f"dynamical phase did not converge: {coarse!r} vs {delta!r} at {nt} time "
        f"and {nx} space nodes, the ceiling of 2 MAX_NODES = {2 * MAX_NODES}"
    )


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
) -> PhaseDecomposition:
    """Split a mode's cycle phase into clock, dynamical and geometric parts.

    mu comes from the closed-form clock, delta from quadrature of <H> at the
    resolution ``dynamical_phase`` sets itself, and gamma = -(mu + delta).
    For a cyclic trajectory gamma reproduces ``geometric_phase`` to
    quadrature accuracy; the redundancy is the point, as the two routes
    share no code.
    """
    T = _cycle_time(traj, T, "decomposition")
    mu = total_phase(idx, traj, constants, T)
    delta = dynamical_phase(idx, traj, constants, T)
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
