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
the (time x space) quadrature sum factors: two space moments per mode,
then one term per time node.  Both sums are Clenshaw-Curtis rules, whose
nodes are closed-form and whose weights take one FFT (Waldvogel, BIT
Numer. Math. 46, 195 (2006)); on these analytic integrands they converge
about as fast as Gauss-Legendre (Trefethen, SIAM Rev. 50, 67 (2008)).  All
modes share one pass of the wall per time resolution, and a wall that
turns inside the window is summed on each leg.  The quadrature picks its
own resolution: it doubles both orders until two successive sums agree
to 1e-9 relative.
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
#: MAX_NODES time nodes; a call that reaches the ceiling takes 0.09-0.16 s on
#: 2 cores, most of it reading the wall at its 16,000 time nodes, and the
#: cost grows in proportion to the count
MAX_NODES = 8192


@lru_cache(maxsize=8)
def _cc_rule(n: int):
    """Clenshaw-Curtis rule of order n >= 2 on [-1, 1]: the n + 1 nodes
    -cos(pi k / n), ascending and exactly symmetric, and their weights from
    one inverse FFT of length n (Waldvogel, BIT Numer. Math. 46, 195 (2006))."""
    odd = np.arange(1.0, n, 2.0)
    v = np.concatenate([2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(n - len(odd))])
    g = np.full(n, -1.0)
    g[len(odd)] += n
    g[n - len(odd)] += n
    w = np.fft.ifft(-v[:-1] - v[:0:-1] + g / (n * n - 1 + n % 2)).real
    w = np.append(w, w[0])
    return np.sin(0.5 * math.pi * np.arange(-n, n + 1, 2) / n), 0.5 * (w + w[::-1])


def _cycle_time(traj: WallTrajectory, T: float | None, what: str = "") -> float:
    """T, or the trajectory's period when T is None; it must be positive and
    in the wall's window.  A quantity named by ``what`` is defined only when
    the wall closes a cycle over [0, T]."""
    if T is None:
        T = traj.period
        if T is None:
            raise DomainError("trajectory has no period; pass T explicitly")
    if T <= 0:
        raise DomainError("T must be positive")
    traj._check(T)
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
    """The wall at the Clenshaw-Curtis nodes of order nt on [0, T], one pass
    shared by every mode: (time weights, L, L', Omega^2).  A wall that turns
    inside (0, T) gets the rule on each leg, so that no sum runs across the
    kink; the node at the turn reads the contraction leg, which gives the
    expansion leg's <H> there as well, since L, L'^2 and Omega^2 are
    continuous through the turn."""
    base, w = _cc_rule(nt)
    legs = [(0.0, traj.turn), (traj.turn, T)] if 0.0 < traj.turn < T else [(0.0, T)]
    times = np.concatenate([a + 0.5 * (b - a) * (base + 1.0) for a, b in legs])
    L, v, _, _, w2 = np.array([traj.kinematics(t) for t in times]).T
    return np.concatenate([0.5 * (b - a) * w for a, b in legs]), L, v, w2


def _h_rows(idx: BasisIndex, constants: PhysicalConstants, L, v, w2, nx: int):
    """<H> of mode idx, one row per (box size L, wall speed v, Omega^2 w2), as
    the Clenshaw-Curtis sum of order nx over the box of

        Re psi* H psi = (2/L) trig^2 [(hbar^2/2m) k^2 + B x^2],
        B = (hbar^2/2m) 4 alpha^2 + (m/2) Omega^2.

    With x = (L/2)(u + sigma) and (2/L)(L/2) = 1 each row is
    (hbar^2/2m) k^2 M0 + B (L/2)^2 M2, where M0 = sum w trig^2 and
    M2 = sum w trig^2 (u + sigma)^2 do not depend on the row, and with the
    chirp rate alpha = m L' / (2 hbar L), B (L/2)^2 = (m/8)(L'^2 + Omega^2 L^2).
    """
    u, w_x = _cc_rule(nx)
    s = u + sum(_box_interval(1.0, _box_of(idx)))
    trig2 = (np.sin if idx.is_sine else np.cos)(0.5 * math.pi * idx.nu * s) ** 2
    m0, m2 = w_x @ trig2, w_x @ (trig2 * s**2)
    kin = constants.hbar**2 / (2.0 * constants.mass)
    return kin * (math.pi * idx.nu / L) ** 2 * m0 + constants.mass / 8.0 * (v**2 + w2 * L**2) * m2


def _delta_at(idx: BasisIndex, traj: WallTrajectory, constants: PhysicalConstants,
              T: float, nt: int, nx: int) -> float:
    """delta from the Clenshaw-Curtis sum of order nt in time and nx in space."""
    w_t, L, v, w2 = _time_rows(traj, T, nt)
    return -float(np.dot(w_t, _h_rows(idx, constants, L, v, w2, nx))) / constants.hbar


def dynamical_phase(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    T: float | None = None,
) -> float:
    """delta = -(1/hbar) integral_0^T <H(t)> dt by nested quadrature.

    Clenshaw-Curtis in both time and space over the integrand Re psi* H psi =
    (2/L) trig^2 [(hbar^2/2m)(k^2 + 4 alpha^2 x^2) + (m/2) Omega^2 x^2].  The
    sum over the (time x space) grid is separable: two space moments per
    mode and one term per time node, O(time nodes + space nodes) per mode.
    The rule of order n has the n + 1 nodes -cos(pi k / n) and weights from
    one FFT, built once per order, and the wall is read once per time
    resolution.  The resolution sets itself: the sum starts at orders 256
    in time and 512 in space and doubles both until two successive
    resolutions agree to 1e-9 relative, then returns the finer one.
    ConvergenceError is raised when agreement would take an order above
    2 MAX_NODES in space.  An impulsive velocity reversal (kink in L')
    contributes only through the smooth pieces on either side: when the
    wall turns inside (0, T) the time sum runs over each leg on its own.
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
