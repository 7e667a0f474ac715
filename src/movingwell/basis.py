"""Exact mode solutions for a box whose walls follow a trajectory L(t).

The symmetric box occupies [-L/2, L/2] and carries two sectors: ``even``
modes cos(pi nu x / L) with odd label nu = 2n+1, and ``odd`` modes
sin(pi nu x / L) with even label nu = 2n.  The ``single_wall`` sector is a
box [0, L] with one fixed and one moving wall, modes sin(pi nu x / L),
nu = n.

Each mode generates an exact time-dependent solution

    psi_nu(x, t) = sqrt(2/L) exp(i m x^2 L'/(2 hbar L))
                   exp(-i hbar pi^2 nu^2 tau_eff(t) / (2 m))
                   trig(pi nu x / L),

which satisfies  i hbar d_t psi = -hbar^2/(2m) psi'' + (m/2) W(t) x^2 psi
with W(t) = -L''/L.  For walls moving at constant speed (W = 0) this is a
solution of the plain box problem; for accelerating walls the quadratic
term is the price of keeping a closed form.  ``schrodinger_residual``
measures both statements numerically.

For the reversing trajectory the two constant-speed legs carry different
solution families; ``basis_solution`` returns the family of whichever leg
contains t, with the contraction family's phase clock tau_eff restarted at
the turning point.  ``reversal_mismatch_ratio`` quantifies the jump between
the families at the turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    PhysicalConstants,
    ReversingLinearWall,
    WallTrajectory,
)

_SECTORS = ("even", "odd", "single_wall")


@dataclass(frozen=True)
class BasisIndex:
    """Mode label: sector plus non-negative integer n.

    nu (the trig wavenumber multiplier) is 2n+1 for even modes (n >= 0),
    2n for odd modes (n >= 1) and n for single-wall modes (n >= 1).
    """

    sector: str
    n: int

    def __post_init__(self) -> None:
        if self.sector not in _SECTORS:
            raise DomainError(f"sector must be one of {_SECTORS}, got {self.sector!r}")
        if self.sector == "even":
            if self.n < 0:
                raise DomainError("even sector needs n >= 0")
        elif self.n < 1:
            raise DomainError(f"{self.sector} sector needs n >= 1")

    @property
    def nu(self) -> int:
        if self.sector == "even":
            return 2 * self.n + 1
        if self.sector == "odd":
            return 2 * self.n
        return self.n

    @property
    def is_sine(self) -> bool:
        return self.sector != "even"


def _in_box(x: np.ndarray, L: float, sector: str) -> np.ndarray:
    """Which points of x lie in a box of size L: [0, L] for the
    ``single_wall`` sector, [-L/2, L/2] for every symmetric-box sector
    ("symmetric", "even", "odd").  NaN counts as outside."""
    if sector == "single_wall":
        return (x >= 0.0) & (x <= L)
    return np.abs(x) <= L / 2


def _mode_parts(idx: BasisIndex, constants: PhysicalConstants, L: float, v: float, tau: float, x):
    """Pieces of mode ``idx`` in a box of size L whose wall moves at speed v.

    Returns the chirp rate m v / (2 hbar L), the clock phase
    hbar pi^2 nu^2 tau / (2 m), the wavenumber k = pi nu / L and the trig
    factor sin(k x) or cos(k x).
    """
    hbar, m = constants.hbar, constants.mass
    k = math.pi * idx.nu / L
    trig = np.sin(k * x) if idx.is_sine else np.cos(k * x)
    rate = m * v / (2.0 * hbar * L)
    return rate, hbar * math.pi**2 * idx.nu**2 * tau / (2.0 * m), k, trig


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def instantaneous_eigenstate(idx: BasisIndex, L: float, x):
    """Stationary-box eigenfunction at box size L; zero outside the box."""
    if L <= 0:
        raise DomainError("L must be positive")
    xa, scalar = _as_array(x)
    k = math.pi * idx.nu / L
    trig = np.sin(k * xa) if idx.is_sine else np.cos(k * xa)
    out = math.sqrt(2.0 / L) * trig
    out = np.where(_in_box(xa, L, idx.sector), out, 0.0)
    return float(out[0]) if scalar else out


def instantaneous_energy(idx: BasisIndex, L: float, constants: PhysicalConstants) -> float:
    """Box level nu at size L: (pi nu hbar)^2 / (2 m L^2)."""
    if L <= 0:
        raise DomainError("L must be positive")
    return (math.pi * idx.nu * constants.hbar) ** 2 / (2.0 * constants.mass * L**2)


def _tau_eff(traj: WallTrajectory, t: float) -> float:
    # the contraction leg of a reversing wall carries its own phase clock,
    # zeroed at the turning point
    if isinstance(traj, ReversingLinearWall) and t >= traj.T / 2:
        return traj.tau(t) - traj.tau(traj.T / 2)
    return traj.tau(t)


def basis_solution(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
    x,
):
    """Exact chirped mode solution at time t; zero outside the box."""
    xa, scalar = _as_array(x)
    L = traj.length(t)
    rate, phase_t, _, trig = _mode_parts(
        idx, constants, L, traj.velocity(t), _tau_eff(traj, t), xa
    )
    out = math.sqrt(2.0 / L) * np.exp(1j * (rate * xa**2 - phase_t)) * trig
    out = np.where(_in_box(xa, L, idx.sector), out, 0.0)
    return complex(out[0]) if scalar else out


def transformed_basis_solution(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
    y,
):
    """The same solution seen in box-fixed coordinates y = L(0) x / L(t).

    psi_tilde(y, t) = sqrt(L/L0) psi(L y / L0, t): the box edge stays at
    y = +-L0/2 (or y in [0, L0] for the single-wall sector) for all t, and
    the chirp rate picks up a factor L L'/L0^2.
    """
    ya, scalar = _as_array(y)
    L0 = traj.length(0.0)
    # a box of size L0 whose wall speed is L L'/L0 has the right chirp rate
    rate, phase_t, _, trig = _mode_parts(
        idx, constants, L0, traj.length(t) * traj.velocity(t) / L0, _tau_eff(traj, t), ya
    )
    out = math.sqrt(2.0 / L0) * np.exp(1j * (rate * ya**2 - phase_t)) * trig
    out = np.where(_in_box(ya, L0, idx.sector), out, 0.0)
    return complex(out[0]) if scalar else out


def _solution_and_second_derivative(idx, traj, constants, t, xa):
    """psi and its analytic d^2/dx^2 on the open interior (no domain mask)."""
    L = traj.length(t)
    alpha, phase_t, k, trig = _mode_parts(
        idx, constants, L, traj.velocity(t), _tau_eff(traj, t), xa
    )
    pre = math.sqrt(2.0 / L) * np.exp(1j * (alpha * xa**2 - phase_t))
    if idx.is_sine:
        cross = +4j * alpha * k * xa * np.cos(k * xa)
    else:
        cross = -4j * alpha * k * xa * np.sin(k * xa)
    psi = pre * trig
    psi_xx = pre * ((2j * alpha - 4.0 * alpha**2 * xa**2 - k**2) * trig + cross)
    return psi, psi_xx


def schrodinger_residual(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
    potential: str = "well",
    dt: float = 1e-3,
    n_points: int = 1024,
) -> float:
    """Relative equation residual of the mode solution at time t.

    Compares the centred time difference i hbar (psi(t+dt) - psi(t-dt)) /
    (2 dt) against H psi(t) with the analytic spatial derivative, on grid
    interior points a safe margin away from the walls.  ``potential``
    selects H: "well" is the bare box, "tdlo" adds the quadratic term
    (m/2) W(t) x^2 that accelerating walls induce.  Returns
    ||residual||_2 / ||H psi||_2; for an exact family this decays as dt^2.
    """
    if potential not in ("well", "tdlo"):
        raise DomainError(f"potential must be 'well' or 'tdlo', got {potential!r}")
    if dt <= 0:
        raise DomainError("dt must be positive")
    if n_points < 8 * idx.nu:
        raise DomainError(
            f"n_points = {n_points} cannot resolve nu = {idx.nu}; need at least {8 * idx.nu}"
        )
    hbar, m = constants.hbar, constants.mass
    L = traj.length(t)
    if idx.sector == "single_wall":
        grid = np.linspace(0.0, L, n_points + 1)
    else:
        grid = np.linspace(-L / 2, L / 2, n_points + 1)
    xa = grid[4:-4]
    # the wall must not cross the retained points within the stencil window
    margin = 4 * (grid[1] - grid[0])
    if abs(traj.velocity(t)) * dt >= margin:
        raise DomainError("dt too large: the wall crosses interior grid points")
    psi_p = basis_solution(idx, traj, constants, t + dt, xa)
    psi_m = basis_solution(idx, traj, constants, t - dt, xa)
    psi, psi_xx = _solution_and_second_derivative(idx, traj, constants, t, xa)
    h_psi = -(hbar**2) / (2.0 * m) * psi_xx
    if potential == "tdlo":
        h_psi = h_psi + 0.5 * m * traj.omega_squared(t) * xa**2 * psi
    lhs = 1j * hbar * (psi_p - psi_m) / (2.0 * dt)
    denom = float(np.linalg.norm(h_psi))
    if denom == 0.0:
        raise DomainError("H psi vanishes on the evaluation grid")
    return float(np.linalg.norm(lhs - h_psi)) / denom


def reversal_mismatch_ratio(
    idx: BasisIndex,
    traj: ReversingLinearWall,
    constants: PhysicalConstants,
    x,
):
    """Jump between the expansion and contraction families at the turn.

    Both legs of a reversing wall carry exact solutions; at t = T/2 the
    pointwise quotient (expansion value) / (contraction value) is

        exp(i m q x^2 / (hbar L_h)) exp(-i hbar pi^2 nu^2 tau(T/2) / (2 m)),

    with L_h the box size at the turn.  The trig factors cancel, so the
    quotient is well defined except at interior nodes, where it is 0/0 and
    a DomainError is raised.  A packet expanded in one family must absorb
    this factor before re-expansion in the other.
    """
    if not isinstance(traj, ReversingLinearWall):
        raise DomainError("reversal_mismatch_ratio needs a ReversingLinearWall")
    xa, scalar = _as_array(x)
    L_h = traj.half_length
    if not np.all(_in_box(xa, L_h, idx.sector)):
        raise DomainError("x outside the box at the turning point")
    rate, phase_h, _, trig = _mode_parts(
        idx, constants, L_h, traj.q, traj.tau(traj.T / 2), xa
    )
    if np.any(np.abs(trig) < 1e-9):
        raise DomainError("mode has a node at a requested x; the ratio is 0/0 there")
    # the contraction family's chirp is the conjugate of the expansion one's
    out = np.exp(1j * (2.0 * rate * xa**2 - phase_h))
    return complex(out[0]) if scalar else out
