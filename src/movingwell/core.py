"""Shared datatypes: physical constants, wall trajectories, grids, diagnostics.

Everything downstream (basis solutions, theta-function propagators, the
finite-difference oracle) works in terms of a :class:`WallTrajectory`, whose
``kinematics(t)`` gives the wall at one instant: the position L(t), its
first two derivatives, the induced oscillator Omega^2 = -L''/L and the
rescaled time

    tau(t) = integral_0^t L(s)^{-2} ds.

Each trajectory subclass supplies these in one closed-form pass,
``_kinematics(t)``; nothing here is computed by numerical differentiation,
and quadrature only backs the wall action integral of L'^2 - L L'' where a
trajectory has no closed form.

Each constructor checks its own fields, once, and its messages lead with
the field's name.  The arithmetic takes squares of the scales, L0 L in tau
and a L0^2 in kappa, so every scale (hbar, m, d, L0, k, T, omega) must be
positive and at most ``SCALE_MAX`` = 1e150, and q, x0 and p0 at most 1e150
in size.  hbar, m, d, L0 and k also enter as inverse squares, so each must be
at least 1e-150; T and omega have no floor, since nothing fails as they
shrink.  A product of two fields is bounded where they meet: the reversing
wall's box at its turn, L0 + q T/2, at most 1e154, so that its square is a
double, and a packet's L0 / d, where it meets the box, at most 1e150
(``propagator``).
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: the package's directory: frames whose code lives here are not the caller
_PACKAGE_DIR = os.path.dirname(__file__)


class DomainError(ValueError):
    """An input lies outside the physically meaningful domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative or truncated computation failed to reach its tolerance."""


class LocalizationWarning(UserWarning):
    """The wave packet is too wide relative to the box for wall-free formulas."""


class TruncationWarning(UserWarning):
    """A truncated mode sum left more norm in the tail than requested."""


def _warn(message: str, category: type[Warning]) -> None:
    """Warn on behalf of the first caller outside the package, so that the
    warning names the user's line however deep in the package it arose and
    Python's default filter shows it once per such line."""
    frame, level = sys._getframe(1), 2
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _unit(angle):
    """e^{i angle} for real angle, as cos(angle) + i sin(angle), each
    written straight into its half of one complex array."""
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


#: the largest size of any value a constructor bounds, and the inverse of
#: the smallest scale it takes among those the arithmetic divides by
SCALE_MAX = 1e150
#: relative tolerance of ``WallTrajectory.is_cyclic`` on L and L'
_CYCLIC_RTOL = 1e-9


def _require_scale(floor: bool = True, **values: float) -> None:
    """Each value positive and at most SCALE_MAX, and with ``floor`` at
    least 1 / SCALE_MAX; NaN and inf fail too."""
    for name, value in values.items():
        if not value > 0:
            raise DomainError(f"{name} must be positive")
        if not value <= SCALE_MAX:
            raise DomainError(f"{name} must be at most {SCALE_MAX:g}, got {value}")
        if floor and value < 1 / SCALE_MAX:
            raise DomainError(f"{name} must be at least {1 / SCALE_MAX:g}, got {value}")


def _require_size(**values: float) -> None:
    """Each value at most SCALE_MAX in size; NaN and inf fail too."""
    for name, value in values.items():
        if not abs(value) <= SCALE_MAX:
            raise DomainError(f"{name} must be at most {SCALE_MAX:g} in size, got {value}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system for a computation.  Defaults give hbar = m = 1; each
    lies in [1e-150, 1e150]."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        _require_scale(hbar=self.hbar, mass=self.mass)


@dataclass(frozen=True)
class GaussianParams:
    """Initial Gaussian packet: width d, centre x0, mean momentum p0.

    The packet is (2 pi)^{-1/4} d^{-1/2} exp(-(x-x0)^2/(4 d^2) + i p0 x / hbar),
    so d is the position standard deviation, in [1e-150, 1e150]; x0 and p0
    are at most 1e150 in size.
    """

    d: float
    x0: float = 0.0
    p0: float = 0.0

    def __post_init__(self) -> None:
        _require_scale(d=self.d)
        _require_size(x0=self.x0, p0=self.p0)


class Kinematics(NamedTuple):
    """The wall at one instant: L, L', L'', tau and Omega^2 = -L''/L."""

    L: float
    v: float
    a: float
    tau: float
    w2: float


class WallTrajectory:
    """Base class for wall motions L(t).

    A subclass supplies ``_kinematics(t)``: L, L', L'', tau and the squared
    frequency Omega^2 = -L''/L of the effective harmonic term in the
    fixed-frame Hamiltonian, all in closed form at one t, plus the validity
    window [0, t_max].  ``kinematics`` checks t once and returns them;
    ``length``, ``velocity``, ``acceleration``, ``tau`` and ``omega_squared``
    each read one field.  ``turn`` is the instant where L' reverses and the
    mode family changes; a subclass sets it as it sets ``t_max``, and it is
    inf otherwise.  ``wall_action`` integrates L'^2 - L L'' by quadrature
    unless the subclass knows its closed form.
    """

    #: end of the validity window; None means unbounded
    t_max: float | None = None
    #: where L' reverses and the mode family changes; inf when it never does
    turn: float = math.inf

    def _check(self, t: float) -> None:
        _require_finite(t=t)
        if t < 0:
            raise DomainError(f"t = {t} is negative")
        if self.t_max is not None and t > self.t_max * (1 + 1e-12):
            raise DomainError(f"t = {t} exceeds t_max = {self.t_max}")

    def _kinematics(self, t: float) -> Kinematics:
        raise NotImplementedError

    def kinematics(self, t: float) -> Kinematics:
        """(L, L', L'', tau, Omega^2) at t, after one check of the window."""
        self._check(t)
        return self._kinematics(t)

    def length(self, t: float) -> float:
        return self.kinematics(t).L

    def velocity(self, t: float) -> float:
        return self.kinematics(t).v

    def acceleration(self, t: float) -> float:
        return self.kinematics(t).a

    def tau(self, t: float) -> float:
        return self.kinematics(t).tau

    def omega_squared(self, t: float) -> float:
        return self.kinematics(t).w2

    def wall_action(self, T: float) -> float:
        """integral_0^T (L'^2 - L L'') dt by adaptive quadrature; subclasses
        with a closed form override it."""
        # imported here so that the closed forms never load scipy
        from scipy.integrate import quad

        def integrand(s: float) -> float:
            L, v, a, _, _ = self.kinematics(s)
            return v**2 - L * a

        val, _ = quad(integrand, 0.0, T, limit=200)
        return val

    @property
    def period(self) -> float | None:
        """Cycle length for periodic motions; None otherwise."""
        return None

    def is_cyclic(self, T: float) -> bool:
        """True when both L and L' return to their t=0 values at t=T > 0, to
        ``_CYCLIC_RTOL`` relative: L against L0, L' against the larger of
        its two values and the span's own speed L0/T."""
        if not T > 0:
            raise DomainError(f"a cycle needs T > 0, got {T}")
        L0, v0, *_ = self.kinematics(0.0)
        L1, v1, *_ = self.kinematics(T)
        return (
            abs(L1 - L0) <= _CYCLIC_RTOL * L0
            and abs(v1 - v0) <= _CYCLIC_RTOL * max(abs(v0), abs(v1), L0 / T)
        )


@dataclass(frozen=True)
class LinearWall(WallTrajectory):
    """Uniformly moving wall, L(t) = L0 + q t.

    L0 lies in [1e-150, 1e150] and |q| <= 1e150.  For q < 0 the box
    collapses at t = L0/|q|; the validity window is cut at 99% of that time.
    """

    L0: float
    q: float

    def __post_init__(self) -> None:
        _require_scale(L0=self.L0)
        _require_size(q=self.q)
        if self.q < 0:
            object.__setattr__(self, "t_max", 0.99 * self.L0 / abs(self.q))

    def _kinematics(self, t: float) -> Kinematics:
        L = self.L0 + self.q * t
        # tau = integral of (L0 + q s)^{-2}: exact also in the q -> 0 limit
        return Kinematics(L, self.q, 0.0, t / (self.L0 * L), 0.0)

    def wall_action(self, T: float) -> float:
        return self.q**2 * T


@dataclass(frozen=True)
class ReversingLinearWall(WallTrajectory):
    """Expansion at speed q for t < T/2, then contraction back: L(T) = L0.

    L(t) = L0 + q t            for 0 <= t < T/2,
    L(t) = L0 + q (T - t)      for T/2 <= t <= T.

    The velocity jumps from +q to -q at t = T/2, so the motion is cyclic in
    L but not in L'.  Scalar evaluation uses the half-open convention: the
    switch time itself, ``turn`` = T/2, belongs to the contraction leg.
    L0 lies in [1e-150, 1e150], |q| <= 1e150 and 0 < T <= 1e150, and the
    box at the turn, L0 + q T/2, lies in (0, 1e154]: the wall must not
    collapse before the turn, and the square of the box there, which the
    contraction family's kappa takes, must be a double.
    """

    L0: float
    q: float
    T: float

    def __post_init__(self) -> None:
        _require_scale(L0=self.L0)
        _require_size(q=self.q)
        _require_scale(floor=False, T=self.T)
        if self.half_length <= 0:
            raise DomainError("L0 + q*T/2 must be positive: the wall collapses before its turn")
        # kappa takes the square of the box at the turn, which must be a double
        if not self.half_length <= 1e154:
            raise DomainError(f"q and T must keep L0 + q*T/2 <= 1e154, got {self.half_length:g}")
        object.__setattr__(self, "t_max", self.T)
        object.__setattr__(self, "turn", self.T / 2)

    def _kinematics(self, t: float) -> Kinematics:
        L0, q, T = self.L0, self.q, self.T
        if t < self.turn:
            L = L0 + q * t
            return Kinematics(L, q, 0.0, t / (L0 * L), 0.0)
        L = L0 + q * (T - t)
        tau_half = T / (L0 * (2 * L0 + q * T))
        # contraction leg: integral of (L0 + q(T-s))^{-2} from T/2 to t
        return Kinematics(L, -q, 0.0, tau_half + (2 * t - T) / ((2 * L0 + q * T) * L), 0.0)

    def wall_action(self, T: float) -> float:
        """q^2 T, plus the impulsive 2 q L(turn) of the velocity jump once T
        reaches the turn."""
        base = self.q**2 * T
        if T >= self.turn:
            base += 2.0 * self.q * self.half_length
        return base

    @property
    def half_length(self) -> float:
        """Box size at the turning point, L0 + q T / 2."""
        return self.L0 + self.q * self.T / 2


@dataclass(frozen=True)
class SmoothPeriodicWall(WallTrajectory):
    """Breathing wall L(t) = L0 sqrt((1+q) / (1 + q cos(omega t))).

    Requires |q| < 1, L0 in [1e-150, 1e150] and 0 < omega <= 1e150.
    L(0) = L0, and the motion repeats with period 2 pi / omega.  tau has the
    closed form (t + (q/omega) sin(omega t)) / (L0^2 (1+q)), and
    Omega^2 = -L''/L simplifies to
    q omega^2 (q (cos 2 omega t - 5) - 4 cos omega t) / (8 u^2) with
    u = 1 + q cos(omega t).
    """

    L0: float
    q: float
    omega: float

    def __post_init__(self) -> None:
        _require_scale(L0=self.L0)
        if not abs(self.q) < 1:
            raise DomainError("q must lie in (-1, 1) to keep the wall finite")
        _require_scale(floor=False, omega=self.omega)

    def _kinematics(self, t: float) -> Kinematics:
        L0, q, w = self.L0, self.q, self.omega
        s, c = math.sin(w * t), math.cos(w * t)
        u = 1.0 + q * c
        # 0.5 L0 sqrt(1+q) q leads both L' and L'', in the same order
        lead = 0.5 * L0 * math.sqrt(1.0 + q) * q
        return Kinematics(
            L0 * math.sqrt((1.0 + q) / u),
            lead * w * s * u**-1.5,
            lead * w**2 * (c * u**-1.5 + 1.5 * q * s**2 * u**-2.5),
            (t + (q / w) * s) / (L0**2 * (1.0 + q)),
            q * w**2 * (q * (math.cos(2 * w * t) - 5.0) - 4.0 * c) / (8.0 * u**2),
        )

    def wall_action(self, T: float) -> float:
        """pi q^2 omega L0^2 (1+q) / (2 (1-q^2)^{3/2}) per whole period;
        quadrature over any other span."""
        cycles = T / self.period
        if abs(cycles - round(cycles)) < 1e-12 and round(cycles) >= 1:
            q, w, L0 = self.q, self.omega, self.L0
            per_cycle = (
                math.pi * q**2 * w * L0**2 * (1.0 + q) / (2.0 * (1.0 - q**2) ** 1.5)
            )
            return round(cycles) * per_cycle
        return super().wall_action(T)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class ScaledWall(WallTrajectory):
    """Trajectory obtained by scaling all lengths of ``inner`` by k, which
    lies in [1e-150, 1e150].

    L(t) = k * inner.L(t), so tau scales by k^{-2} and omega_squared is
    unchanged; the turn, if any, stays where it is.  Used for checking how
    solutions transform under a global change of length unit.
    """

    inner: WallTrajectory
    k: float

    def __post_init__(self) -> None:
        _require_scale(k=self.k)
        object.__setattr__(self, "t_max", self.inner.t_max)
        object.__setattr__(self, "turn", self.inner.turn)

    @property
    def L0(self) -> float:
        return self.k * self.inner.length(0.0)

    def _kinematics(self, t: float) -> Kinematics:
        # the window is the inner one, so the check in kinematics covers both
        L, v, a, tau, w2 = self.inner._kinematics(t)
        k = self.k
        return Kinematics(k * L, k * v, k * a, tau / k**2, w2)

    def wall_action(self, T: float) -> float:
        # every length scales by k, so L'^2 - L L'' scales by k^2
        return self.k**2 * self.inner.wall_action(T)

    @property
    def period(self) -> float | None:
        return self.inner.period


@dataclass(frozen=True, eq=False)
class WaveFunctionGrid:
    """A complex wave function sampled on a uniform position grid at one time."""

    positions: np.ndarray
    values: np.ndarray
    time: float
    norm: float = field(init=False)

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        val = np.asarray(self.values, dtype=complex)
        if pos.ndim != 1 or val.shape != pos.shape:
            raise DomainError("positions and values must be 1-d arrays of equal length")
        if pos.size < 2:
            raise DomainError("grid needs at least two points")
        dx = np.diff(pos)
        if not np.allclose(dx, dx[0], rtol=1e-9, atol=0.0):
            raise DomainError("grid spacing must be uniform")
        pos.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "values", val)
        n = math.sqrt(float(np.trapezoid(np.abs(val) ** 2, pos)))
        object.__setattr__(self, "norm", n)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing two wave functions on a common grid.

    ``sup_error`` and ``l2_error`` measure their difference;
    ``wall_amplitude`` is what the walls add to the two, summed sup
    |psi - psi_wall-free|, and bounds ``sup_error`` whenever the wall-free
    parts agree.  ``verdict`` is "warn" once ``wall_amplitude`` exceeds
    the tolerance, else "pass" or "fail" by ``sup_error``.
    """

    sup_error: float
    l2_error: float
    wall_amplitude: float
    verdict: str  # "pass" | "fail" | "warn"
