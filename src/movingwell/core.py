"""Shared datatypes: physical constants, wall trajectories, grids, diagnostics.

Everything downstream (basis solutions, theta-function propagators, the
finite-difference oracle) works in terms of a :class:`WallTrajectory`, which
packages the wall position L(t) together with its first two derivatives and
the rescaled time

    tau(t) = integral_0^t L(s)^{-2} ds.

All trajectory subclasses provide closed forms for these; nothing here is
computed by numerical differentiation, and quadrature only backs the wall
action integral of L'^2 - L L'' where a trajectory has no closed form.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field

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


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system for a computation.  Defaults give hbar = m = 1."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not (self.hbar > 0 and self.mass > 0):
            raise DomainError("hbar and mass must be positive")
        _require_finite(hbar=self.hbar, mass=self.mass)


@dataclass(frozen=True)
class GaussianParams:
    """Initial Gaussian packet: width d, centre x0, mean momentum p0.

    The packet is (2 pi)^{-1/4} d^{-1/2} exp(-(x-x0)^2/(4 d^2) + i p0 x / hbar),
    so d is the position standard deviation.
    """

    d: float
    x0: float = 0.0
    p0: float = 0.0

    def __post_init__(self) -> None:
        if not self.d > 0:
            raise DomainError("Gaussian width d must be positive")
        _require_finite(d=self.d, x0=self.x0, p0=self.p0)


class WallTrajectory:
    """Base class for wall motions L(t).

    Subclasses supply ``length``, ``velocity``, ``acceleration`` and ``tau``
    as closed-form scalar functions of t, plus the validity window
    [0, t_max].  ``omega_squared`` is the squared frequency of the effective
    harmonic term in the fixed-frame Hamiltonian; the generic expression
    -L''(t)/L(t) is overridden only where a tidier closed form exists.
    ``turn`` is the instant where L' reverses and the mode family changes;
    a subclass sets it as it sets ``t_max``, and it is inf otherwise.
    ``wall_action`` integrates L'^2 - L L'' by quadrature unless the
    subclass knows its closed form.
    """

    #: end of the validity window; None means unbounded
    t_max: float | None = None
    #: where L' reverses and the mode family changes; inf when it never does
    turn: float = math.inf

    def _check(self, t: float) -> None:
        if t < 0:
            raise DomainError(f"t = {t} is negative")
        if self.t_max is not None and t > self.t_max * (1 + 1e-12):
            raise DomainError(f"t = {t} exceeds t_max = {self.t_max}")

    def length(self, t: float) -> float:
        raise NotImplementedError

    def velocity(self, t: float) -> float:
        raise NotImplementedError

    def acceleration(self, t: float) -> float:
        raise NotImplementedError

    def tau(self, t: float) -> float:
        raise NotImplementedError

    def omega_squared(self, t: float) -> float:
        return -self.acceleration(t) / self.length(t)

    def wall_action(self, T: float) -> float:
        """integral_0^T (L'^2 - L L'') dt by adaptive quadrature; subclasses
        with a closed form override it."""
        # imported here so that the closed forms never load scipy
        from scipy.integrate import quad

        val, _ = quad(
            lambda s: self.velocity(s) ** 2 - self.length(s) * self.acceleration(s),
            0.0,
            T,
            limit=200,
        )
        return val

    @property
    def period(self) -> float | None:
        """Cycle length for periodic motions; None otherwise."""
        return None

    def is_cyclic(self, T: float, rtol: float = 1e-9) -> bool:
        """True when both L and L' return to their t=0 values at t=T."""
        self._check(T)
        L0, L1 = self.length(0.0), self.length(T)
        v0, v1 = self.velocity(0.0), self.velocity(T)
        scale_v = max(abs(v0), abs(v1), 1e-30)
        return (
            abs(L1 - L0) <= rtol * abs(L0)
            and abs(v1 - v0) <= rtol * max(scale_v, abs(L0))
        )


@dataclass(frozen=True)
class LinearWall(WallTrajectory):
    """Uniformly moving wall, L(t) = L0 + q t.

    For q < 0 the box collapses at t = L0/|q|; the validity window is cut
    at 99% of that time.
    """

    L0: float
    q: float

    def __post_init__(self) -> None:
        if not self.L0 > 0:
            raise DomainError("L0 must be positive")
        _require_finite(L0=self.L0, q=self.q)
        if self.q < 0:
            object.__setattr__(self, "t_max", 0.99 * self.L0 / abs(self.q))

    def length(self, t: float) -> float:
        self._check(t)
        return self.L0 + self.q * t

    def velocity(self, t: float) -> float:
        self._check(t)
        return self.q

    def acceleration(self, t: float) -> float:
        self._check(t)
        return 0.0

    def tau(self, t: float) -> float:
        # integral of (L0 + q s)^{-2}: exact also in the q -> 0 limit
        self._check(t)
        return t / (self.L0 * (self.L0 + self.q * t))

    def omega_squared(self, t: float) -> float:
        self._check(t)
        return 0.0

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
    """

    L0: float
    q: float
    T: float

    def __post_init__(self) -> None:
        if not self.L0 > 0:
            raise DomainError("L0 must be positive")
        if not self.T > 0:
            raise DomainError("T must be positive")
        _require_finite(L0=self.L0, q=self.q, T=self.T)
        if self.L0 + self.q * self.T / 2 <= 0:
            raise DomainError("wall collapses before the turning point")
        object.__setattr__(self, "t_max", self.T)
        object.__setattr__(self, "turn", self.T / 2)

    def _expanding(self, t: float) -> bool:
        return t < self.turn

    def length(self, t: float) -> float:
        self._check(t)
        if self._expanding(t):
            return self.L0 + self.q * t
        return self.L0 + self.q * (self.T - t)

    def velocity(self, t: float) -> float:
        self._check(t)
        return self.q if self._expanding(t) else -self.q

    def acceleration(self, t: float) -> float:
        self._check(t)
        return 0.0

    def tau(self, t: float) -> float:
        self._check(t)
        L0, q, T = self.L0, self.q, self.T
        if self._expanding(t):
            return t / (L0 * (L0 + q * t))
        tau_half = T / (L0 * (2 * L0 + q * T))
        # contraction leg: integral of (L0 + q(T-s))^{-2} from T/2 to t
        return tau_half + (2 * t - T) / ((2 * L0 + q * T) * (L0 + q * (T - t)))

    def omega_squared(self, t: float) -> float:
        self._check(t)
        return 0.0

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

    Requires |q| < 1.  L(0) = L0, and the motion repeats with period
    2 pi / omega.  tau has the closed form (t + (q/omega) sin(omega t)) /
    (L0^2 (1+q)).
    """

    L0: float
    q: float
    omega: float

    def __post_init__(self) -> None:
        if not self.L0 > 0:
            raise DomainError("L0 must be positive")
        if not abs(self.q) < 1:
            raise DomainError("|q| must be < 1 to keep the wall finite")
        if not self.omega > 0:
            raise DomainError("omega must be positive")
        _require_finite(L0=self.L0, omega=self.omega)

    def _u(self, t: float) -> float:
        return 1.0 + self.q * math.cos(self.omega * t)

    def length(self, t: float) -> float:
        self._check(t)
        return self.L0 * math.sqrt((1.0 + self.q) / self._u(t))

    def velocity(self, t: float) -> float:
        self._check(t)
        q, w = self.q, self.omega
        u = self._u(t)
        return 0.5 * self.L0 * math.sqrt(1.0 + q) * q * w * math.sin(w * t) * u ** -1.5

    def acceleration(self, t: float) -> float:
        self._check(t)
        q, w = self.q, self.omega
        u = self._u(t)
        s, c = math.sin(w * t), math.cos(w * t)
        return (
            0.5
            * self.L0
            * math.sqrt(1.0 + q)
            * q
            * w**2
            * (c * u**-1.5 + 1.5 * q * s**2 * u**-2.5)
        )

    def tau(self, t: float) -> float:
        self._check(t)
        q, w = self.q, self.omega
        return (t + (q / w) * math.sin(w * t)) / (self.L0**2 * (1.0 + q))

    def omega_squared(self, t: float) -> float:
        # -L''/L simplified; kept explicit because it is cheap and exact
        self._check(t)
        q, w = self.q, self.omega
        u = self._u(t)
        c2 = math.cos(2 * w * t)
        c = math.cos(w * t)
        return q * w**2 * (q * (c2 - 5.0) - 4.0 * c) / (8.0 * u**2)

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
    """Trajectory obtained by scaling all lengths of ``inner`` by k > 0.

    L(t) = k * inner.L(t), so tau scales by k^{-2} and omega_squared is
    unchanged; the turn, if any, stays where it is.  Used for checking how
    solutions transform under a global change of length unit.
    """

    inner: WallTrajectory
    k: float

    def __post_init__(self) -> None:
        if not self.k > 0:
            raise DomainError("scale factor k must be positive")
        _require_finite(k=self.k)
        object.__setattr__(self, "t_max", self.inner.t_max)
        object.__setattr__(self, "turn", self.inner.turn)

    @property
    def L0(self) -> float:
        return self.k * self.inner.length(0.0)

    def length(self, t: float) -> float:
        return self.k * self.inner.length(t)

    def velocity(self, t: float) -> float:
        return self.k * self.inner.velocity(t)

    def acceleration(self, t: float) -> float:
        return self.k * self.inner.acceleration(t)

    def tau(self, t: float) -> float:
        return self.inner.tau(t) / self.k**2

    def omega_squared(self, t: float) -> float:
        return self.inner.omega_squared(t)

    def wall_action(self, T: float) -> float:
        # every length scales by k, so L'^2 - L L'' scales by k^2
        return self.k**2 * self.inner.wall_action(T)

    @property
    def period(self) -> float | None:
        return self.inner.period


@dataclass(frozen=True)
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

    @property
    def spacing(self) -> float:
        return float(self.positions[1] - self.positions[0])

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing two wave functions on a common grid."""

    sup_error: float
    l2_error: float
    localization_ratio: float
    verdict: str  # "pass" | "fail" | "warn"


def localization_diagnostic(
    gauss: GaussianParams,
    constants: PhysicalConstants,
    t: float,
    L0: float,
) -> float:
    """Free-spreading width of the packet at time t, relative to the box size.

    Returns sigma(t)/L0 with sigma(t) = sqrt(d^2 + (hbar t / (2 d m))^2),
    the standard deviation a free Gaussian of initial width d would have.
    Values well below 1 mean the packet cannot feel the walls yet.
    """
    if t < 0:
        raise DomainError("t must be non-negative")
    if L0 <= 0:
        raise DomainError("L0 must be positive")
    spread = gauss.d**2 + (constants.hbar * t / (2.0 * gauss.d * constants.mass)) ** 2
    return math.sqrt(spread) / L0
