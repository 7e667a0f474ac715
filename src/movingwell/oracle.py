"""Independent finite-difference checks of the analytic propagation routes.

Two solvers, both run by one Crank-Nicolson engine (``_cn_engine``):

* ``evolve_fixed_frame`` integrates the moving-box problem after the
  dilation y = x L0 / L(t), where the walls sit still and the price is a
  scaled kinetic term plus a dilation generator,

      H~ = (L0/L)^2 P^2/(2m) + (m/2) Omega^2(t) (L/L0)^2 y^2
           - (L'(t)/2L(t)) (Y P + P Y).

* ``unconfined_tdlo_propagate`` integrates the wall-free dynamics under
  the same compensating quadratic potential on a large static box: the
  same H~ with the wall at rest, L = L0 and L' = 0.

Both always carry the trajectory's own (m/2) Omega^2(t) x^2, Omega^2 =
-L''/L, the one Hamiltonian whose solutions the closed forms give; it
vanishes for a wall at constant speed, so a ``LinearWall`` gives the bare
box and, unconfined, free propagation.

Each step is Crank-Nicolson in Cayley's form: one tridiagonal solve,
psi <- 2 (1 + i h H~ / 2 hbar)^{-1} psi - psi, with no right-hand-side band
product.

Neither touches the theta-function or spectral-sum machinery, so agreement
with those routes is a real cross-check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    GaussianParams,
    PhysicalConstants,
    WallTrajectory,
    WaveFunctionGrid,
    _warn,
)
from .propagator import initial_gaussian

# modulus at the artificial edges (relative to the peak) above which the
# unconfined run is considered contaminated
EDGE_GATE = 1e-10


class StepSizeWarning(UserWarning):
    """dt is coarse against the fastest resolved Hamiltonian scale, or the
    grid against the chirp the moving wall imprints.

    Crank-Nicolson stays stable regardless; accuracy is what suffers.
    """


@dataclass(frozen=True)
class FrameMap:
    """Dilation bookkeeping for y = x L0 / L(t)."""

    traj: WallTrajectory

    @property
    def L0(self) -> float:
        return self.traj.length(0.0)

    def scale(self, t: float) -> float:
        """L(t)/L0, the dilation factor."""
        return self.traj.length(t) / self.L0


def to_fixed_frame(psi: WaveFunctionGrid, fmap: FrameMap, t: float) -> WaveFunctionGrid:
    """Map a lab-frame state onto the t=0 box: psi~(y) = sqrt(L/L0) psi(L y/L0).

    The grid is relabelled by the exact scale factor, never resampled, so
    the map is unitary to roundoff and cannot alias.
    """
    s = fmap.scale(t)
    return WaveFunctionGrid(
        positions=psi.positions / s,
        values=psi.values * math.sqrt(s),
        time=t,
    )


def from_fixed_frame(psi_tilde: WaveFunctionGrid, fmap: FrameMap, t: float) -> WaveFunctionGrid:
    """Inverse of ``to_fixed_frame``: psi(x) = sqrt(L0/L) psi~(x L0/L)."""
    s = fmap.scale(t)
    return WaveFunctionGrid(
        positions=psi_tilde.positions * s,
        values=psi_tilde.values / math.sqrt(s),
        time=t,
    )


@dataclass(frozen=True)
class SolverSpec:
    """Grid and stepping parameters for the Crank-Nicolson runs.

    n_points counts subdivisions; grids carry n_points + 1 samples with the
    Dirichlet walls included.  x_min/x_max bound the large static box of the
    unconfined solver and are ignored by the fixed-frame solver, whose
    domain comes with the initial state.  The Hamiltonian is not a choice:
    both runs carry the trajectory's own Omega^2(t).
    """

    n_points: int = 4096
    dt: float = 1e-3
    x_min: float | None = None
    x_max: float | None = None

    def __post_init__(self) -> None:
        if self.n_points < 8 or self.n_points & (self.n_points - 1):
            raise DomainError("n_points must be a power of two, at least 8")
        if not self.dt > 0:
            raise DomainError("dt must be positive")
        if (self.x_min is None) != (self.x_max is None):
            raise DomainError("x_min and x_max must be given together")
        if self.x_min is not None and not self.x_min < self.x_max:
            raise DomainError("x_min must lie below x_max")


def _step_count(t_final: float, dt: float) -> int:
    if not t_final > 0:
        raise DomainError("t_final must be positive")
    n = round(t_final / dt)
    if n < 1 or abs(n * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise DomainError("t_final must be a whole number of dt steps")
    return n


#: steps between the norm-drift and edge checks (the last step is always checked)
_CHECK_EVERY = 250
#: radians the fixed-frame chirp may advance per grid cell at the farthest
#: grid point before StepSizeWarning.  At 0.5 rad the three-point kinetic
#: term understates a plane wave's energy by 2%; over about 2,000 random
#: fixed-frame runs at n = 256 the share with a relative error above 0.1
#: was 0-2% below 0.3 rad, 5-7% from 0.3 to 0.75 rad and 22% beyond
_CHIRP_PER_CELL = 0.5


def _cn_engine(y, vals, L0, frame, dt, n_steps, constants, edge_check=None, turn=math.inf):
    """Crank-Nicolson march of ``vals`` between Dirichlet walls at y[0], y[-1].

    The Hamiltonian is the fixed-frame one at reference size L0,

        H(t) = s^2 K + (m/2) (Omega^2 / s^2) y^2 + (L'/L) D,   s = L0 / L,

    with (L, L', Omega^2) = frame(t) read at each mid-step, K the three-point
    kinetic term P^2/2m and D = -(YP + PY)/2 in the symmetrized
    central-difference form, which keeps the bands Hermitian.  At L = L0,
    L' = 0 it is the static-box K + (m/2) Omega^2 y^2.

    A step of length h applies (1 + aH)^{-1} (1 - aH), a = i h / 2 hbar, in
    Cayley's form 2 (1 + aH)^{-1} - 1: it fills the three bands of
    A = 1 + aH with a folded into the scalar coefficients,

        A_jj               = (1 + a s^2 kin) + a (m Omega^2 / 2 s^2) y_j^2,
        A_j,j+1, A_j+1,j   = a (-s^2 kin / 2) -+ (h L' / 8 L dy) (y_j + y_{j+1}),

    kin = hbar^2 / (m dy^2), solves A chi = 2 psi with LAPACK gtsv (the
    routine scipy's solve_banded uses for one band on each side) and sets
    psi <- chi - psi.  y^2 and the dilation pair y_j + y_{j+1} are built
    once.  A frame whose s^2 is not finite and positive, a non-finite state
    or a singular system raises ConvergenceError naming its step; every
    ``_CHECK_EVERY`` steps and at the end, a norm drift beyond 1e-6 raises
    too, and ``edge_check(psi, t)`` runs on the interior values.  Returns
    the values with the walls put back.

    L' jumps at a wall's ``turn``, where the midpoint rule would see one
    side only and drop to first order, so a step that straddles the turn
    runs as two CN sub-steps, each with its own midpoint frame.  Every
    other step keeps the arithmetic of one step of dt.

    The state carries the lab-frame chirp as e^{i m L L' y^2 / (2 hbar L0^2)},
    whose phase advances by dy m |L L'| |y| / (hbar L0^2) per cell at y.
    The first step at which that exceeds ``_CHIRP_PER_CELL`` at the
    farthest grid point emits one StepSizeWarning.  It is a necessary
    condition only: the kinetic phase error also grows with t.
    """
    from scipy.linalg.lapack import zgtsv  # scipy is needed by the CN runs only

    hbar, m = constants.hbar, constants.mass
    dy = y[1] - y[0]
    kin = hbar**2 / (m * dy**2)
    if dt * kin / hbar > 20.0:
        _warn(
            "dt resolves less than a radian of the grid-scale kinetic phase; "
            "result will be smooth but inaccurate",
            StepSizeWarning,
        )
    # chirp phase per cell at the farthest point, per unit |L L'|
    chirp_per_cell = dy * m * max(abs(y[0]), abs(y[-1])) / (hbar * L0**2)
    chirp_warned = False
    yi = y[1:-1]
    # complex, so that the band fills skip a cast every step
    y2 = (yi * yi).astype(complex)
    pair = (yi[:-1] + yi[1:]).astype(complex)
    psi = vals[1:-1].astype(complex)

    def norm_of(v):
        return math.sqrt(dy * float(np.sum(np.abs(v) ** 2)))

    # gtsv overwrites its bands with the LU factors and b with chi, so the
    # bands are refilled and b reloaded every step
    d = np.empty(psi.size, dtype=complex)
    du = np.empty(psi.size - 1, dtype=complex)
    dl = np.empty(psi.size - 1, dtype=complex)
    b = np.empty(psi.size, dtype=complex)
    norm0 = norm_of(psi)
    for k in range(n_steps):
        if k * dt < turn < (k + 1) * dt:
            pieces = ((0.5 * (k * dt + turn), turn - k * dt),
                      (0.5 * (turn + (k + 1) * dt), (k + 1) * dt - turn))
        else:
            pieces = (((k + 0.5) * dt, dt),)
        for t_mid, h in pieces:
            L, lp, w2 = frame(t_mid)
            s2 = (L0 / L) ** 2
            if not 0.0 < s2 < math.inf:
                raise ConvergenceError(
                    f"non-finite Crank-Nicolson frame at step {k + 1}: L = {L:.6g} "
                    f"gives (L0/L)^2 = {s2:.3g}, not finite and positive"
                )
            chirp = chirp_per_cell * abs(L * lp)
            # a non-finite frame is left to the state check below
            if not chirp_warned and _CHIRP_PER_CELL < chirp < math.inf:
                _warn(
                    f"the wall chirp advances {chirp:.3g} rad per grid cell at "
                    f"t = {t_mid:.6g}, above {_CHIRP_PER_CELL}; refine n_points",
                    StepSizeWarning,
                )
                chirp_warned = True
            a = 0.5j * h / hbar
            np.multiply(y2, a * (0.5 * m * w2 / s2), out=d)
            d += 1.0 + a * (kin * s2)
            off = a * (-0.5 * kin * s2)
            np.multiply(pair, h * lp / (8.0 * L * dy), out=dl)
            np.subtract(off, dl, out=du)
            np.add(off, dl, out=dl)
            np.add(psi, psi, out=b)
            _, _, _, chi, info = zgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                                       overwrite_du=1, overwrite_b=1)
            if info > 0:
                raise ConvergenceError(f"singular Crank-Nicolson system at step {k + 1}")
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of zgtsv")
            np.subtract(chi, psi, out=psi)
            # a finite |psi|^2 sum proves every entry finite; an overflowing
            # one is confirmed entry by entry and left to the norm gate
            if not np.vdot(psi, psi).real < math.inf and not np.isfinite(psi).all():
                raise ConvergenceError(f"non-finite Crank-Nicolson state at step {k + 1}")
        if (k + 1) % _CHECK_EVERY == 0 or k + 1 == n_steps:
            drift = abs(norm_of(psi) - norm0)
            if not drift <= 1e-6:
                raise ConvergenceError(
                    f"norm drifted by {drift:.3e} after {k + 1} steps"
                )
            if edge_check is not None:
                edge_check(psi, (k + 1) * dt)
    return np.concatenate(([0.0], psi, [0.0]))


def evolve_fixed_frame(
    psi0_tilde: WaveFunctionGrid,
    fmap: FrameMap,
    spec: SolverSpec,
    t_final: float,
    constants: PhysicalConstants,
) -> WaveFunctionGrid:
    """Crank-Nicolson integration of the fixed-domain Hamiltonian.

    The state lives on the initial box with motionless Dirichlet walls; the
    wall motion enters through the time-dependent coefficients.  The
    dilation generator -(L'/2L)(YP+PY) is discretized in the symmetrized
    central-difference form, which keeps the band matrix Hermitian and the
    stepping unitary.  A norm drift beyond 1e-6 aborts.

    The Hamiltonian always includes the trajectory's compensating quadratic
    potential (m/2) Omega^2(t) x^2, transformed to the fixed frame; for a
    wall at constant speed Omega^2 = 0 and the box is bare.
    """
    if psi0_tilde.time != 0.0:
        raise DomainError("initial state must be given at t=0")
    y = psi0_tilde.positions
    if y.size != spec.n_points + 1:
        raise DomainError(
            f"grid carries {y.size} points but spec.n_points={spec.n_points} "
            f"expects {spec.n_points + 1}"
        )
    vals = psi0_tilde.values
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        raise DomainError("initial state is identically zero")
    edge = max(abs(vals[0]), abs(vals[-1]))
    if edge > 1e-8 * peak:
        raise DomainError(f"initial state must vanish at the fixed-domain walls of L0 = "
                          f"{fmap.L0:g}: its edge-to-peak ratio is {edge / peak:.3e} (limit 1e-08)")

    n_steps = _step_count(t_final, spec.dt)
    traj = fmap.traj
    traj._check(t_final)

    def frame(t):
        L, v, _, _, w2 = traj.kinematics(t)
        return L, v, w2

    full = _cn_engine(y, vals, fmap.L0, frame, spec.dt, n_steps, constants, turn=traj.turn)
    return WaveFunctionGrid(positions=y, values=full, time=t_final)


def unconfined_tdlo_propagate(
    gauss: GaussianParams,
    traj: WallTrajectory,
    spec: SolverSpec,
    t_final: float,
    constants: PhysicalConstants,
) -> WaveFunctionGrid:
    """Wall-free evolution under the trajectory's quadratic potential.

    Integrates P^2/2m + (m/2) Omega^2(t) x^2 from the Gaussian on a large
    static Dirichlet box given by spec.x_min/x_max.  The box is artificial:
    the state must stay away from its edges, and an edge amplitude above
    1e-10 of the peak aborts with a diagnostic (enlarge the domain).  The
    quadratic term is always the trajectory's own; for a wall at constant
    speed Omega^2 = 0 and the run is free propagation.
    """
    if spec.x_min is None:
        raise DomainError("unconfined run needs spec.x_min/x_max")
    n_steps = _step_count(t_final, spec.dt)
    traj._check(t_final)
    x = np.linspace(spec.x_min, spec.x_max, spec.n_points + 1)
    vals = initial_gaussian(gauss, constants, x)
    peak0 = float(np.max(np.abs(vals)))
    if max(abs(vals[0]), abs(vals[-1])) > 1e-12 * peak0:
        raise DomainError("x_min/x_max must keep the initial Gaussian off the artificial box")

    def edge_check(v, t_now):
        edge = max(abs(v[0]), abs(v[-1]))
        peak = float(np.max(np.abs(v)))
        if not edge <= EDGE_GATE * peak:
            raise ConvergenceError(
                f"state reached the artificial box edge at t={t_now:.6g} "
                f"(|psi|_edge/|psi|_max = {edge / peak:.2e}); "
                "enlarge spec.x_min/x_max"
            )

    # the static box is the fixed frame with the wall at rest
    full = _cn_engine(x, vals, 1.0, lambda t: (1.0, 0.0, traj.omega_squared(t)), spec.dt,
                      n_steps, constants, edge_check=edge_check)
    return WaveFunctionGrid(positions=x, values=full, time=t_final)
