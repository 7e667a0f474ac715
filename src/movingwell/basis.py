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

A packet is a sum of these modes with constant coefficients c_n.
``_mode_sum`` evaluates it without a trig call per mode.  The families of
a box share one w = e^{i step pi x / L}, and each family's sum is a
polynomial in w with real coefficients (the real or the imaginary parts
of c_n e^{-i phase}).  The polynomials go by baby steps and giant steps
(Paterson and Stockmeyer, SIAM J. Comput. 2 (1973) 60): the powers w^j
below a block length B are formed once per point, one real matrix
product per slab of points sums every block of every polynomial, and
Horner's rule in w^B runs over the blocks.  The modes cost a BLAS
product; the per-point numpy calls number about B + 2n/B.
Each power w^j carries a relative error of order j eps and each giant
step one of order B eps, so with |w| = 1 the error stays of order
n eps sum |c_n|, as for Horner's rule (Higham, Accuracy and Stability of
Numerical Algorithms, section 5.1), the same order as forming each
sin/cos from its rounded argument.  Every product spans whole chunks of
a fixed width, so BLAS rounds a point the same in any grid: a point
alone gives the value it has inside any grid, bit for bit.

A wall with a finite ``turn`` (the reversing wall, also rescaled) carries
different solution families on its two legs; ``basis_solution`` returns
the family of whichever leg contains t, with the contraction family's
clock tau_eff restarted at the turn.  ``reversal_mismatch_ratio``
quantifies the jump between the families there.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, DomainError, PhysicalConstants, WallTrajectory, _unit

#: a family of modes: labels n >= first, nu = step n + shift, sin or cos
_Family = namedtuple("_Family", "sector first step shift sine")
#: box sector -> the mode families it carries
_FAMILIES = {
    "symmetric": (_Family("even", 0, 2, 1, False), _Family("odd", 1, 2, 0, True)),
    "single_wall": (_Family("single_wall", 1, 1, 0, True),),
}
_BOX_SECTORS = tuple(_FAMILIES)
#: mode sector -> (its box sector, its family)
_MODE_FAMILY = {f.sector: (box, f) for box, fams in _FAMILIES.items() for f in fams}
_SECTORS = tuple(_MODE_FAMILY)
#: baby steps per block of the mode sum (``_blocked_sum``), and the points
#: per chunk, the unit every matrix product's width is a whole number of:
#: on 2,001-point packet sums (OpenBLAS, 2-core x86-64) blocks of 12 to 32
#: and chunks of 256 to 1,024 ran within 10% of each other, and 24 with
#: 512 ran fastest
_BABY = 24
_CHUNK = 512
#: points per pass of the mode sum, a whole number of chunks
_SLAB = 8 * _CHUNK
#: intervals of the box grid on which ``schrodinger_residual`` compares
_RESIDUAL_POINTS = 1024


@dataclass(frozen=True)
class BasisIndex:
    """Mode label: sector plus non-negative integer n.

    nu (the trig wavenumber multiplier) is 2n+1 for even modes (n >= 0),
    2n for odd modes (n >= 1) and n for single-wall modes (n >= 1).
    """

    sector: str
    n: int

    def __post_init__(self) -> None:
        if self.sector not in _MODE_FAMILY:
            raise DomainError(f"sector must be one of {_SECTORS}, got {self.sector!r}")
        first = _MODE_FAMILY[self.sector][1].first
        if self.n < first:
            raise DomainError(f"{self.sector} sector needs n >= {first}")

    @property
    def nu(self) -> int:
        family = _MODE_FAMILY[self.sector][1]
        return family.step * self.n + family.shift

    @property
    def is_sine(self) -> bool:
        return _MODE_FAMILY[self.sector][1].sine


def _level_index(nu: int) -> BasisIndex:
    """Box level nu of the symmetric box as a BasisIndex: the mode of the
    family whose labels step n + shift (n >= first) include nu."""
    for family in _FAMILIES["symmetric"]:
        n, rest = divmod(nu - family.shift, family.step)
        if not rest and n >= family.first:
            return BasisIndex(family.sector, n)
    raise DomainError(f"the symmetric box has no level nu = {nu}")


def _box_interval(L: float, sector: str) -> tuple[float, float]:
    """Edges of a box of size L: [0, L] (single wall) or [-L/2, L/2]."""
    if sector not in _FAMILIES:
        raise DomainError(f"sector must be one of {_BOX_SECTORS}, got {sector!r}")
    return (0.0, L) if sector == "single_wall" else (-L / 2, L / 2)


def _in_box(x: np.ndarray, L: float, sector: str) -> np.ndarray:
    """Which points of x lie in the box; NaN counts as outside."""
    lo, hi = _box_interval(L, sector)
    return (x >= lo) & (x <= hi)


def _box_of(idx: BasisIndex) -> str:
    return _MODE_FAMILY[idx.sector][0]


def _chirp_rate(constants: PhysicalConstants, L, v):
    """m v / (2 hbar L), the x^2 chirp rate of a box of size L whose wall
    moves at speed v."""
    return constants.mass * v / (2.0 * constants.hbar * L)


def _mode_parts(idx: BasisIndex, constants: PhysicalConstants, L: float, v: float, tau: float, x):
    """Pieces of mode ``idx`` in a box of size L whose wall moves at speed v.

    Returns the chirp rate m v / (2 hbar L), the clock phase
    hbar pi^2 nu^2 tau / (2 m), the wavenumber k = pi nu / L and the trig
    factor sin(k x) or cos(k x).
    """
    k = math.pi * idx.nu / L
    trig = np.sin(k * x) if idx.is_sine else np.cos(k * x)
    return _chirp_rate(constants, L, v), _clock_phase(idx.nu, constants, tau), k, trig


def _clock(constants: PhysicalConstants, tau: float) -> float:
    """2 pi hbar tau / m, the clock both routes read: minus kappa's real
    part, and 4 / (pi nu^2) of mode nu's phase; a static-box revival is 8
    of it.  Once |clock| eps reaches 1 its last bit is worth 1 or more, so
    reducing it by whole revivals keeps no fractional digit: the phases
    are noise, and ConvergenceError says so."""
    clock = 2.0 * math.pi * constants.hbar * tau / constants.mass
    if not abs(clock) * sys.float_info.epsilon < 1.0:
        raise ConvergenceError(f"the clock 2 pi hbar tau / m = {clock:.3g} is past 1/eps, "
                               "where reducing it by whole revivals keeps no digit")
    return clock


def _clock_phase(nu: int, constants: PhysicalConstants, tau: float) -> float:
    """hbar pi^2 nu^2 tau / (2 m), the phase mode nu carries at clock tau."""
    return constants.hbar * math.pi**2 * nu**2 * tau / (2.0 * constants.mass)


def _mode_sum(coeffs, constants: PhysicalConstants, L: float, v: float, tau: float, x, sector: str):
    """sum_n c_n psi_n over the mode families of box ``sector`` on one leg of
    the wall (box size L, wall speed v, phase clock tau).

    ``coeffs`` holds one array per family of ``_FAMILIES[sector]``, indexed
    by n.  With theta = pi x / L and a_n = c_n e^{-i phase_nu}, a family's
    trig sum sum_n a_n cos(nu theta) (or sin) is R + i I, where R and I are
    the real (or imaginary) parts of

        e^{i lead theta} sum_{n >= first} r_n w^{n - first},

    with r_n = Re a_n for R and r_n = Im a_n for I, w = e^{i step theta}
    and lead = step first + shift.  The families of a sector share their
    step, so ``_blocked_sum`` evaluates all these real-coefficient
    polynomials in one w at once, with an error of order n eps sum |a_n|
    (see the module docstring).  A family whose coefficients all vanish is
    skipped.  sqrt(2/L), the chirp and the box mask are applied once.  A
    clock past every digit raises ConvergenceError (``_clock``).
    """
    _clock(constants, tau)
    families = [(f, c) for f, c in zip(_FAMILIES[sector], coeffs) if np.any(c[f.first :])]
    # +-inf lies outside the box; as NaN it runs through the sum quietly
    x = np.where(np.isinf(x), np.nan, x)
    # pad the points to whole chunks (see _blocked_sum); the pad is cut off
    xp = np.zeros(-(-x.size // _CHUNK) * _CHUNK)
    xp[: x.size] = x
    units = {}

    def unit(nu):
        """e^{i nu theta} on the padded points."""
        if nu not in units:
            units[nu] = _unit((math.pi * nu / L) * xp)
        return units[nu]

    total = np.zeros(xp.shape, dtype=complex)
    if families:
        sums = _blocked_sum(_block_amplitudes(families, constants, tau), unit(families[0][0].step))
        for (family, _), rows in zip(families, sums.reshape(len(families), 2, -1)):
            # the rows summed over Re a_n and Im a_n give R and I
            rows = unit(family.step * family.first + family.shift) * rows
            part = rows.imag if family.sine else rows.real
            total.real += part[0]
            total.imag += part[1]
    out = math.sqrt(2.0 / L) * _unit(_chirp_rate(constants, L, v) * x**2) * total[: x.size]
    return np.where(_in_box(x, L, sector), out, 0.0)


def _block_amplitudes(families, constants: PhysicalConstants, tau: float) -> np.ndarray:
    """Real and imaginary parts of each family's amplitudes a_n = c_n
    e^{-i phase_nu}, n >= first, zero-padded to whole blocks of ``_BABY``.

    Shape (blocks, 2 families, _BABY): entry [g, 2 f, j] is Re a_n and
    [g, 2 f + 1, j] is Im a_n, n = first + g _BABY + j, of family f.
    """
    terms = [int(np.flatnonzero(c[f.first :])[-1]) + 1 for f, c in families]
    blocks = -(-max(terms) // _BABY)
    amps = np.zeros((len(families), blocks * _BABY), dtype=complex)
    for (family, c), row, m in zip(families, amps, terms):
        nu = family.step * np.arange(family.first, family.first + m) + family.shift
        row[:m] = c[family.first : family.first + m] * _unit(-_clock_phase(nu, constants, tau))
    parts = np.stack([amps.real, amps.imag], axis=1)
    return parts.reshape(2 * len(families), blocks, _BABY).transpose(1, 0, 2)


def _blocked_sum(coef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_n r_n w^n for every row of real coefficients r in ``coef`` at
    every point of w, whose size is a whole number of ``_CHUNK``.

    ``coef`` has shape (blocks, rows, _BABY), with the coefficient of
    w^{g _BABY + j} at [g, row, j]; the result has shape (rows, w.size).
    Paterson and Stockmeyer's baby steps and giant steps: points go
    through in slabs of ``_SLAB``, which bounds the buffers; in each, the
    powers w^j, j <= _BABY, are formed once; one real matrix product over
    the slab, on the real and imaginary parts of the powers, gives every
    block's sum over its baby steps; and Horner's rule in w^{_BABY} runs
    over the blocks.  Every product spans whole chunks, so BLAS (OpenBLAS,
    as the tests check) rounds a point's column the same wherever it sits,
    and a point alone gives the value it has in any grid.
    Products go to separate buffers: an aliased in-place complex multiply
    rounds a one-point array differently from a longer one.
    """
    blocks, rows = coef.shape[:2]
    flat = np.ascontiguousarray(coef).reshape(blocks * rows, _BABY)
    out = np.empty((rows, w.size), dtype=complex)
    for s0 in range(0, w.size, _SLAB):
        ws = w[s0 : s0 + _SLAB]
        powers = np.empty((_BABY + 1, ws.size), dtype=complex)
        powers[0] = 1.0
        powers[1] = ws
        for j in range(2, _BABY + 1):
            np.multiply(powers[j - 1], ws, out=powers[j])
        # a real coefficient scales a power's real and imaginary parts alike
        parts = np.empty((blocks * rows, ws.size), dtype=complex)
        np.matmul(flat, powers[:_BABY].view(float), out=parts.view(float))
        acc = parts[-rows:]
        step = np.empty_like(acc)
        for g in range(blocks - 2, -1, -1):
            np.multiply(acc, powers[_BABY], out=step)
            np.add(step, parts[g * rows : (g + 1) * rows], out=acc)
        out[:, s0 : s0 + ws.size] = acc
    return out


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _single_mode(idx: BasisIndex, constants: PhysicalConstants, L: float, v: float, tau: float, x):
    """Mode ``idx`` on one leg of the wall (box size L, wall speed v, phase
    clock tau); zero outside the box."""
    xa, scalar = _as_array(x)
    rate, phase, _, trig = _mode_parts(idx, constants, L, v, tau, xa)
    out = math.sqrt(2.0 / L) * _unit(rate * xa**2 - phase) * trig
    out = np.where(_in_box(xa, L, _box_of(idx)), out, 0.0)
    return complex(out[0]) if scalar else out


def instantaneous_eigenstate(idx: BasisIndex, L: float, x):
    """Stationary-box eigenfunction at box size L; zero outside the box."""
    if L <= 0:
        raise DomainError("L must be positive")
    # a static box (no chirp) with its clock at zero
    return _single_mode(idx, PhysicalConstants(), L, 0.0, 0.0, x).real


def instantaneous_energy(idx: BasisIndex, L: float, constants: PhysicalConstants) -> float:
    """Box level nu at size L: (pi nu hbar)^2 / (2 m L^2)."""
    if L <= 0:
        raise DomainError("L must be positive")
    return (math.pi * idx.nu * constants.hbar) ** 2 / (2.0 * constants.mass * L**2)


def _leg(traj: WallTrajectory, t: float) -> tuple[float, float, float]:
    """Box size, wall speed and phase clock of the family that holds t; the
    contraction leg zeroes its clock at the wall's turn."""
    L, v, _, tau, _ = traj.kinematics(t)
    if t >= traj.turn:
        tau = tau - traj.tau(traj.turn)
    return L, v, tau


def _turn_leg(traj: WallTrajectory) -> tuple[float, float, float]:
    """Box size, wall speed and clock of the initial family at the turn,
    which belongs to the contraction leg: L(turn), -L'(turn), tau(turn)."""
    turn = traj.turn
    if math.isinf(turn):
        raise DomainError("the wall never turns: it has no contraction family")
    L, v, _, tau, _ = traj.kinematics(turn)
    return L, -v, tau


def basis_solution(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
    x,
):
    """Exact chirped mode solution at time t; zero outside the box."""
    return _single_mode(idx, constants, *_leg(traj, t), x)


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
    L0 = traj.length(0.0)
    L, v, tau = _leg(traj, t)
    # a box of size L0 whose wall speed is L L'/L0 has the right chirp rate
    return _single_mode(idx, constants, L0, L * v / L0, tau, y)


def _solution_and_second_derivative(idx, traj, constants, t, xa):
    """psi and its analytic d^2/dx^2 on the open interior (no domain mask)."""
    L, v, tau = _leg(traj, t)
    alpha, phase_t, k, trig = _mode_parts(idx, constants, L, v, tau, xa)
    pre = math.sqrt(2.0 / L) * _unit(alpha * xa**2 - phase_t)
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
) -> float:
    """Relative equation residual of the mode solution at time t.

    Compares the centred time difference i hbar (psi(t+dt) - psi(t-dt)) /
    (2 dt) against H psi(t) with the analytic spatial derivative, on the
    interior points of a ``_RESIDUAL_POINTS``-interval grid of the box, a
    safe margin away from the walls.  ``potential``
    selects H: "well" is the bare box, "tdlo" adds the quadratic term
    (m/2) W(t) x^2 that accelerating walls induce.  Returns
    ||residual||_2 / ||H psi||_2; for an exact family this decays as dt^2.
    A probe window [t - dt, t + dt] that crosses the wall's turn would
    read two families and raises DomainError.
    """
    if potential not in ("well", "tdlo"):
        raise DomainError(f"potential must be 'well' or 'tdlo', got {potential!r}")
    if dt <= 0:
        raise DomainError("dt must be positive")
    if t - dt < traj.turn <= t + dt:
        raise DomainError(f"the probe window t +- {dt:g} crosses the wall's turn at {traj.turn:g}")
    if _RESIDUAL_POINTS < 8 * idx.nu:
        raise DomainError(f"the residual grid resolves nu <= {_RESIDUAL_POINTS // 8}, "
                          f"not nu = {idx.nu}")
    hbar, m = constants.hbar, constants.mass
    L, v, _, _, w2 = traj.kinematics(t)
    grid = np.linspace(*_box_interval(L, _box_of(idx)), _RESIDUAL_POINTS + 1)
    xa = grid[4:-4]
    # the wall must not cross the retained points within the stencil window
    margin = 4 * (grid[1] - grid[0])
    if abs(v) * dt >= margin:
        raise DomainError(f"dt too large: the wall moves |L'| dt = {abs(v) * dt:.3g} at t = {t:g}, "
                          f"dt = {dt:g}, past the stencil's margin of 4 grid cells, {margin:.3g}")
    psi_p = basis_solution(idx, traj, constants, t + dt, xa)
    psi_m = basis_solution(idx, traj, constants, t - dt, xa)
    psi, psi_xx = _solution_and_second_derivative(idx, traj, constants, t, xa)
    h_psi = -(hbar**2) / (2.0 * m) * psi_xx
    if potential == "tdlo":
        h_psi = h_psi + 0.5 * m * w2 * xa**2 * psi
    lhs = 1j * hbar * (psi_p - psi_m) / (2.0 * dt)
    denom = float(np.linalg.norm(h_psi))
    if denom == 0.0:
        raise DomainError("H psi vanishes on the evaluation grid")
    return float(np.linalg.norm(lhs - h_psi)) / denom


def reversal_mismatch_ratio(
    idx: BasisIndex,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    x,
):
    """Jump between the expansion and contraction families at the turn.

    Both legs of a wall that turns carry exact solutions; at the turn the
    pointwise quotient (expansion value) / (contraction value) is

        exp(i m q x^2 / (hbar L_h)) exp(-i hbar pi^2 nu^2 tau_h / (2 m)),

    with L_h, q and tau_h the box size, expansion speed and clock at the
    turn.  The trig factors cancel, so the quotient is well defined except
    at interior nodes, where it is 0/0 and a DomainError is raised.  A
    packet expanded in one family must absorb this factor before
    re-expansion in the other.
    """
    L_h, v_h, tau_h = _turn_leg(traj)
    xa, scalar = _as_array(x)
    if not np.all(_in_box(xa, L_h, _box_of(idx))):
        raise DomainError("x outside the box at the turning point")
    rate, phase_h, _, trig = _mode_parts(idx, constants, L_h, v_h, tau_h, xa)
    if np.any(np.abs(trig) < 1e-9):
        raise DomainError("mode has a node at a requested x; the ratio is 0/0 there")
    # the contraction family's chirp is the conjugate of the expansion one's
    out = _unit(2.0 * rate * xa**2 - phase_h)
    return complex(out[0]) if scalar else out
