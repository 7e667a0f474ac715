"""Propagation of Gaussian packets in moving-wall boxes.

A normalized Gaussian

    psi_0(x) = (2 pi)^{-1/4} d^{-1/2} exp(-(x - x0)^2/(4 d^2) + i p0 x / hbar)

expanded in the exact mode solutions of ``basis`` evolves in closed form.
The expansion coefficients are Gaussian integrals; resumming the mode
series turns the evolved packet into Jacobi theta functions of the complex
nome parameter

    kappa(t) = i pi / (a L0^2) - 2 pi hbar tau(t) / m,
    a = 1/(4 d^2) + i m L'(0) / (2 hbar L0),

whose imaginary part is positive for every trajectory and time.  With
z = pi x / L and the packet offset C = pi beta / (2 a L0), both sectors
resum to one bracket at the quartered parameter,

    (1/2) [ theta_3((z-C)/2, kappa/4) - theta_s((z+C)/2, kappa/4) ],

s = 4 for the symmetric box and s = 3 for the single wall; a centred
packet in the symmetric box collapses it to theta_2(z, kappa).

Each route has one entry point, and each follows the mode family that
holds t: the initial family up to a wall's turn, the contraction family
from the turn on.  The closed form is ``evolve_theta_general`` (with its
wall-free limit ``evolve_unconfined_approx``).  It builds one record of
its packet in the family that holds t and hands it to one evaluator.  The
record is the free Gaussian at the family's reference time: t = 0 for the
initial family, the wall's turn for the contraction family, where a and
beta take the spread and the drift the packet has by then.  So the closed
form takes any packet the gate admits, offset and boosted alike, at any t
in the trajectory's window, before the turn and past it.

The other route, ``evolve_sum``, sums the modes themselves.  A
``SpectralExpansion`` holds one coefficient array per mode family of its
box, in ``basis._FAMILIES`` order (cos then sin for the symmetric box, sin
alone for the single wall), the layout ``basis._mode_sum`` reads; the
largest label and the captured norm follow from the arrays.  No module but
``basis`` names a family.  An expansion holds in one solution family only.
``expansion_coefficients(..., t)`` projects the packet analytically onto
the family that holds t; ``contraction_coefficients`` re-expands an
initial-family expansion of either box numerically at the turn.  Both
end where ``_expansion_end`` says: three guard labels past the last one
whose coefficient reaches 1e-13 of the largest.

Both routes (truncated mode sum, theta closed form) are provided and should
agree to near machine precision; keeping them separate is the point, since
each validates the other.  Both read one clock, 2 pi hbar tau / m, and
both raise ConvergenceError once it passes 1/eps, where it keeps no
fractional digit (``basis._clock``).

All propagators require the initial packet to sit well inside the box:
the Gaussian mass beyond the walls must not exceed 1e-6 (DomainError), the
box must hold at most 1e150 packet widths, m d^2 must be a normal double,
and a width above a tenth of the box earns a LocalizationWarning.  Whether
the packet has met a wall later on is measured, not guessed: the
bracket's leading modular term is the packet with no walls, so psi minus
it is what the walls add, and that term decides the locality verdict and
the wall-free route's warning.  Past a wall's turn the closed forms bound
it once more, at the turn, where the contraction family takes the packet
as the free Gaussian.  On the wall's linear leg the walls add images of
the free Gaussian's mass in the neighbouring image cells, so the bound is
one erf difference per cell (``_turn_error``).  If what the walls had
added by then could put the closed forms more than 1e-3 (L2) off, they
refuse the packet, and the mode sum follows it instead in either box.
Every route takes both boxes: the wall-free form and the re-expansion
as well as the closed form and the mode sum.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    _BOX_SECTORS,
    _FAMILIES,
    BasisIndex,
    _box_interval,
    _chirp_rate,
    _clock,
    _in_box,
    _leg,
    _mode_sum,
    _turn_leg,
)
from .core import (
    SCALE_MAX,
    ConvergenceError,
    DomainError,
    GaussianParams,
    LocalizationWarning,
    PhysicalConstants,
    ScaledWall,
    TruncationWarning,
    WallTrajectory,
    ComparisonReport,
    _unit,
    _warn,
)
from .theta import theta

#: hard limit on initial probability mass outside the walls
TAIL_GATE = 1e-6
#: packet width / box size ratio above which wall effects are imminent
WIDTH_WARN = 0.1
#: largest wall term |psi - psi_wall-free| that still counts as no wall contact
LOCALITY_TOL = 1e-10
#: coefficients below this fraction of the largest one are negligible
_COEFF_FLOOR = 1e-13
#: guard labels an expansion keeps past its last coefficient above the floor
_COEFF_RUN = 3
#: the most labels an analytic expansion may take before ConvergenceError
_MODE_LIMIT = 20000
#: e-folds past the floor at which the first analytic table ends
_TABLE_MARGIN = 8.0
#: i^j for j mod 4, exact
_I_POWERS = np.array([1, 1j, -1, -1j])
#: intervals of the box grid on which ``contraction_coefficients`` projects
_PROJECTION_POINTS = 2**15


@dataclass(frozen=True, eq=False)
class SpectralExpansion:
    """Mode coefficients of a packet in one solution family.

    ``coeffs`` holds one array per mode family of box ``sector``, in
    ``basis._FAMILIES`` order, all of one length: ``coeffs[i][n]``
    multiplies mode n of family i, and entries below the family's first
    label are structurally zero.  ``family`` is "initial" for expansions
    anchored at t = 0 and "contraction" for coefficients in the post-turn
    family of a wall that turns.  ``n_max``, the largest label kept, and
    ``captured_norm``, the sum of |c|^2, follow from the arrays.
    """

    sector: str
    coeffs: tuple[np.ndarray, ...]
    family: str = "initial"
    n_max: int = field(init=False)
    captured_norm: float = field(init=False)

    def __post_init__(self) -> None:
        if self.sector not in _FAMILIES:
            raise DomainError(f"sector must be one of {_BOX_SECTORS}, got {self.sector!r}")
        if self.family not in ("initial", "contraction"):
            raise DomainError(f"family must be 'initial' or 'contraction', got {self.family!r}")
        count = len(_FAMILIES[self.sector])
        arrays = tuple(np.asarray(c, dtype=complex) for c in self.coeffs)
        # one 1-d shape for all: a 0-d or 2-d first array fails the test too
        if len(arrays) != count or {a.shape for a in arrays} != {(arrays[0].size,)}:
            raise DomainError(f"the {self.sector} sector needs {count} 1-d arrays of one length")
        object.__setattr__(self, "coeffs", arrays)
        object.__setattr__(self, "n_max", arrays[0].size - 1)
        captured = float(sum(np.sum(np.abs(c) ** 2) for c in arrays))
        object.__setattr__(self, "captured_norm", captured)

    def modes(self):
        """Yield (BasisIndex, coefficient) for every retained mode."""
        for family, coeffs in zip(_FAMILIES[self.sector], self.coeffs):
            for n in range(family.first, self.n_max + 1):
                if coeffs[n] != 0.0:
                    yield BasisIndex(family.sector, n), coeffs[n]


def initial_gaussian(gauss: GaussianParams, constants: PhysicalConstants, x):
    """The packet at t = 0 on the full line (no box truncation)."""
    xa = np.asarray(x, dtype=float)
    out = (
        (2.0 * math.pi) ** -0.25
        * gauss.d**-0.5
        * np.exp(
            -((xa - gauss.x0) ** 2) / (4.0 * gauss.d**2)
            + 1j * gauss.p0 * xa / constants.hbar
        )
    )
    return complex(out) if np.ndim(x) == 0 else out


def _mass(X: float, sigma: float, a: float, b: float) -> float:
    """The mass on [a, b] of a Gaussian density centred at X, with standard
    deviation sigma: the difference of the two tails on the far side of X,
    so that a small mass keeps its digits.  Either end may be infinite."""
    root2s = math.sqrt(2.0) * sigma
    if a + b > 2.0 * X:
        return 0.5 * (math.erfc((a - X) / root2s) - math.erfc((b - X) / root2s))
    return 0.5 * (math.erfc((X - b) / root2s) - math.erfc((X - a) / root2s))


def _outside(X: float, sigma: float, L: float, sector: str) -> float:
    """The mass of a Gaussian density centred at X, with standard deviation
    sigma, beyond the walls of a box of size L."""
    lo, hi = _box_interval(L, sector)
    return _mass(X, sigma, -math.inf, lo) + _mass(X, sigma, hi, math.inf)


def _packet_fits(gauss: GaussianParams, L0: float, mass: float, sector: str) -> None:
    """At most SCALE_MAX packet widths in the box, the bound every scale
    has: kappa takes a L0^2 ~ (L0/d)^2, which overflows past about 1e154
    widths, and Im kappa ~ 4 pi (d/L0)^2 is then already far below what the
    theta reduction reaches in its ``_STEP_CAP`` steps.  And m d^2 a normal
    double: the packet spreads at hbar / (2 m d^2).  And at most TAIL_GATE
    of the packet's norm past the walls of the box it starts in.  Each
    message names x0, d, L0 or mass, which the CLI reads as their keys."""
    if not L0 / gauss.d <= SCALE_MAX:
        raise DomainError(
            f"the box may hold at most {SCALE_MAX:g} packet widths, "
            f"but L0 / d = {L0 / gauss.d:g}"
        )
    if not mass * gauss.d**2 >= sys.float_info.min:
        raise DomainError(f"mass * d^2 must be at least {sys.float_info.min:g}, "
                          f"got {mass * gauss.d**2:g}")
    tail = _outside(gauss.x0, gauss.d, L0, sector)
    if tail > TAIL_GATE:
        raise DomainError(
            f"initial packet leaks {tail:.3e} of its norm past the walls "
            f"(limit {TAIL_GATE:.0e}): at x0 = {gauss.x0:g} and d = {gauss.d:g} "
            f"it cannot be represented in the box of L0 = {L0:g}"
        )


def _initial_gate(gauss: GaussianParams, traj, constants, sector: str) -> None:
    L0 = traj.length(0.0)
    _packet_fits(gauss, L0, constants.mass, sector)
    if gauss.d / L0 > WIDTH_WARN:
        _warn(
            f"packet width d = {gauss.d} is {gauss.d / L0:.2f} of the box; "
            "wall effects set in early",
            LocalizationWarning,
        )


@dataclass(frozen=True)
class _PacketState:
    """A Gaussian resolved in one mode family: what the theta kernel needs.

    The packet is the free Gaussian at the family's reference time t_ref,
    centred at X = x0 + p0 t_ref / m and spread by s = 1 + i hbar t_ref /
    (2 m d^2).  ``spread`` is A = 1/(4 d^2 s), ``rate`` the family's chirp
    r, so that a = A + i r is the coefficient of -x^2 in its overlap
    exponent; ``b`` = X/(2 d^2 s) and ``k0`` = p0/hbar make up the
    coefficient of x, beta = b + i k0.  ``norm`` is the packet's norm
    prefactor, sqrt(pi/a) times the free Gaussian's, and ``L_ref`` the box
    size at which the family was projected, where its phase clock
    (``basis._leg``) reads zero.
    """

    norm: complex
    spread: complex
    rate: float
    b: complex
    k0: float
    L_ref: float

    @property
    def a(self) -> complex:
        return self.spread + 1j * self.rate

    @property
    def beta(self) -> complex:
        return self.b + 1j * self.k0

    @property
    def offset(self) -> complex:
        """The packet offset C = pi beta / (2 a L_ref) of the theta bracket."""
        return math.pi * self.beta / (2.0 * self.a * self.L_ref)


def _packet_state(gauss, traj, constants, t: float = 0.0) -> _PacketState:
    """The packet in the mode family that holds t: the initial family, with
    t_ref = 0, or past a wall's turn the contraction family, with t_ref the
    turn.  The family sees it at t_ref with its box L(t_ref) and wall speed
    L'(t_ref).

    At t_ref the packet is taken as the freely spread Gaussian,
    (2 pi)^{-1/4} (d s)^{-1/2} e^{-A (x - X)^2 + i k0 x - i p0^2 t_ref/(2 m hbar)},
    which holds up to the same exponentially small wall tails as the
    wall-free form as long as the walls left the packet alone until then;
    ``_checked_state`` measures that for the closed forms.
    """
    hbar, m = constants.hbar, constants.mass
    t_ref = 0.0 if t < traj.turn else traj.turn
    L_ref = traj.length(t_ref)
    s = 1.0 + 1j * hbar * t_ref / (2.0 * m * gauss.d**2)
    X = gauss.x0 + gauss.p0 * t_ref / m
    spread = 1.0 / (4.0 * gauss.d**2 * s)
    rate = _chirp_rate(constants, L_ref, traj.velocity(t_ref))
    norm = (2.0 * math.pi) ** -0.25 * (gauss.d * s) ** -0.5
    norm *= cmath.sqrt(math.pi / (spread + 1j * rate))
    norm *= cmath.exp(-1j * gauss.p0**2 * t_ref / (2.0 * m * hbar))
    return _PacketState(norm, spread, rate, X / (2.0 * gauss.d**2 * s), gauss.p0 / hbar, L_ref)


def _exponent(state: _PacketState, k):
    """beta_k^2/(4a) - A X^2, beta_k = beta + i k: the exponent of the
    packet's overlap with e^{ikx}, whose last term is x0^2/(4 d^2) for the
    initial family, at a float k or an array of them.  At k = 0 it is the
    closed forms' offset exponent E.

    With P = k0 + k and c = (r/A) b, which is 2 r X and so real, it equals
    (-P^2 + i b (2P - c)) / (4a): the two ~X^2/(4 d^2 s) blocks cancel
    symbolically, not in rounding (they reach ~625 for X = 50, d = 1), for
    a real spread and a complex one alike.  The constants are Python
    scalars, so at a float k the arithmetic is CPython's, cheaper than
    numpy scalars; numpy's complex division rounds differently, so the
    closed forms keep their float k = 0 and the overlap tables pass arrays.
    """
    b, k0 = complex(state.b), float(state.k0)
    c = float((state.rate / state.spread * b).real)
    p = k0 + k
    return (-p * p + 1j * b * (2.0 * p - c)) / complex(4.0 * state.a)


def _nome(state: _PacketState, constants, tau: float) -> complex:
    """kappa at phase clock tau of the state's family."""
    return 1j * math.pi / (state.a * state.L_ref**2) - _clock(constants, tau)


def _theta_bracket(z, c, kappa: complex, sector: str):
    """The theta combination of a packet with offset C at nome parameter kappa.

    Resumming both parity families of the symmetric box gives
    (1/2)[theta_2(z+C) + theta_2(z-C) + theta_3(z-C) - theta_3(z+C)] at
    kappa.  Since theta_2(w, kappa) +- theta_3(w, kappa) equals
    theta_3(w/2, kappa/4) or -theta_4(w/2, kappa/4), this is

        (1/2) [ theta_3((z-C)/2, kappa/4) - theta_s((z+C)/2, kappa/4) ]

    with s = 4; the single-wall sector resums to the same form with s = 3.
    For a centred packet in the symmetric box (C = 0) it collapses to
    theta_2(z, kappa), one call.
    """
    if sector == "symmetric" and c == 0:
        return theta(2, z, kappa)
    s = 4 if sector == "symmetric" else 3
    return 0.5 * (
        theta(3, (z - c) / 2.0, kappa / 4.0)
        - theta(s, (z + c) / 2.0, kappa / 4.0)
    )


def _evaluate(
    state: _PacketState,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
    x,
    sector: str = "symmetric",
    wall_free: bool = False,
):
    """psi(x, t) = norm / sqrt(L_ref L) e^{i m x^2 L'/(2 hbar L) + E} B, zero
    outside the box, with B the theta bracket at z = pi x / L and kappa(t).

    ``wall_free`` swaps B for the leading modular term of its first theta,
    (-i kappa)^{-1/2} e^{-i (z-C)^2/(pi kappa)} with the packet offset C,
    and keeps the values beyond the walls: in either sector this is the
    packet under the same L''/L history with no walls, so psi minus it is
    exactly what the walls add.

    A value in the box that is not finite raises ConvergenceError.  That
    happens to a boosted packet: once |p0| d / hbar passes about 27, Re E
    falls below -708, e^E underflows to 0 and the bracket overflows.
    """
    L, v, tau = _leg(traj, t)
    kappa = _nome(state, constants, tau)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    # a point past the walls gives 0 and a point that is not finite too, as
    # on every route: as NaN each runs through the arithmetic quietly and
    # never reaches the term count, and the wall-free form, which keeps the
    # values past the walls, masks only the points that are not finite
    inside = _in_box(xa, L, sector)
    far = ~np.isfinite(xa) if wall_free else ~inside
    xa = np.where(far, np.nan, xa)
    z = math.pi * xa / L
    chirp = np.exp(1j * _chirp_rate(constants, L, v) * xa**2 + _exponent(state, 0.0))
    pre = state.norm / math.sqrt(state.L_ref * L)
    if wall_free:
        w = z - state.offset
        out = pre * chirp * ((-1j * kappa) ** -0.5 * np.exp(-1j * w**2 / (math.pi * kappa)))
    else:
        out = pre * chirp * _theta_bracket(z, state.offset, kappa, sector)
    out[far] = 0.0
    if not np.isfinite(out[inside]).all():
        d = 0.5 * math.sqrt((1.0 / state.spread).real)
        raise ConvergenceError(
            f"the closed form is not finite in the box at p0 d / hbar = {state.k0 * d:.4g}: "
            "past about 27 its e^E underflows; the mode sum (evolve.route=sum) takes the packet"
        )
    return complex(out[0]) if np.ndim(x) == 0 else out


def theta_nome(
    gauss: GaussianParams,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
) -> complex:
    """The nome parameter kappa(t) entering every theta-form propagator.

    Im kappa > 0 for all t: the packet's finite width keeps the series
    convergent, though Im kappa shrinks as tau grows.  Like the closed
    forms it follows the family that holds t: past a wall's turn it is
    the contraction family's kappa, its clock restarted at the turn.
    """
    state = _packet_state(gauss, traj, constants, t)
    return _nome(state, constants, _leg(traj, t)[2])


def _overlap_table(state: _PacketState, sector: str, n_end: int) -> np.ndarray:
    """The overlaps of the packet ``state`` with modes 0..n_end of each
    family of box ``sector``, one row per family,

        c_nu = sqrt(2/L_ref) norm (1/2) [e^{E(k)} +- e^{E(-k)}],

    k = pi nu / L_ref, E the ``_exponent`` of the state, the difference over
    i for a sine mode, and zero below a family's first label.  Each exponent
    is one cancelled expression before ``exp``, so the nu C and k^2/4a
    terms never meet a large E in rounding.
    """
    families = _FAMILIES[sector]
    nu = np.array([f.step * np.arange(n_end + 1) + f.shift for f in families])
    k = math.pi * nu / state.L_ref
    plus, minus = np.exp(_exponent(state, np.stack([k, -k])))
    w = complex(math.sqrt(2.0 / state.L_ref) * state.norm * 0.5)
    sine = np.array([[f.sine] for f in families])
    table = np.where(sine, (w / 1j) * (plus - minus), w * (plus + minus))
    for row, family in zip(table, families):
        row[: family.first] = 0.0
    return table


def _expansion_end(table: np.ndarray) -> int:
    """Where every expansion ends: the last label of the (family, label)
    ``table`` at which some coefficient reaches _COEFF_FLOOR of the largest,
    plus _COEFF_RUN guard labels."""
    mags = np.abs(table)
    floor = _COEFF_FLOOR * max(float(np.max(mags)), 1e-300)
    above = np.flatnonzero(np.any(mags >= floor, axis=0))
    return (int(above[-1]) if above.size else 0) + _COEFF_RUN


def _truncated_expansion(state: _PacketState, sector: str):
    """Coefficients of ``state`` on the mode families of box ``sector``
    through ``_expansion_end``: one array per family, all of one length.

    Re E(k) is a concave quadratic in k, peaking at k_peak and falling as
    u (k - k_peak)^2 with u = Re 1/(4a) > 0, so past |k_peak| the envelope
    top e^{-u (|k| - |k_peak|)^2}, top = sqrt(2/L_ref) |norm| e^{Re E(k_peak)},
    bounds every coefficient of both families.  The first table reaches
    _TABLE_MARGIN e-folds past the floor on that envelope.  It doubles while
    the envelope past its last label still reaches the floor of its largest
    coefficient, or the guard labels run past it.
    """
    families = _FAMILIES[sector]
    u = (1.0 / (4.0 * state.a)).real
    k_peak = -(complex(state.b) / (4.0 * state.a)).imag / u - state.k0
    top = abs(math.sqrt(2.0 / state.L_ref) * state.norm) * math.exp(_exponent(state, k_peak).real)
    k_end = abs(k_peak) + math.sqrt((_TABLE_MARGIN - math.log(_COEFF_FLOOR)) / u)
    labels = k_end * state.L_ref / (math.pi * families[0].step)
    n_end = int(min(labels + 1 + _COEFF_RUN, _MODE_LIMIT))
    while True:
        table = _overlap_table(state, sector, n_end)
        k_past = math.pi * min(f.step * (n_end + 1) + f.shift for f in families) / state.L_ref
        tail = top * math.exp(-u * max(k_past - abs(k_peak), 0.0) ** 2)
        end = _expansion_end(table)
        if end <= n_end and tail < _COEFF_FLOOR * float(np.max(np.abs(table))):
            return tuple(table[:, : end + 1])
        if n_end == _MODE_LIMIT:
            raise ConvergenceError(f"mode expansion did not truncate within {_MODE_LIMIT} modes")
        n_end = min(2 * n_end, _MODE_LIMIT)


def expansion_coefficients(
    gauss: GaussianParams,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    sector: str = "symmetric",
    tail_tol: float = 1e-14,
    t: float = 0.0,
) -> SpectralExpansion:
    """Project the packet onto the mode solutions of the family that holds t.

    Before a wall's turn this is the initial family, projected at t = 0;
    from the turn on it is the contraction family, projected at the turn
    where the packet is taken as the freely spread and drifted Gaussian (see
    ``_packet_state``), and the expansion is tagged "contraction".  That
    projection is the analytic reference ``contraction_coefficients`` is
    tested against, so unlike the closed forms it does not check that the
    walls left the packet alone until the turn.  The projections are exact
    Gaussian integrals extended over the full line, legitimate because the
    wall-tail gate has already bounded the mass outside the box.  The
    expansion ends where ``contraction_coefficients`` ends too
    (``_expansion_end``): _COEFF_RUN = 3 labels past the last one whose
    coefficient reaches _COEFF_FLOOR = 1e-13 of the largest.  Emits
    TruncationWarning when the retained modes capture less than 1 - tail_tol
    of the packet's norm.
    """
    traj._check(t)
    _initial_gate(gauss, traj, constants, sector)
    coeffs = _truncated_expansion(_packet_state(gauss, traj, constants, t), sector)
    expansion = SpectralExpansion(sector, coeffs, "contraction" if t >= traj.turn else "initial")
    captured = expansion.captured_norm
    if 1.0 - captured > tail_tol:
        _warn(
            f"retained modes capture {captured:.16f} of unit norm "
            f"(deficit above tail_tol = {tail_tol:.1e})",
            TruncationWarning,
        )
    return expansion


def evolve_sum(
    expansion: SpectralExpansion,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
    x,
):
    """Evolve by summing the retained modes of one solution family.

    A coefficient set belongs to one family: an "initial"-family expansion
    holds up to the wall's turn and a "contraction" one from the turn on,
    whether ``expansion_coefficients`` projected it at a t past the turn
    or ``contraction_coefficients`` re-expanded it.  Any other t raises
    DomainError.
    """
    leg = _leg(traj, t)
    if (expansion.family == "contraction") != (t >= traj.turn):
        raise DomainError(
            f"{expansion.family}-family coefficients do not hold at t = {t}: the "
            "initial family stops at the wall's turning point and the contraction "
            "family starts there; expansion_coefficients(..., t=t) projects the "
            "family that holds t"
        )
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = _mode_sum(expansion.coeffs, constants, *leg, xa, expansion.sector)
    return complex(out[0]) if np.ndim(x) == 0 else out


def evolve_theta_general(
    gauss: GaussianParams,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
    x,
    sector: str = "symmetric",
):
    """Closed form for an arbitrarily placed and boosted packet.

    Resumming the mode series gives, with z = pi x / L and
    C = pi beta / (2 a L0),

      psi = (2 pi)^{-1/4} d^{-1/2} sqrt(pi/a) / sqrt(L0 L)
            e^{i m x^2 L'/(2 hbar L)} e^{E}
            (1/2) [ theta_3((z-C)/2, kappa/4) - theta_s((z+C)/2, kappa/4) ],

    with s = 4 in the symmetric box and s = 3 for the single wall, where E
    merges the packet-offset exponents beta^2/(4a) - x0^2/(4 d^2) that
    would otherwise overflow separately.  For a centred packet
    (x0 = p0 = 0, so C = E = 0) in the symmetric box the bracket collapses
    to one theta:

      psi = (2 pi)^{-1/4} d^{-1/2} sqrt(pi/a) e^{i m x^2 L'/(2 hbar L)}
            theta_2(z, kappa(t)) / sqrt(L0 L).

    Past a wall's turn the same bracket resums the contraction family: L0,
    a and beta become the box size L_h and the packet's free spread and
    drift at the turn t_h, and kappa's clock restarts there,

      kappa_c(t) = i pi / (a_h L_h^2) - 2 pi hbar (tau(t) - tau(t_h)) / m

    (``_packet_state``).  In either box this is the closed route through
    the expand-reverse-contract cycle; the mode sum of
    ``contraction_coefficients`` is its numerical counterpart.
    """
    state = _checked_state(gauss, traj, constants, t, sector)
    return _evaluate(state, traj, constants, t, x, sector=sector)


def _checked_state(gauss, traj, constants, t: float, sector: str) -> _PacketState:
    """The packet in the family that holds t, once it passes the gate of
    the closed forms: inside the box at t = 0 and, from a wall's turn on,
    near enough the free Gaussian there, which the contraction family
    resums.  Both gates hold a squared L2 error to TAIL_GATE: at t = 0 the
    mass the Gaussian has beyond the walls, at the turn the square of
    ``_turn_error``'s closed-form bound.  A refused packet is sent to the
    mode sum, whose re-expansion at the turn follows it in either box."""
    _initial_gate(gauss, traj, constants, sector)
    error = _turn_error(gauss, traj, constants, sector) if 0 < traj.turn <= t else 0.0
    if not error**2 <= TAIL_GATE:
        raise DomainError(
            f"the closed form cannot reach t = {t}: the walls met the packet before their "
            f"turn at {traj.turn:g}, and resumming the free Gaussian there could be "
            f"{error:.3e} off in L2; the mode sum (evolve.route=sum) follows the packet"
        )
    return _packet_state(gauss, traj, constants, t)


def _turn_error(gauss, traj, constants, sector: str) -> float:
    """A bound, sqrt(2 (B^2 + P_out)), on the L2 error of the closed form
    past the wall's turn.  The closed form resums the free Gaussian at the
    turn folded into the box.  The packet there differs from it by the
    wall term over the box, whose norm is at most B, and by the free
    Gaussian's part beyond the walls folded in.  That part's mass is P_out,
    and its pieces from the two sides fold onto opposite ends of the box,
    so its norm is sqrt(P_out) up to their overlap, which is e^{-24} of it
    or less wherever 2 P_out <= TAIL_GATE.  The error is at most the sum
    of the two norms, and that is at most the bound.

    B is closed-form on a linear leg before the turn, which every wall
    that turns has (``ReversingLinearWall``, also rescaled); a wall that
    turns with L'' != 0 needs another bound.  On that leg the bracket is
    the method of images in the co-moving frame: image n != 0 is the free
    Gaussian's part in image cell n, the box shifted by n L, reflected into
    the box with a phase of modulus 1.  Its norm over the box is sqrt(P_n),
    P_n the free Gaussian's mass in that cell, so the wall term's norm is
    at most B = sum_{n != 0} sqrt(P_n).

    B sums the two neighbouring cells, n = +-1.  The others cannot move a
    decision: a packet with 2 P_out <= TAIL_GATE sits 4.89 free widths
    sigma or more inside both walls, so the box spans 9.78 sigma or more
    and every further cell lies 14.6 sigma or more from its centre, where
    all of them add less than 1e-23 to B.  Only a packet that P_out refuses
    on its own can have more there, and the figure its refusal prints
    leaves it out.
    """
    hbar, m, turn = constants.hbar, constants.mass, traj.turn
    sigma = gauss.d * math.hypot(1.0, hbar * turn / (2.0 * m * gauss.d**2))
    X = gauss.x0 + gauss.p0 * turn / m
    L = traj.length(turn)
    lo, hi = _box_interval(L, sector)
    images = sum(math.sqrt(_mass(X, sigma, lo + n * L, hi + n * L)) for n in (-1, 1))
    return math.sqrt(2.0 * (images**2 + _outside(X, sigma, L, sector)))


def _wall_term(gauss, traj, constants, t: float, xa: np.ndarray, sector: str):
    """psi on the points xa as ``evolve_theta_general`` gives it, its
    wall-free form there, and sup |psi - psi_wall-free|: what the walls add."""
    state = _checked_state(gauss, traj, constants, t, sector)
    psi = _evaluate(state, traj, constants, t, xa, sector=sector)
    free = _evaluate(state, traj, constants, t, xa, sector, wall_free=True)
    return psi, free, float(np.max(np.abs(psi - free)))


def evolve_unconfined_approx(
    gauss: GaussianParams,
    traj: WallTrajectory,
    constants: PhysicalConstants,
    t: float,
    x,
    sector: str = "symmetric",
):
    """Wall-free limit of the theta form, for any packet the gate admits.

    Replacing the bracket by the leading modular term of its first theta
    (the tail terms are exponentially small while the packet is far from
    the walls) gives

        psi = (2 pi)^{-1/4} d^{-1/2} sqrt(pi/a) e^{i m x^2 L'/(2 hbar L) + E}
              (-i kappa)^{-1/2} e^{-i (z-C)^2/(pi kappa)} / sqrt(L0 L).

    For a wall moving at constant speed this expression collapses to the
    free-space Gaussian exactly, independent of the speed.  The closed
    form is evaluated at the same x in the box ``sector``, the symmetric
    box or the single moving wall on [0, L], and LocalizationWarning is
    emitted when the dropped wall term, sup |psi - psi_wall-free| over x,
    exceeds LOCALITY_TOL = 1e-10.  A point that is not finite gives 0, as
    on the other routes, and so leaves the wall term alone.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    _, free, wall = _wall_term(gauss, traj, constants, t, xa, sector)
    if wall > LOCALITY_TOL:
        _warn(
            f"the walls add {wall:.3e} to the wall-free form at t = {t}; "
            "the wall-free approximation is breaking down",
            LocalizationWarning,
        )
    return complex(free[0]) if np.ndim(x) == 0 else free


def contraction_coefficients(
    start: SpectralExpansion,
    traj: WallTrajectory,
    constants: PhysicalConstants,
) -> SpectralExpansion:
    """Re-expand an initial-family expansion in the post-turn family.

    ``start`` is the initial-family expansion of a packet in either box, as
    ``expansion_coefficients`` gives it at t = 0, and ``traj`` a wall that
    turns; anything else raises DomainError.  Its mode sum is evaluated at
    the turn on the box [lo, lo + L_h] of ``start.sector`` and projected
    onto that box's contraction modes by the trapezoid rule on a uniform
    grid of N = ``_PROJECTION_POINTS`` = 2^15 intervals.  The trapezoid sums
    against e^{+-i pi nu x / L_h} for every nu <= N come from one length-2N
    FFT of the weighted samples, and a cos or sin family takes their
    half-sum or half-difference.  The projection reads labels up to
    2 n_max + 8 of ``start``, at least 16, and none whose nu passes N,
    where the FFT's bins fold back.  This is the numerical counterpart of
    ``expansion_coefficients(..., t=traj.turn)``, which projects the packet
    at the turn analytically; each validates the other, and both end by
    ``_expansion_end``.  Emits TruncationWarning when the projected modes
    capture a norm more than 1e-10 away from 1, either way.
    """
    if not (isinstance(start, SpectralExpansion) and start.family == "initial"):
        raise DomainError("contraction_coefficients re-expands an initial-family expansion")
    L_h, v_h, tau_h = _turn_leg(traj)
    sector, families, n = start.sector, _FAMILIES[start.sector], _PROJECTION_POINTS
    lo, hi = _box_interval(L_h, sector)
    xg = np.linspace(lo, hi, n + 1)
    # the initial family evaluated AT the turn: basis_solution has
    # already switched there, so sum the pre-turn leg explicitly
    pre = _mode_sum(start.coeffs, constants, L_h, v_h, tau_h, xg, sector)
    # the contraction modes at the turn are sqrt(2/L_h) e^{i rate x^2}
    # trig with their clock at zero; the conjugate chirp and the
    # trapezoid weights go into the projected samples once
    rate = _chirp_rate(constants, L_h, -v_h)
    g = (L_h / n) * math.sqrt(2.0 / L_h) * _unit(-rate * xg**2) * pre
    g[[0, -1]] *= 0.5
    # on x_j = lo + j L_h/N, lo = -q L_h/2 (q = 1 in the symmetric box, 0
    # for the single wall), the trig argument is pi nu j/N - q pi nu/2, so
    # sum_j g_j e^{+-i pi nu x_j/L_h} is bin -+nu of one length-2N FFT
    # times (-+i)^(q nu); cos and sin are the half-sum and half-difference
    q = int(-2.0 * lo / L_h)
    spectrum = np.fft.fft(g, 2 * n)
    # no label past nu = N, whose bins fold back onto lower ones
    last = min((n - f.shift) // f.step for f in families)
    n_fit = min(max(2 * start.n_max + 8, 16), last)
    projected = np.zeros((len(families), n_fit + 1), dtype=complex)
    for family, row in zip(families, projected):
        nu = family.step * np.arange(family.first, n_fit + 1) + family.shift
        up = _I_POWERS[-q * nu % 4] * spectrum[-nu % (2 * n)]
        down = _I_POWERS[q * nu % 4] * spectrum[nu % (2 * n)]
        row[family.first :] = (up - down) / 2j if family.sine else (up + down) / 2
    kept = tuple(projected[:, : _expansion_end(projected) + 1])
    contraction = SpectralExpansion(sector, kept, "contraction")
    captured = contraction.captured_norm
    if abs(1.0 - captured) > 1e-10:
        _warn(
            f"contraction-family modes capture {captured:.12f} of unit norm",
            TruncationWarning,
        )
    return contraction


def locality_compare(
    gauss: GaussianParams,
    constants: PhysicalConstants,
    traj_a: WallTrajectory,
    traj_b: WallTrajectory,
    t: float,
    x,
    tol: float = LOCALITY_TOL,
    sector: str = "symmetric",
) -> ComparisonReport:
    """Compare the same packet evolved under two different wall motions.

    Each trajectory's packet is evaluated on x as ``evolve_theta_general``
    evaluates it, with the same checks, and so is its wall-free form (see
    ``_evaluate``).  ``wall_amplitude`` sums sup |psi - psi_wall-free| over
    the pair; whenever the two wall-free parts agree it bounds the sup
    difference by the triangle inequality.  The verdict is "warn" when it
    exceeds ``tol`` (the packet has met a wall, so agreement is not
    expected), else "pass" when the sup difference is within ``tol`` and
    "fail" otherwise.

    The trajectories must start from the same box, except when one is the
    other rescaled (ScaledWall), which is precisely a locality statement:
    the packet cannot know the box size either.  ``sector`` selects the
    symmetric box or the single moving wall on [0, L].

    Bear in mind that an accelerating wall drags the compensating
    quadratic potential -(m/2)(L''/L) x^2 through the whole box, and that
    term acts on the packet no matter how far the walls are: it is part of
    the wall-free form.  Agreement is therefore only expected between
    trajectories with identical L''/L histories: constant-speed walls of
    any speed (both zero), or a trajectory against its rescaled self
    (L''/L is scale invariant).  A "fail" between, say, a uniformly moving
    and a breathing wall reports a real dynamical difference, not a
    locality violation.
    """
    la, lb = traj_a.length(0.0), traj_b.length(0.0)
    scaled_pair = (isinstance(traj_a, ScaledWall) and traj_a.inner == traj_b) or (
        isinstance(traj_b, ScaledWall) and traj_b.inner == traj_a
    )
    if not scaled_pair and abs(la - lb) > 1e-9 * max(la, lb):
        raise DomainError(
            "trajectories start from different boxes; only a scaled pair may do that"
        )
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    for traj in (traj_a, traj_b):
        if not np.all(_in_box(xa, traj.length(t), sector)):
            lo, hi = _box_interval(traj.length(t), sector)
            raise DomainError(f"comparison grid spans [{xa.min():g}, {xa.max():g}], which "
                              f"leaves the box [{lo:g}, {hi:g}] of one trajectory at t = {t:g}")
    psi_a, _, wall_a = _wall_term(gauss, traj_a, constants, t, xa, sector)
    psi_b, _, wall_b = _wall_term(gauss, traj_b, constants, t, xa, sector)
    diff = psi_a - psi_b
    sup = float(np.max(np.abs(diff)))
    if xa.size > 1:
        l2 = float(np.sqrt(np.trapezoid(np.abs(diff) ** 2, xa)))
    else:
        l2 = sup
    wall = wall_a + wall_b
    if wall > tol:
        verdict = "warn"
    elif sup <= tol:
        verdict = "pass"
    else:
        verdict = "fail"
    return ComparisonReport(sup_error=sup, l2_error=l2, wall_amplitude=wall, verdict=verdict)
