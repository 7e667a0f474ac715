"""Jacobi theta functions of a complex nome parameter, tuned for wave packets.

Conventions (kind k, argument z, nome parameter kappa with Im kappa > 0):

    theta_2(z, kappa) = 2 sum_{n>=0} e^{i pi kappa (n+1/2)^2} cos((2n+1) z)
    theta_3(z, kappa) = 1 + 2 sum_{n>=1} e^{i pi kappa n^2} cos(2 n z)
    theta_4(z, kappa) = 1 + 2 sum_{n>=1} (-1)^n e^{i pi kappa n^2} cos(2 n z)

Propagation drives kappa toward the real axis (Im kappa -> 0) and along it
(Re kappa falls by 8 per revival of the static box), where the direct
series needs hundreds to thousands of terms.  ``theta`` therefore maps every
call to the fundamental domain |Re kappa| <= 1/2, |kappa| >= 1 by exact
T-steps kappa -> kappa - m and modular S-steps kappa -> -1/kappa, reducing
z by its period and quasi-period on the way (the genus-1 case of
Deconinck, Heil, Bobenko, van Hoeij and Schmies, "Computing Riemann theta
functions", Math. Comp. 73 (2004)).  There Im kappa >= sqrt(3)/2, so at
most about five terms reach 1e-15 at any time.

Two numerical hazards are handled explicitly.  First, overflow: the real
parts of a term's exponents (Gaussian prefactor included) are merged into a
single exponent before exponentiating, so intermediate under/overflow
cannot poison a finite result.  Second, phase conditioning: the merged
exponent carries phases like |z|^2/(pi |kappa|), reaching 1e4-1e5 radians
near the real axis, where a double's rounding of the phase is already
~1e-12.  The reduction therefore runs in extended precision (``_LD``), and
so does the summation wherever large parts meet: the phase Im e0 is
reduced mod 2 pi once per point, against a two-part 2 pi, and the real
exponents of the first term and of the ratio g below, where Re e0 and
pi Im kappa' (up to ~4e4 on packet rows) cancel, are merged before the cast
to double.  Every later term follows from t_{m+2} = t_m g q^m with
q = e^{i pi kappa'}; the reduction leaves |Im w| <= pi Im kappa'/2, so
|g| <= 1 and no product can overflow.  A call costs the same four cos/sin
and three or four exp per point whatever the term count.  With 80-bit
``longdouble`` (x86-64 Linux, eps 1.1e-19) real arguments near the axis
come out within ~6e-16 relative to max(1, |theta|), and out to 10^3
revivals within ~5e-16 of the sup.  On platforms whose ``longdouble`` is
plain double (MSVC builds) the same code gives about 1e-13 in that
near-axis regime (measured with ``_LD`` and ``_PI_LD`` rebound to float64).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import ConvergenceError, DomainError

_VALID_KINDS = (2, 3, 4)
#: T/S steps allowed before ``_reduce`` gives up
_STEP_CAP = 64

_LD = np.longdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")
#: 2 pi = _TWO_PI_HI + _TWO_PI_LO to 1.4e-26, in doubles; the high part
#: (0x1.921fb544p+2) has 32 significant bits, so k _TWO_PI_HI is exact for
#: |k| < 2^21
_TWO_PI_HI = 6.2831853069365025
_TWO_PI_LO = 2.430840202602477e-10


def _validate(kind: int, kappa: complex, tol: float, cap: int) -> complex:
    if kind not in _VALID_KINDS:
        raise DomainError(f"kind must be one of {_VALID_KINDS}, got {kind!r}")
    kappa = complex(kappa)
    if not math.isfinite(kappa.real) or not math.isfinite(kappa.imag):
        raise DomainError("kappa must be finite")
    if kappa.imag <= 0:
        raise DomainError(f"Im kappa must be positive, got {kappa.imag}")
    if not 0 < tol < 1:
        raise DomainError("tol must lie in (0, 1)")
    if cap < 1:
        raise DomainError("cap must be at least 1")
    return kappa


def truncation_bound(kappa: complex, z=0.0, tol: float = 1e-15, cap: int = 10**6) -> int:
    """Smallest index N >= 1 beyond which all series terms are below tol.

    Term n of any of the three series is bounded by
    2 exp(-pi Im(kappa) n^2 + 2 n |Im z|), so N is the larger root of the
    exponent crossing ln(tol), rounded up; entries of z that are not finite
    are left out, since their terms are not finite at any N.  Raises
    ConvergenceError when N would exceed ``cap``.
    """
    kappa = _validate(2, kappa, tol, cap)
    b = kappa.imag
    zi = _finite_max(np.abs(np.asarray(z, dtype=complex).imag))
    log_tol = math.log(tol)
    # larger root of  pi b n^2 - 2 zi n + log_tol = 0
    disc = zi * zi - math.pi * b * log_tol
    n_star = (zi + math.sqrt(disc)) / (math.pi * b)
    n = max(1, math.ceil(n_star))
    if n > cap:
        raise ConvergenceError(
            f"series needs {n} terms, above the cap of {cap}; "
            "Im kappa is too small for direct summation"
        )
    return n


def _finite_max(values) -> float:
    """The largest finite entry of ``values``, 0 when there is none."""
    return float(np.max(values, where=np.isfinite(values), initial=0.0))


def _unit(angle):
    """cos(angle) + i sin(angle), each written straight into its half."""
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _sum_engine(kind, kappa_re, kappa_im, w_re, w_im, e0_re, e0_im, n_max):
    """Sum the ``kind`` series at parameter kappa, argument w, with every
    term multiplied by exp(e0), over n = 0 .. n_max.  All exponent pieces
    arrive as extended floats, and |Im w| <= pi Im kappa / 2.

    The three kinds are one characteristic series over m = 2n + alpha,
    alpha = 1 for theta_2 and 0 otherwise: the pair of terms
    t_m = e^{e0 + i pi kappa m^2/4 +- i m w}, one single term at m = 0, and
    for theta_4 the sign (-1)^{m/2}, negative when m = 2 (mod 4).

    Only the first term (or pair) is exponentiated, as exp(re) (cos + i sin).
    Its phase is Im e0, reduced once by rint against 2 pi = hi + lo (k hi is
    exact, and so is the subtraction), plus the small pi Re kappa m^2/4
    +- m Re w; its real exponent re = Re e0 - pi Im kappa m^2/4 -+ m Im w is
    merged in extended precision.  Every later term follows from

        t_{m+2} = t_m g q^m,   g = e^{i pi kappa +- 2 i w},   q = e^{i pi kappa},

    with Re log g = -pi Im kappa -+ 2 Im w merged in extended precision as
    well.  The bound on Im w gives |g| <= 1, and |q| < 1, so the terms only
    shrink and no product can overflow.  The q^m and the theta_4 sign are
    carried by one scalar, and the terms fall geometrically into a plain sum.
    """
    k = np.rint(np.asarray(e0_im, dtype=float) / (2 * math.pi))
    phase = np.asarray(e0_im - k * _TWO_PI_HI, dtype=float) - k * _TWO_PI_LO
    pk_re = float(_PI_LD * kappa_re)
    half_pk_im = _PI_LD * kappa_im / 2
    wr = np.asarray(w_re, dtype=float)
    if kind == 2:
        alpha = 1
        e_w = _unit(wr)
        base = _unit(phase + pk_re / 4)
        re = e0_re - half_pk_im / 2
        up = base * e_w * np.exp(np.asarray(re - w_im, dtype=float))
        dn = base * e_w.conj() * np.exp(np.asarray(re + w_im, dtype=float))
        e_2w = e_w * e_w
        total = up + dn
    else:
        alpha = 0
        up = dn = total = _unit(phase) * np.exp(np.asarray(e0_re, dtype=float))
        e_2w = _unit(2 * wr)
    # g = e^{i pi kappa +- 2 i w}, the real part of its exponent merged
    rot = cmath.exp(1j * pk_re)
    g_up = e_2w * (rot * np.exp(-2 * np.asarray(half_pk_im + w_im, dtype=float)))
    g_dn = e_2w.conj() * (rot * np.exp(-2 * np.asarray(half_pk_im - w_im, dtype=float)))
    q = cmath.exp(1j * math.pi * complex(float(kappa_re), float(kappa_im)))
    sign = -1 if kind == 4 else 1
    scale = 1.0
    for m in range(alpha, 2 * n_max + alpha, 2):
        up = up * g_up
        dn = dn * g_dn
        scale = scale * sign * q**m
        total = total + scale * (up + dn)
    return total


def _to_cell(kind, kr, ki, wr, wi, er, ei, quasi=True):
    """Shift w by the quasi-period pi kappa (when ``quasi``) and then by the
    period pi into the cell |Im w| <= pi Im kappa / 2, |Re w| <= pi / 2,
    merging the factors the shifts bring into e0:

        theta(v + j pi kappa) = s^j e^{-i pi kappa j^2 - 2 i j v} theta(v),

    s = -1 for theta_4 only, and theta_2(v + n pi) = (-1)^n theta_2(v).
    Returns (Re w, Im w, Re e0, Im e0), extended like the arguments.
    """
    # any integer shift is exact, so j and n may be rounded in doubles
    if quasi:
        j = np.rint(wi.astype(float) / (math.pi * float(ki)))
        if j.any():
            j = j.astype(_LD)
            pkr, pki = _PI_LD * kr, _PI_LD * ki
            wr = wr - j * pkr
            wi = wi - j * pki
            er = er + j * (pki * j + 2 * wi)
            # s^j = e^{i pi j} for theta_4
            ei = ei - j * (pkr * j + 2 * wr - (_PI_LD if kind == 4 else 0))
    n = np.rint(wr.astype(float) / math.pi)
    if n.any():
        n = n.astype(_LD)
        wr = wr - n * _PI_LD
        if kind == 2:
            ei = ei + _PI_LD * n
    return wr, wi, er, ei


def _sum_direct(kind: int, z: np.ndarray, kappa: complex, tol: float, cap: int):
    """Direct series at the given parameter: kappa takes no T- or S-step,
    but z is shifted into its cell, as the engine's recurrence needs."""
    kr, ki = _LD(kappa.real), _LD(kappa.imag)
    wr, wi, er, ei = _to_cell(
        kind, kr, ki, np.asarray(z.real, dtype=_LD), np.asarray(z.imag, dtype=_LD), _LD(0), _LD(0)
    )
    n_max = truncation_bound(kappa, 1j * _finite_max(np.abs(wi.astype(float))), tol, cap)
    return _sum_engine(kind, kr, ki, wr, wi, er, ei, n_max)


def _reduce(kind: int, z: np.ndarray, kappa: complex):
    """Map theta_kind(z, kappa) to the fundamental domain of kappa.

    Returns (kind', Re kappa', Im kappa', Re w, Im w, Re e0, Im e0, front),
    all extended, with theta_kind(z, kappa) = front e^{e0} theta_kind'(w, kappa')
    pointwise, |Re kappa'| <= 1/2 and |kappa'| >= 1, so Im kappa' >= sqrt(3)/2.
    Each pass takes the exact T-shift kappa -> kappa - m (theta_3 and theta_4
    swap for odd m, theta_2 gains e^{i pi m/4}, kept as an index mod 8),
    reduces Re w by the period pi (theta_2 changes sign on odd shifts), and
    then either stops or takes the S-step

        theta_{2,3,4}(w, kappa) = (-i kappa)^{-1/2} e^{-i w^2/(pi kappa)}
                                  theta_{4,3,2}(w/kappa, -1/kappa).

    Every pass shifts w into its cell (``_to_cell``); the quasi-period
    step runs only at the stop, because before an S-step it is the real
    shift j pi of w/kappa, which the next pass's period step takes.
    Reducing w at every stage, not only at the end, keeps the merged
    exponent free of large cancelling terms.
    """
    kr, ki = _LD(kappa.real), _LD(kappa.imag)
    wr = np.asarray(z.real, dtype=_LD)
    wi = np.asarray(z.imag, dtype=_LD)
    er = ei = _LD(0)
    eighth = 0
    front = 1
    for _ in range(_STEP_CAP):
        m = np.rint(kr)
        kr = kr - m
        if kind == 2:
            eighth = (eighth + int(m)) % 8
        elif int(m) % 2:
            kind = 7 - kind
        done = kr * kr + ki * ki >= 1
        wr, wi, er, ei = _to_cell(kind, kr, ki, wr, wi, er, ei, quasi=done)
        if done:
            front = front * np.exp(1j * _PI_LD * eighth / 4)
            return kind, kr, ki, wr, wi, er, ei, front
        inv = 1 / (kr + 1j * ki)
        front = front * np.sqrt(1j * inv)
        # w' = w / kappa, e0 -= i w w' / pi, kappa -> -1 / kappa
        ir, ii = inv.real, inv.imag
        vr, vi = wr * ir - wi * ii, wr * ii + wi * ir
        er = er + (wr * vi + wi * vr) / _PI_LD
        ei = ei - (wr * vr - wi * vi) / _PI_LD
        wr, wi, kr, ki = vr, vi, -ir, -ii
        kind = 6 - kind
    raise ConvergenceError(
        f"kappa = {kappa!r} did not reach the fundamental domain in {_STEP_CAP} steps"
    )


def _pointwise(z, evaluate):
    """``evaluate`` on the entries of z as a 1-d complex array, with the
    entries that are not finite set to 0 before and to NaN after, so that
    they never meet the arithmetic; a complex for scalar z."""
    z_in = np.asarray(z, dtype=complex)
    z_arr = np.atleast_1d(z_in)
    bad = ~np.isfinite(z_arr)
    out = evaluate(np.where(bad, 0.0, z_arr))
    out[bad] = np.nan
    return complex(out[0]) if z_in.ndim == 0 else out


def theta(kind: int, z, kappa: complex, tol: float = 1e-15, cap: int = 10**6):
    """Evaluate theta_kind(z, kappa) for scalar or array z.

    Every call first maps kappa to the fundamental domain and z to its
    period cell (``_reduce``), then sums the reduced series, truncated at an
    absolute tolerance of tol / |front| on the reduced series.  There
    Im kappa >= sqrt(3)/2, so about 5 terms reach 1e-15 whatever t is.
    ConvergenceError is raised when the term count would exceed ``cap`` or
    the reduction would exceed ``_STEP_CAP`` steps (which takes Im kappa
    far below any packet's, e.g. 1e-200).  An entry of z that is not finite
    gives NaN, and the other entries come out as they would without it.
    """
    kappa = _validate(kind, kappa, tol, cap)

    def evaluate(z_arr):
        kind_r, kr, ki, wr, wi, er, ei, front = _reduce(kind, z_arr, kappa)
        front = complex(front)
        tol_r = min(max(tol / abs(front), 1e-300), 0.5)
        w_probe = 1j * _finite_max(np.abs(wi.astype(float)))
        n_max = truncation_bound(complex(float(kr), float(ki)), w_probe, tol_r, cap)
        return front * _sum_engine(kind_r, kr, ki, wr, wi, er, ei, n_max)

    return _pointwise(z, evaluate)


def jacobi_transform(kind: int, z, kappa: complex, tol: float = 1e-15, cap: int = 10**6):
    """Right-hand side of the modular identity, built from the direct series.

    For kind 2:  (-i kappa)^{-1/2} e^{-i z^2/(pi kappa)} theta_4(z/kappa, -1/kappa)
    For kind 3:  same prefactor with theta_3 at the dual parameter.

    The dual series is summed directly (never re-routed) and the prefactor
    is applied as an ordinary product, so comparing against ``theta``
    exercises a genuinely different evaluation path.  Entries of z that are
    not finite give NaN, as in ``theta``.
    """
    if kind not in (2, 3):
        raise DomainError(f"kind must be 2 or 3, got {kind!r}")
    kappa = _validate(kind, kappa, tol, cap)
    dual = 4 if kind == 2 else 3
    kappa_d = -1.0 / kappa

    def evaluate(z_arr):
        front = (-1j * kappa) ** -0.5 * np.exp(-1j * z_arr * z_arr / (math.pi * kappa))
        return front * _sum_direct(dual, z_arr / kappa, kappa_d, tol, cap)

    return _pointwise(z, evaluate)
