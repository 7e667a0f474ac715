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
and three or four exp per point whatever the term count.  The reduction
holds its state in two complex ``_LD`` arrays, w and e0, made once per
call and shifted in place.  An S-step is two complex products, two real
divisions and two additions into e0 (about 65 us at 2,001 points on
x86-64, where one long-double pass takes 7 to 9 us).  The period shift
runs over the whole array once any point leaves its cell, as most do on
the last pass; the quasi shift, which few points take, touches only
those.  On the benchmark's packet rows the reduction is about 45% of a
call.  With 80-bit ``longdouble`` (x86-64 Linux, eps 1.1e-19) real
arguments near the axis come out within ~6e-16 relative to
max(1, |theta|), and out to 10^3 revivals within ~5e-16 of the sup.  On
platforms whose ``longdouble`` is plain double (MSVC builds) the same
code gives about 1e-13 in that near-axis regime (measured with ``_LD``
and ``_PI_LD`` rebound to float64).

``jacobi_transform``, the other side of the modular identity, is the
reference ``theta`` is checked against.  It forms -1/kappa, z/kappa and the
prefactor in ``_LD``, shifts into the cell as ``theta`` does, and then
takes no T- or S-step and no recurrence: every term of the dual series is
exponentiated in ``_LD`` from its own closed-form exponent
(``_sum_reference``), to the rounding of ``_LD``.  Where Re kappa lies
near an integer and Im kappa is small the dual series cancels: at the
worst of the 300,000 draws of theta-check's seeds 0-1,499 its largest
term is 6.7e5 times the sum.  Summed in doubles through the engine, the
reference missed ``theta`` by up to 9.3e-11 on those draws, while
``theta`` stayed within 4e-16 of mpmath; summed in ``_LD`` it misses by
8.0e-14 at most.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import ConvergenceError, DomainError, _unit

_VALID_KINDS = (2, 3, 4)
#: T/S steps allowed before ``_reduce`` gives up
_STEP_CAP = 64
#: most series terms ``truncation_bound`` allows; only the direct series of
#: ``jacobi_transform`` can reach it, near the real axis
_TERM_CAP = 10**6
#: absolute tolerance of ``theta`` and ``jacobi_transform``
_TOL = 1e-15

_LD = np.longdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")
#: terms ``jacobi_transform``'s reference sum exponentiates at once
_BLOCK = 64
#: absolute tolerance of that sum: the rounding of ``_LD``, below which a
#: dropped term is lost in the rounding of the ones kept
_REF_TOL = float(np.finfo(_LD).eps)
#: 2 pi = _TWO_PI_HI + _TWO_PI_LO to 1.4e-26, in doubles; the high part
#: (0x1.921fb544p+2) has 32 significant bits, so k _TWO_PI_HI is exact for
#: |k| < 2^21
_TWO_PI_HI = 6.2831853069365025
_TWO_PI_LO = 2.430840202602477e-10


def _validate(kind: int, kappa: complex) -> complex:
    if kind not in _VALID_KINDS:
        raise DomainError(f"kind must be one of {_VALID_KINDS}, got {kind!r}")
    kappa = complex(kappa)
    if not math.isfinite(kappa.real) or not math.isfinite(kappa.imag):
        raise DomainError("kappa must be finite")
    if kappa.imag <= 0:
        raise DomainError(f"Im kappa must be positive, got {kappa.imag}")
    return kappa


def truncation_bound(kappa: complex, z=0.0, tol: float = _TOL) -> int:
    """Smallest index N >= 1 beyond which all series terms are below tol.

    Term n of any of the three series is bounded by
    2 exp(-pi Im(kappa) n^2 + 2 n |Im z|), so N is the larger root of the
    exponent crossing ln(tol), rounded up; entries of z that are not finite
    are left out, since their terms are not finite at any N.  Raises
    ConvergenceError when N would exceed ``_TERM_CAP``, as it does when the
    root overflows.
    """
    kappa = _validate(2, kappa)
    if not 0 < tol < 1:
        raise DomainError("tol must lie in (0, 1)")
    pb = math.pi * kappa.imag
    zi = _finite_max(np.abs(np.asarray(z, dtype=complex).imag))
    # larger root of  pi b n^2 - 2 zi n + ln(tol) = 0, written so that an
    # overflowing pi b gives the root 0 rather than inf / inf
    r = zi / pb
    n_star = r + math.sqrt(r * r - math.log(tol) / pb)
    # ceil(n_star) > cap exactly when n_star > cap; an overflowed root is
    # past any cap and has no integer ceiling
    if n_star > _TERM_CAP:
        n = n_star if n_star == math.inf else math.ceil(n_star)
        raise ConvergenceError(
            f"series needs {n} terms, above the cap of {_TERM_CAP}; "
            "Im kappa is too small for direct summation"
        )
    return max(1, math.ceil(n_star))


def _finite_max(values) -> float:
    """The largest finite entry of ``values``, 0 when there is none."""
    return float(np.max(values, where=np.isfinite(values), initial=0.0))


def _sum_engine(kind, kappa_re, kappa_im, w, e0, n_max):
    """Sum the ``kind`` series at parameter kappa, argument w, with every
    term multiplied by exp(e0), over n = 0 .. n_max.  kappa arrives as two
    extended floats, w and e0 as complex extended arrays, and
    |Im w| <= pi Im kappa / 2.

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
    k = np.rint(e0.imag.astype(float) / (2 * math.pi))
    phase = (e0.imag - k * _TWO_PI_HI).astype(float) - k * _TWO_PI_LO
    pk_re = float(_PI_LD * kappa_re)
    half_pk_im = _PI_LD * kappa_im / 2
    wr = w.real.astype(float)
    if kind == 2:
        alpha = 1
        e_w = _unit(wr)
        base = _unit(phase + pk_re / 4)
        re = e0.real - half_pk_im / 2
        up = base * e_w * np.exp((re - w.imag).astype(float))
        dn = base * e_w.conj() * np.exp((re + w.imag).astype(float))
        e_2w = e_w * e_w
        total = up + dn
    else:
        alpha = 0
        up = dn = total = _unit(phase) * np.exp(e0.real.astype(float))
        e_2w = _unit(2 * wr)
    # g = e^{i pi kappa +- 2 i w}, the real part of its exponent merged
    rot = cmath.exp(1j * pk_re)
    # past pi Im kappa ~ 1e308 the exponent leaves the double range; it is
    # negative, and e^{-inf} = 0 is the term it stands for
    with np.errstate(over="ignore"):
        g_up = e_2w * (rot * np.exp(-2 * (half_pk_im + w.imag).astype(float)))
        g_dn = e_2w.conj() * (rot * np.exp(-2 * (half_pk_im - w.imag).astype(float)))
    q = cmath.exp(1j * math.pi * complex(float(kappa_re), float(kappa_im)))
    sign = -1 if kind == 4 else 1
    scale = 1.0
    for m in range(alpha, 2 * n_max + alpha, 2):
        up = up * g_up
        dn = dn * g_dn
        scale = scale * sign * q**m
        total = total + scale * (up + dn)
    return total


def _sum_reference(kind, kappa_re, kappa_im, w, e0, n_max):
    """The ``kind`` series at parameter kappa, argument w, with every term
    multiplied by exp(e0), over n = 0 .. n_max, summed term by term in
    extended precision; kappa arrives as two extended floats, w and e0 as
    complex extended arrays.

    The terms are those of ``_sum_engine``, the pairs
    t_m = e^{e0 + i pi kappa m^2/4 +- i m w} over m = 2n + alpha, one single
    term at m = 0 and the theta_4 sign (-1)^{m/2}, but each one is
    exponentiated from its own exponent, formed in closed form in ``_LD``,
    ``_BLOCK`` terms at a time.  No recurrence carries a rounding from one
    term to the next, and no step is shared with the engine.  exp(e0) is
    common to the terms and multiplies their sum once: added into each
    exponent, its phase (tens of radians) would give the terms independent
    roundings, which the cancellation near the real axis magnifies.
    """
    alpha = 1 if kind == 2 else 0
    # i pi kappa / 4
    ipk = 1j * (_PI_LD * (kappa_re + 1j * kappa_im) / 4)
    total = np.zeros_like(w)
    for first in range(0, n_max + 1, _BLOCK):
        n = np.arange(first, min(first + _BLOCK, n_max + 1))[:, None]
        m = (2 * n + alpha).astype(_LD)
        # the theta_4 sign, and one half at m = 0, whose pair is one term
        weight = np.where(m == 0, 0.5, 1.0) * (-1.0 if kind == 4 else 1.0) ** n
        mid = ipk * (m * m)
        side = 1j * m * w
        total += np.sum(weight * (np.exp(mid + side) + np.exp(mid - side)), axis=0)
    return np.exp(e0) * total


def _to_cell(kind, kr, ki, w, e0, quasi=True):
    """Shift w by the quasi-period pi kappa (when ``quasi``) and then by the
    period pi into the cell |Im w| <= pi Im kappa / 2, |Re w| <= pi / 2,
    merging the factors the shifts bring into e0:

        theta(v + j pi kappa) = s^j e^{-i pi kappa j^2 - 2 i j v} theta(v),

    s = -1 for theta_4 only, and theta_2(v + n pi) = (-1)^n theta_2(v).
    w and e0 (complex, extended) are shifted in place.  The quasi shift
    touches only the points where j is nonzero, which are few; the period
    shift runs over the whole array once any point moves, since on the last
    pass most of them do.
    """
    # any integer shift is exact, so j and n may be rounded in doubles
    if quasi:
        j = np.rint(w.imag.astype(float) / (math.pi * float(ki)))
        at = j.nonzero()
        if at[0].size:
            j = j[at].astype(_LD)
            pkr, pki = _PI_LD * kr, _PI_LD * ki
            wr = w.real[at] - j * pkr
            wi = w.imag[at] - j * pki
            w.real[at], w.imag[at] = wr, wi
            e0.real[at] += j * (pki * j + 2 * wi)
            # s^j = e^{i pi j} for theta_4
            e0.imag[at] -= j * (pkr * j + 2 * wr - (_PI_LD if kind == 4 else 0))
    n = np.rint(w.real.astype(float) / math.pi)
    if n.any():
        n = n.astype(_LD)
        w.real -= n * _PI_LD
        if kind == 2:
            e0.imag += _PI_LD * n


def _reduce(kind: int, z: np.ndarray, kappa: complex):
    """Map theta_kind(z, kappa) to the fundamental domain of kappa.

    Returns (kind', Re kappa', Im kappa', w, e0, front), all extended (w and
    e0 complex arrays), with theta_kind(z, kappa) = front e^{e0}
    theta_kind'(w, kappa') pointwise, |Re kappa'| <= 1/2 and |kappa'| >= 1,
    so Im kappa' >= sqrt(3)/2.
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
    exponent free of large cancelling terms.  w and e0 are made once, as
    complex extended arrays (e0 = 0), and an S-step is two complex
    products, v = w (1/kappa) and w v, and two real updates of e0 in place;
    these are the real operations of the step in the same order.
    """
    kr, ki = _LD(kappa.real), _LD(kappa.imag)
    # complex with both parts in _LD, read at call time
    w = z.astype(np.result_type(_LD, 1j))
    e0 = np.zeros_like(w)
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
        _to_cell(kind, kr, ki, w, e0, quasi=done)
        if done:
            front = front * np.exp(1j * _PI_LD * eighth / 4)
            return kind, kr, ki, w, e0, front
        inv = 1 / (kr + 1j * ki)
        front = front * np.sqrt(1j * inv)
        # w' = w / kappa, e0 -= i w w' / pi, kappa -> -1 / kappa
        v = w * inv
        wv = w * v
        e0.real += wv.imag / _PI_LD
        e0.imag -= wv.real / _PI_LD
        w, kr, ki = v, -inv.real, -inv.imag
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


def theta(kind: int, z, kappa: complex):
    """Evaluate theta_kind(z, kappa) for scalar or array z.

    Every call first maps kappa to the fundamental domain and z to its
    period cell (``_reduce``), then sums the reduced series, truncated at an
    absolute tolerance of ``_TOL`` / |front| = 1e-15 / |front| on the reduced
    series.  There
    Im kappa >= sqrt(3)/2, so about 5 terms reach 1e-15 whatever t is, and
    never more than 17 even at the 1e-300 floor of the reduced tolerance.
    ConvergenceError is raised when the reduction would exceed
    ``_STEP_CAP`` steps (which takes Im kappa far below any packet's, e.g.
    1e-200).  An entry of z that is not finite
    gives NaN, and the other entries come out as they would without it.
    """
    kappa = _validate(kind, kappa)

    def evaluate(z_arr):
        kind_r, kr, ki, w, e0, front = _reduce(kind, z_arr, kappa)
        front = complex(front)
        tol_r = min(max(_TOL / abs(front), 1e-300), 0.5)
        w_probe = 1j * _finite_max(np.abs(w.imag.astype(float)))
        n_max = truncation_bound(complex(float(kr), float(ki)), w_probe, tol_r)
        return front * _sum_engine(kind_r, kr, ki, w, e0, n_max)

    return _pointwise(z, evaluate)


def jacobi_transform(kind: int, z, kappa: complex):
    """Right-hand side of the modular identity, an independent reference for
    ``theta``:

    For kind 2:  (-i kappa)^{-1/2} e^{-i z^2/(pi kappa)} theta_4(z/kappa, -1/kappa)
    For kind 3:  same prefactor with theta_3 at the dual parameter.

    -1/kappa, w = z/kappa and the prefactor are formed in extended precision
    (``_LD``), the exponent -i z w / pi going into e0; w is shifted into its
    cell (``_to_cell``), whose factors join e0, and the dual series is summed
    directly, with no further T- or S-step, term by term in extended
    precision (``_sum_reference``) to ``_REF_TOL``.  It shares the cell shift
    with ``theta`` but neither the reduction nor the summation, so the
    comparison checks both.  Entries of z that are not finite give NaN, as
    in ``theta``.  Near the real axis the dual series can need more than
    ``_TERM_CAP`` terms, and ConvergenceError is raised.
    """
    if kind not in (2, 3):
        raise DomainError(f"kind must be 2 or 3, got {kind!r}")
    kappa = _validate(kind, kappa)
    dual = 4 if kind == 2 else 3
    inv = 1 / (_LD(kappa.real) + 1j * _LD(kappa.imag))
    kr, ki = -inv.real, -inv.imag

    def evaluate(z_arr):
        z_ld = z_arr.astype(np.result_type(_LD, 1j))
        w = z_ld * inv
        e0 = -1j * (z_ld * w) / _PI_LD
        _to_cell(dual, kr, ki, w, e0)
        w_probe = 1j * _finite_max(np.abs(w.imag.astype(float)))
        n_max = truncation_bound(complex(float(kr), float(ki)), w_probe, _REF_TOL)
        return (np.sqrt(1j * inv) * _sum_reference(dual, kr, ki, w, e0, n_max)).astype(complex)

    return _pointwise(z, evaluate)
