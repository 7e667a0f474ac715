import importlib
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from movingwell import propagator
from movingwell.core import (ConvergenceError, DomainError, GaussianParams, LinearWall,
                             PhysicalConstants, SmoothPeriodicWall)
from movingwell.theta import jacobi_transform, theta, truncation_bound

# the package re-exports the function theta under the submodule's name
theta_module = importlib.import_module("movingwell.theta")

# any numpy RuntimeWarning (overflow, inf - inf, ...) fails a theta test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

C = PhysicalConstants()
LD = np.longdouble
PI_LD = LD("3.14159265358979323846264338327950288")


def mp_theta(kind, z, kappa, dps=40):
    # mpmath takes the principal branch of q**(1/4) inside jtheta(2, ...),
    # which disagrees with the e^{i pi kappa/4} series convention once
    # |Re kappa| > 1; undo that before comparing
    with mp.workdps(dps):
        kap = mp.mpc(kappa)
        q = mp.exp(1j * mp.pi * kap)
        v = mp.jtheta(kind, mp.mpc(z), q)
        if kind == 2:
            v = v / q ** mp.mpf(0.25) * mp.exp(1j * mp.pi * kap / 4)
        return complex(v)


def test_frozen_values():
    # cos((2n+1) pi/2) = 0 for every n, so theta_2 vanishes at z = pi/2
    assert abs(theta(2, math.pi / 2, 1j)) < 1e-15
    assert abs(theta(2, math.pi / 2, 0.3 + 0.07j)) < 1e-14
    assert theta(2, 0.0, 10j) == pytest.approx(2 * math.exp(-2.5 * math.pi), rel=1e-15)
    # nome factor underflows entirely: only theta_3/theta_4's constant term survives
    assert theta(4, 0.0, 795.8j) == 1.0
    assert theta(3, 0.0, 795.8j) == 1.0


@pytest.mark.parametrize("kind", [2, 3, 4])
def test_direct_regime_against_mpmath(kind):
    rng = np.random.default_rng(100 + kind)
    for _ in range(40):
        kappa = complex(rng.uniform(-3, 3), rng.uniform(0.06, 4.0))
        z = complex(rng.uniform(-7, 7), rng.uniform(-1.5, 1.5))
        ours = theta(kind, z, kappa)
        ref = mp_theta(kind, z, kappa)
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-13)


def _peak_term_scale(z, kappa):
    # largest term magnitude in the transformed sum; the honest yardstick
    # for forward error when the sum cancels
    kd = -1.0 / kappa
    w = z / kappa
    e0_re = (-1j * z * z / (math.pi * kappa)).real
    peak = e0_re + abs(w.imag) ** 2 / (math.pi * kd.imag)
    return abs((-1j * kappa) ** -0.5) * math.exp(max(peak, e0_re, 0.0))


@pytest.mark.parametrize("kind", [2, 3, 4])
def test_transform_regime_against_mpmath(kind):
    rng = np.random.default_rng(200 + kind)
    for _ in range(25):
        # slow-decay nome: direct series would need hundreds to millions of terms
        kappa = complex(rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-4, -1.5))
        z = complex(rng.uniform(-3, 3), rng.uniform(-0.2, 0.2))
        ours = theta(kind, z, kappa)
        ref = mp_theta(kind, z, kappa, dps=60)
        scale = max(1.0, abs(ref), _peak_term_scale(z, kappa))
        assert abs(ours - ref) / scale < 1e-13


@pytest.mark.parametrize("kind", [2, 3, 4])
def test_transform_regime_real_argument(kind):
    # the regime propagation actually visits: real grid points, nome
    # parameter close to the real axis; no cancellation amplification here
    rng = np.random.default_rng(250 + kind)
    for _ in range(40):
        kappa = complex(rng.uniform(-0.03, 0.03), 10 ** rng.uniform(-4, -2))
        z = rng.uniform(-3.2, 3.2)
        ours = theta(kind, z, kappa)
        ref = mp_theta(kind, z, kappa, dps=60)
        assert abs(ours - ref) / max(1.0, abs(ref)) < 5e-15


@pytest.mark.parametrize("kind", [2, 3])
def test_modular_identity_cross_check(kind):
    # theta() and jacobi_transform() share no summation path in the regimes
    # chosen here, so agreement validates both
    rng = np.random.default_rng(300 + kind)
    for _ in range(20):
        kappa = complex(rng.uniform(-1, 1), rng.uniform(0.08, 2.0))
        z = complex(rng.uniform(-4, 4), rng.uniform(-0.5, 0.5))
        direct = theta(kind, z, kappa)
        via_dual = jacobi_transform(kind, z, kappa)
        assert via_dual == pytest.approx(direct, rel=1e-11, abs=1e-12)


def test_large_imaginary_argument_no_overflow():
    # naive evaluation hits 0 * inf here: the nome factor underflows while
    # cos(2 n z) grows like e^{60 n}
    kappa = 1j
    z = 30j
    ours = theta(3, z, kappa)
    ref = mp_theta(3, z, kappa, dps=60)
    assert np.isfinite(ours.real) and np.isfinite(ours.imag)
    assert ours == pytest.approx(ref, rel=1e-11)


def test_array_evaluation_matches_scalar():
    kappa = 0.2 + 0.4j
    zs = np.linspace(-3.0, 3.0, 17)
    arr = theta(2, zs, kappa)
    assert arr.shape == zs.shape
    for z, v in zip(zs, arr):
        assert v == pytest.approx(theta(2, float(z), kappa), rel=1e-14)
    assert isinstance(theta(2, 1.0, kappa), complex)


def test_truncation_bound_examples():
    assert truncation_bound(1j, 0.0, 1e-16) == 4
    assert truncation_bound(100j, 0.0, 1e-16) in (1, 2)
    # larger Im kappa can only shrink the bound
    prev = None
    for b in [0.01, 0.1, 1.0, 10.0]:
        n = truncation_bound(b * 1j, 0.5j, 1e-15)
        if prev is not None:
            assert n <= prev
        prev = n


def test_truncation_bound_is_honest():
    rng = np.random.default_rng(400)
    for _ in range(30):
        b = 10 ** rng.uniform(-3, 1)
        zi = rng.uniform(0.0, 3.0)
        tol = 10 ** rng.uniform(-16, -6)
        n = truncation_bound(b * 1j, zi * 1j, tol, cap=10**7)
        # every term at or past the bound is genuinely below tol
        for m in (n, n + 1, n + 5):
            log_term = -math.pi * b * m * m + 2 * m * zi
            assert log_term < math.log(tol)


def test_truncation_cap():
    with pytest.raises(ConvergenceError):
        truncation_bound(1e-9j, 0.0, 1e-15, cap=10**4)


def test_reduction_step_cap():
    # Re kappa near the golden ratio gains only ~1.9 in log Im kappa per
    # S-step, so Im kappa = 1e-200 needs more than the 64 steps allowed
    with pytest.raises(ConvergenceError, match="fundamental domain"):
        theta(3, 0.3, complex((math.sqrt(5) - 1) / 2, 1e-200))


def test_validation():
    with pytest.raises(DomainError):
        theta(1, 0.0, 1j)
    with pytest.raises(DomainError):
        theta(2, 0.0, 1.0 - 0.1j)
    with pytest.raises(DomainError):
        theta(2, 0.0, 1.0 + 0.0j)
    with pytest.raises(DomainError):
        theta(2, 0.0, 1j, tol=2.0)
    with pytest.raises(DomainError):
        jacobi_transform(4, 0.0, 1j)


@pytest.mark.parametrize("kappa", [0.2 + 2j, 0.3 + 0.05j, -7.9 + 0.004j, 0.3 + 0.01j, 2 + 1j])
@pytest.mark.parametrize("kind", [2, 3, 4])
def test_nan_argument_gives_nan_there_and_leaves_the_rest(kind, kappa):
    # kappa = 0.2 + 2i is in the fundamental domain; the others take S- or
    # T-steps, which used to mix the NaN into Im w and make the term-count
    # probe raise "cannot convert float NaN to integer", and to warn of
    # inf - inf from the reduction (0.3 + 0.01i) and the phase (2 + i)
    rng = np.random.default_rng(kind)
    bads = (complex(math.nan, 0.0), complex(0.4, math.nan), complex(math.inf, 0.0),
            complex(-math.inf, 0.0), complex(0.0, math.inf))
    for z in (rng.uniform(-3, 3, 6) + 0j, rng.uniform(-3, 3, 6) + 0.2j * rng.uniform(-1, 1, 6)):
        clean = theta(kind, z, kappa)
        for bad in bads:
            out = theta(kind, np.insert(z, 2, bad), kappa)
            assert np.isnan(out[2])
            assert np.array_equal(np.delete(out, 2), clean)
    assert np.isnan(theta(kind, math.nan, kappa))
    if kind != 4:
        assert np.isnan(jacobi_transform(kind, math.inf, kappa))
    assert truncation_bound(kappa, [0.1j, complex(0.0, math.nan)]) == truncation_bound(kappa, 0.1j)


def test_theta2_is_odd_about_half_period_and_even_in_z():
    kappa = 0.1 + 0.6j
    for z in [0.3, 1.1, 2.0]:
        assert theta(2, z, kappa) == pytest.approx(theta(2, -z, kappa), rel=1e-14)
        assert theta(2, math.pi - z, kappa) == pytest.approx(
            -theta(2, z, kappa), rel=1e-13
        )
    # theta_3 and theta_4 are pi-periodic
    for kind in (3, 4):
        assert theta(kind, 0.7 + math.pi, kappa) == pytest.approx(
            theta(kind, 0.7, kappa), rel=1e-13
        )


def mp_series(kind, zs, kappa, dps=50):
    # direct series in mpmath at the double kappa, every term down to
    # 10^-dps; the nome powers are shared by all z and e^{2inz} is built by
    # recurrence, so tiny Im kappa stays affordable
    with mp.workdps(dps):
        kap = mp.mpc(kappa.real, kappa.imag)
        b, zi = kappa.imag, max(abs(complex(z).imag) for z in zs)
        n_top = int((2 * zi + math.sqrt(4 * zi * zi + 4 * math.pi * b * dps * math.log(10)))
                    / (2 * math.pi * b)) + 3
        half = mp.mpf(1) / 2 if kind == 2 else 0
        q = [mp.exp(1j * mp.pi * kap * (n + half) ** 2) * (-1 if kind == 4 and n % 2 else 1)
             for n in range(n_top + 1)]
        n0 = 0 if kind == 2 else 1  # theta_3 and theta_4 start with q_0 = 1
        out = []
        for z in zs:
            z = mp.mpc(z)
            u = mp.exp(2j * z)
            a = mp.exp(1j * z) if kind == 2 else u  # e^{i(2n+1)z} or e^{2inz}
            c, s = 1 / a, q[0] * n0
            for n in range(n0, n_top + 1):
                s += q[n] * (a + c)
                a, c = a * u, c / u
            out.append(complex(s))
        return np.array(out)


def test_long_times_against_mpmath():
    # kappa = -8 r + delta + i eps is a packet r revivals on (Re kappa moves
    # by -8 per T_rev); the reduction returns every r to the same cell.
    # Measured worst over 11 seeds: 5.2e-16 of the sup (1.4e-13 with the
    # former single S-step); the bound keeps a 4x margin.
    rng = np.random.default_rng(909)
    x = np.linspace(-1.55, 1.55, 7)
    for r in (1, 10, 100, 1000):
        for kind in (2, 3, 4):
            kappa = complex(-8 * r + rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-3.5, -2.5))
            for zs in (x + 0j, x + 1j * rng.uniform(-0.01, 0.01, x.size)):
                ref = mp_series(kind, zs, kappa)
                err = np.max(np.abs(theta(kind, zs, kappa) - ref)) / np.max(np.abs(ref))
                assert err <= 2e-15, (r, kind, kappa, err)


def test_packet_rows_sum_at_most_five_terms(monkeypatch):
    # packet-like inputs over the whole first revival: L0 60-200, linear and
    # periodic walls, centred, offset and boosted packets
    terms = []
    engine = theta_module._sum_engine

    def counting(kind, *args):
        terms.append(args[-1])
        return engine(kind, *args)

    monkeypatch.setattr(theta_module, "_sum_engine", counting)
    consts = PhysicalConstants()
    for L0 in (60.0, 100.0, 200.0):
        t_rev = 4 * consts.mass * L0**2 / (math.pi * consts.hbar)
        walls = (LinearWall(L0=L0, q=0.0), LinearWall(L0=L0, q=-0.15),
                 LinearWall(L0=L0, q=4.0),
                 SmoothPeriodicWall(L0=L0, q=0.15, omega=1.7))
        packets = (GaussianParams(d=1.0), GaussianParams(d=0.6, x0=L0 / 6, p0=0.0),
                   GaussianParams(d=1.8, x0=-L0 / 7, p0=0.9))
        for wall in walls:
            for gauss in packets:
                for t in t_rev * np.array([1e-3, 0.03, 0.26, 0.5, 0.77, 1.0]):
                    if wall.t_max is not None and t > wall.t_max:
                        continue
                    half = wall.length(t) / 2
                    x = np.linspace(-half, half, 201)
                    propagator.evolve_theta_general(gauss, wall, consts, t, x)
    assert len(terms) >= 250
    assert max(terms) <= 5


def test_extended_precision_is_what_holds_the_near_axis_accuracy(monkeypatch):
    # the same engine with _LD and its constant rebound to float64, as on
    # platforms whose longdouble is plain double, on the draws of
    # test_transform_regime_real_argument.  The two-part 2 pi of the phase
    # reduction is in doubles already, so this runs the whole reduction and
    # summation in doubles.  Measured there: 3.9e-14 (1.07e-13 over 1,560
    # draws), against 3.9e-16 in extended precision.  The lower assertion
    # records that extended precision is still needed to meet that test's
    # 5e-15.
    monkeypatch.setattr(theta_module, "_LD", np.float64)
    monkeypatch.setattr(theta_module, "_PI_LD", np.float64(math.pi))
    worst = 0.0
    for kind in (2, 3, 4):
        rng = np.random.default_rng(250 + kind)
        for _ in range(40):
            kappa = complex(rng.uniform(-0.03, 0.03), 10 ** rng.uniform(-4, -2))
            z = rng.uniform(-3.2, 3.2)
            ref = mp_theta(kind, z, kappa, dps=60)
            worst = max(worst, abs(theta(kind, z, kappa) - ref) / max(1.0, abs(ref)))
    assert 5e-15 < worst <= 5e-13


def _free_packet(gauss, centre, p, s, y):
    # the packet of width d centred at ``centre`` with momentum p, phase
    # e^{i p y / hbar}, freely evolved for a time s; y in extended precision
    spread = 1 + 1j * C.hbar * s / (2 * C.mass * gauss.d**2)
    v = p / C.mass
    return ((2 * PI_LD) ** LD(-0.25) / np.sqrt(gauss.d * spread)
            * np.exp(-(y - centre - v * s) ** 2 / (4 * gauss.d**2 * spread)
                     + 1j * p * (y - v * s / 2) / C.hbar))


def _fractional_revival(gauss, L, lo, x, p, q, s):
    # the box [lo, lo + L] at t = T_rev p/q + s: the initial packet's odd,
    # 2L-periodic extension in q copies shifted by 2 L k / q and weighted by
    # Gauss sums (Aronstein and Stroud, PRA 55, 4526 (1997)), each image
    # then evolved freely for s
    def extension(y):
        out = 0
        for j in range(-2, 3):
            mirror = 2 * lo - 2 * L * j
            out = out + (np.exp(-2j * LD(gauss.p0) * L * j / C.hbar)
                         * _free_packet(gauss, gauss.x0 + 2 * L * j, gauss.p0, s, y))
            out = out - (np.exp(1j * LD(gauss.p0) * mirror / C.hbar)
                         * _free_packet(gauss, mirror - gauss.x0, -gauss.p0, s, y))
        return out

    n = np.arange(q)
    total = 0
    for k in range(q):
        a_k = np.exp(-2j * PI_LD * ((n * n * p + n * k) % q) / q).mean()
        total = total + a_k * extension(x.astype(LD) + LD(2 * L * k) / q)
    return total


@pytest.mark.parametrize("sector", ["symmetric", "single_wall"])
def test_fractional_revivals_against_gauss_sums(sector):
    # at t = T_rev p/q the static box holds q mirrored, shifted copies of the
    # packet, and kappa sits next to the rational point -8 p/q, where the
    # reduction takes its longest T/S chains.  The double t misses p/q by a
    # few ulps, which moves psi by up to 7e-12 at p/q ~ 40; the oracle is
    # therefore taken at the time the nome encodes, Re kappa = -8 t / T_rev.
    # Measured worst over these cases: 1.73e-14 of the sup, set by the
    # rounding of z = pi x / L and of the offset C (the bracket alone is
    # within 5e-16 of mpmath); the bound keeps a 3x margin.
    worst = 0.0
    for L0 in (60.0, 100.0):
        wall = LinearWall(L0=L0, q=0.0)
        t_rev = 4 * C.mass * L0**2 / (math.pi * C.hbar)
        if sector == "symmetric":
            lo = -L0 / 2
            packets = (GaussianParams(d=1.0), GaussianParams(d=0.8, x0=L0 / 6, p0=0.7))
        else:
            lo = 0.0
            packets = (GaussianParams(d=1.0, x0=L0 / 2),
                       GaussianParams(d=1.3, x0=L0 / 3, p0=-0.5))
        x = np.linspace(lo, lo + L0, 801)
        for gauss in packets:
            for q in range(3, 9):
                for p in (1, q - 1, 5 * q + 1):
                    t = t_rev * p / q
                    kappa = propagator.theta_nome(gauss, wall, C, t)
                    s = float(Fraction(-kappa.real) / 8 - Fraction(p, q)) * t_rev
                    ref = _fractional_revival(gauss, L0, lo, x, p, q, s)
                    ours = propagator.evolve_theta_general(gauss, wall, C, t, x, sector=sector)
                    err = float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
                    worst = max(worst, err)
    assert worst <= 5e-14, worst


def test_engine_cost_does_not_grow_with_the_term_count(monkeypatch):
    # the first term (or pair) and the two ratios g are the only
    # transcendental calls on the grid: every later term is a product, and
    # the phase is reduced by rint, not by an extended-precision np.mod
    points = 64
    terms, calls, mods = [], [], []
    engine = theta_module._sum_engine

    def counting_engine(kind, *args):
        terms.append(args[-1])
        return engine(kind, *args)

    monkeypatch.setattr(theta_module, "_sum_engine", counting_engine)
    for name in ("exp", "sin", "cos"):
        original = getattr(np, name)

        def counting(arg, *rest, _name=name, _original=original, **kw):
            if np.size(arg) >= points:
                calls[-1].append(_name)
            return _original(arg, *rest, **kw)

        monkeypatch.setattr(np, name, counting)
    for name in ("mod", "remainder", "fmod"):
        original = getattr(np, name)

        def recording(arg, *rest, _original=original, **kw):
            mods.append(np.asarray(arg).dtype)
            return _original(arg, *rest, **kw)

        monkeypatch.setattr(np, name, recording)
    x = np.linspace(-1.5, 1.5, points)
    for kind in (2, 3, 4):
        counts = []
        # one term at 20i, four at 0.45 + 0.9i; Im z = pi Im kappa takes a
        # quasi-period step, so that e0 is an array at both
        for kappa in (20j, 0.45 + 0.9j):
            calls.append([])
            theta(kind, x + 1j * math.pi * kappa.imag, kappa)
            counts.append(sorted(calls[-1]))
        assert terms[-2] == 1 and terms[-1] >= 4
        assert counts[0] == counts[1]
        assert len(counts[0]) == (8 if kind == 2 else 7)
    assert np.longdouble not in mods


@pytest.mark.parametrize("kind, z, kappa", [(3, -0.5 + 40.4j, 0.62 + 0.84j),
                                             (2, -1.5 - 26.2j, -0.94 + 0.55j),
                                             (3, 0.3 + 44j, 0.1 + 0.9j)])
def test_jacobi_transform_far_from_the_real_axis(kind, z, kappa, monkeypatch):
    # the dual series has no bound on Im w of its own, and |theta| reaches
    # 1e172-1e297 here.  w = z / kappa is shifted by its quasi-period first,
    # which the recurrence needs: unshifted, its ratio g reaches e^27-e^44
    # and at the first two points the partial products overflow although
    # the series does not.  The shift also keeps the series short: 5, 6
    # and 4 terms here, against 21 and 31 unshifted at the first two.
    terms = []
    engine = theta_module._sum_engine

    def counting(kind, *args):
        terms.append(args[-1])
        return engine(kind, *args)

    monkeypatch.setattr(theta_module, "_sum_engine", counting)
    ref = mp_theta(kind, z, kappa, dps=60)
    assert jacobi_transform(kind, z, kappa) == pytest.approx(ref, rel=1e-12)
    assert terms[0] <= 6
