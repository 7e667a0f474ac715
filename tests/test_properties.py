"""Randomized cross-route sweep: theta closed form against the mode sum.

Hypothesis draws a packet (d, x0, p0), a box (L0, wall kind and its
parameters), a time and a box sector, all inside the wall-tail gate, and
requires ``evolve_theta_general`` and ``evolve_sum`` to agree to the
route tolerance of the acceptance gate, with no TruncationWarning from the
mode expansion (every packet sits far inside the gate).  The draw is
derandomized, so the sweep is the same on every run.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from movingwell import (
    GaussianParams,
    LinearWall,
    PhysicalConstants,
    ReversingLinearWall,
    SmoothPeriodicWall,
    TruncationWarning,
    evolve_sum,
    evolve_theta_general,
    expansion_coefficients,
)

C = PhysicalConstants()
#: sup-norm agreement the acceptance gate asks of the two routes
ROUTE_TOL = 1e-10
#: packet centre at least this many widths from either wall, which keeps
#: the mass beyond the walls near 1e-15, far inside the gate
MARGIN = 9.0
POINTS = 401

unit = st.floats(0.0, 1.0)


@st.composite
def scenarios(draw):
    L0 = 50.0 * (200.0 / 50.0) ** draw(unit)
    d = 0.4 + 1.6 * draw(unit)  # 2 MARGIN d stays below the smallest L0
    sector = draw(st.sampled_from(["symmetric", "single_wall"]))
    lo, hi = (0.0, L0) if sector == "single_wall" else (-L0 / 2, L0 / 2)
    x0 = lo + MARGIN * d + (hi - lo - 2 * MARGIN * d) * draw(unit)
    p0 = draw(st.floats(-2.0, 2.0))
    kind = draw(st.sampled_from(["linear", "smooth_periodic", "reversing_linear"]))
    t_rev = 4.0 * C.mass * L0**2 / (math.pi * C.hbar)
    if kind == "linear":
        traj = LinearWall(L0=L0, q=draw(st.floats(-0.2, 5.0)))
    elif kind == "smooth_periodic":
        traj = SmoothPeriodicWall(
            L0=L0, q=draw(st.floats(0.02, 0.2)), omega=draw(st.floats(0.5, 2.0))
        )
    else:
        # the theta form and the initial-family sum stop at the turn; a
        # closing wall keeps at least half its size, L(T/2) >= L0/2
        T = draw(st.floats(0.2, 2.0)) * t_rev
        q = draw(st.floats(max(-0.2, -L0 / T), 5.0))
        traj = ReversingLinearWall(L0=L0, q=q, T=T)
        t_rev = 0.999 * T / 2
    t_hi = t_rev if traj.t_max is None else min(t_rev, traj.t_max)
    t = 0.05 * (t_hi / 0.05) ** draw(unit)
    return GaussianParams(d=d, x0=x0, p0=p0), traj, t, sector


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
# an offset packet whose coefficient exponents once cancelled in rounding
# and left a 1.13e-14 norm deficit, above the default tail_tol
@example((GaussianParams(d=1.975, x0=31.321875), LinearWall(L0=50.0, q=3.0), 5.0, "single_wall"))
def test_theta_form_matches_mode_sum(case):
    gauss, traj, t, sector = case
    L = traj.length(t)
    lo, hi = (0.0, L) if sector == "single_wall" else (-L / 2, L / 2)
    x = np.linspace(lo, hi, POINTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        expansion = expansion_coefficients(gauss, traj, C, sector=sector)
    summed = evolve_sum(expansion, traj, C, t, x)
    closed = evolve_theta_general(gauss, traj, C, t, x, sector=sector)
    assert float(np.max(np.abs(closed - summed))) <= ROUTE_TOL
