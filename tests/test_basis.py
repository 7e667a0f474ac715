import ast
import math
from pathlib import Path

import numpy as np
import pytest

import movingwell
from movingwell.basis import (
    _FAMILIES,
    BasisIndex,
    _box_interval,
    _in_box,
    _level_index,
    basis_solution,
    instantaneous_eigenstate,
    instantaneous_energy,
    reversal_mismatch_ratio,
    schrodinger_residual,
    transformed_basis_solution,
)
from movingwell.core import (
    DomainError,
    LinearWall,
    PhysicalConstants,
    ReversingLinearWall,
    SmoothPeriodicWall,
)

C = PhysicalConstants()


def test_index_labels():
    assert BasisIndex("even", 0).nu == 1
    assert BasisIndex("even", 3).nu == 7
    assert BasisIndex("odd", 1).nu == 2
    assert BasisIndex("odd", 4).nu == 8
    assert BasisIndex("single_wall", 1).nu == 1
    assert BasisIndex("single_wall", 5).nu == 5
    with pytest.raises(DomainError):
        BasisIndex("even", -1)
    with pytest.raises(DomainError):
        BasisIndex("odd", 0)
    with pytest.raises(DomainError):
        BasisIndex("single_wall", 0)
    with pytest.raises(DomainError):
        BasisIndex("radial", 1)


def test_sector_table_drives_labels_and_boxes():
    # every mode family starts at its first n and lives in its box sector
    for box, families in _FAMILIES.items():
        for family in families:
            idx = BasisIndex(family.sector, family.first)
            assert idx.nu == family.step * family.first + family.shift
            assert idx.is_sine == family.sine
            with pytest.raises(DomainError):
                BasisIndex(family.sector, family.first - 1)
            lo, hi = _box_interval(10.0, box)
            assert hi - lo == 10.0
            x = np.array([lo, hi, lo - 1e-9, hi + 1e-9, np.nan])
            assert _in_box(x, 10.0, box).tolist() == [True, True, False, False, False]
    assert _box_interval(10.0, "symmetric") == (-5.0, 5.0)
    assert _box_interval(10.0, "single_wall") == (0.0, 10.0)


def test_level_index_inverts_the_family_table():
    # box level nu of the symmetric box: cos modes carry the odd levels,
    # sin modes the even ones
    for nu in range(1, 40):
        idx = _level_index(nu)
        assert idx.nu == nu
        assert idx.is_sine == (nu % 2 == 0)
    assert _level_index(1) == BasisIndex("even", 0)
    assert _level_index(4) == BasisIndex("odd", 2)
    for nu in (0, -1, -2):
        with pytest.raises(DomainError):
            _level_index(nu)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(movingwell.__file__).parent.glob("*.py"))
)
def test_only_the_family_table_names_a_family(module):
    # the mode families are named in basis._FAMILIES and nowhere else in
    # the package; every other module reads them from that table
    tree = ast.parse((Path(movingwell.__file__).parent / module).read_text())
    table = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "_FAMILIES" for target in node.targets
        ):
            table.update(map(id, ast.walk(node)))
    assert module == "basis.py" or not table
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in ("even", "odd"):
            assert id(node) in table, f"{module}:{node.lineno}"


@pytest.mark.parametrize("sector", ["even", "odd", "radial"])
def test_box_helpers_take_box_sectors_only(sector):
    with pytest.raises(DomainError, match="sector must be one of"):
        _in_box(np.zeros(3), 10.0, sector)


def test_eigenstate_orthonormality_symmetric_box():
    L = 7.3
    x = np.linspace(-L / 2, L / 2, 20001)
    modes = [BasisIndex("even", n) for n in range(3)] + [
        BasisIndex("odd", n) for n in range(1, 4)
    ]
    for i, a in enumerate(modes):
        fa = instantaneous_eigenstate(a, L, x)
        for b in modes[i:]:
            fb = instantaneous_eigenstate(b, L, x)
            expect = 1.0 if a == b else 0.0
            overlap = np.trapezoid(fa * fb, x)
            assert overlap == pytest.approx(expect, abs=1e-8)


def test_eigenstate_orthonormality_single_wall():
    L = 5.0
    x = np.linspace(0.0, L, 20001)
    modes = [BasisIndex("single_wall", n) for n in range(1, 5)]
    for i, a in enumerate(modes):
        fa = instantaneous_eigenstate(a, L, x)
        for b in modes[i:]:
            fb = instantaneous_eigenstate(b, L, x)
            expect = 1.0 if a == b else 0.0
            assert np.trapezoid(fa * fb, x) == pytest.approx(expect, abs=1e-8)


def test_eigenstate_vanishes_outside_box():
    L = 4.0
    assert instantaneous_eigenstate(BasisIndex("even", 0), L, 2.5) == 0.0
    assert instantaneous_eigenstate(BasisIndex("single_wall", 1), L, -0.3) == 0.0
    vals = instantaneous_eigenstate(BasisIndex("even", 1), L, np.array([-3.0, 0.0, 3.0]))
    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] != 0.0


def test_energy_values_and_scaling():
    # ground level of a unit-mass particle in a box of size pi: E = 1/2
    assert instantaneous_energy(BasisIndex("even", 0), math.pi, C) == pytest.approx(0.5)
    e1 = instantaneous_energy(BasisIndex("odd", 2), 10.0, C)
    e2 = instantaneous_energy(BasisIndex("odd", 2), 20.0, C)
    assert e1 / e2 == pytest.approx(4.0, rel=1e-14)
    # nu^2 law across sectors
    assert instantaneous_energy(BasisIndex("even", 1), 10.0, C) == pytest.approx(
        9.0 * instantaneous_energy(BasisIndex("single_wall", 1), 10.0, C), rel=1e-14
    )


def test_solution_reduces_to_eigenstate_when_wall_at_rest():
    traj = SmoothPeriodicWall(L0=10.0, q=0.2, omega=1.0)  # velocity(0) = 0
    x = np.linspace(-4.9, 4.9, 41)
    for idx in [BasisIndex("even", 1), BasisIndex("odd", 2)]:
        sol = basis_solution(idx, traj, C, 0.0, x)
        ref = instantaneous_eigenstate(idx, 10.0, x)
        assert np.max(np.abs(sol - ref)) < 1e-14


def test_solution_initial_chirp_for_moving_wall():
    traj = LinearWall(L0=10.0, q=1.5)
    x = np.linspace(-4.9, 4.9, 41)
    idx = BasisIndex("even", 0)
    sol = basis_solution(idx, traj, C, 0.0, x)
    ref = instantaneous_eigenstate(idx, 10.0, x)
    chirp = np.exp(1j * C.mass * traj.q * x**2 / (2 * C.hbar * 10.0))
    assert np.max(np.abs(sol - chirp * ref)) < 1e-14


@pytest.mark.parametrize(
    "traj",
    [
        LinearWall(L0=10.0, q=1.5),
        SmoothPeriodicWall(L0=10.0, q=0.2, omega=1.0),
        ReversingLinearWall(L0=10.0, q=0.5, T=4.0),
    ],
    ids=lambda tr: type(tr).__name__,
)
def test_solution_stays_normalized(traj):
    idx = BasisIndex("even", 2)
    for t in [0.0, 1.0, 3.5]:
        L = traj.length(t)
        x = np.linspace(-L / 2, L / 2, 4001)
        psi = basis_solution(idx, traj, C, t, x)
        norm2 = np.trapezoid(np.abs(psi) ** 2, x)
        assert norm2 == pytest.approx(1.0, abs=1e-8)


def test_residual_constant_speed_wall_solves_bare_box():
    traj = LinearWall(L0=5.0, q=0.3)
    idx = BasisIndex("even", 2)  # nu = 5
    r1 = schrodinger_residual(idx, traj, C, 1.0, potential="well", dt=2e-3)
    r2 = schrodinger_residual(idx, traj, C, 1.0, potential="well", dt=1e-3)
    assert r1 < 1e-4
    assert r1 / r2 == pytest.approx(4.0, abs=1.0)  # second-order in dt


def test_residual_accelerating_wall_needs_quadratic_term():
    traj = SmoothPeriodicWall(L0=5.0, q=0.3, omega=1.0)
    idx = BasisIndex("even", 2)
    t = 0.7
    r_well = schrodinger_residual(idx, traj, C, t, potential="well", dt=1e-3)
    r_tdlo = schrodinger_residual(idx, traj, C, t, potential="tdlo", dt=1e-3)
    assert r_well > 1e-3  # missing potential shows up directly
    assert r_tdlo < 1e-4
    r_tdlo_half = schrodinger_residual(idx, traj, C, t, potential="tdlo", dt=5e-4)
    assert r_tdlo / r_tdlo_half == pytest.approx(4.0, abs=1.0)


def test_residual_reversing_wall_both_legs():
    traj = ReversingLinearWall(L0=5.0, q=0.4, T=4.0)
    idx = BasisIndex("odd", 2)
    for t in [1.0, 3.0]:  # one on each leg, away from the kink
        r = schrodinger_residual(idx, traj, C, t, potential="well", dt=1e-3)
        assert r < 1e-4
    # a probe window across the kink would difference the two families
    for t in [1.999, 2.0, 2.001]:
        with pytest.raises(DomainError, match="crosses the wall's turn"):
            schrodinger_residual(idx, traj, C, t, potential="well", dt=2e-3)


def test_residual_validation():
    traj = LinearWall(L0=5.0, q=0.3)
    with pytest.raises(DomainError):
        schrodinger_residual(BasisIndex("even", 2), traj, C, 1.0, potential="box")
    with pytest.raises(DomainError):
        schrodinger_residual(BasisIndex("even", 200), traj, C, 1.0)
    with pytest.raises(DomainError):
        schrodinger_residual(BasisIndex("even", 2), traj, C, 1.0, dt=-1.0)


def test_transformed_solution_is_rescaled_lab_solution():
    traj = SmoothPeriodicWall(L0=10.0, q=0.2, omega=1.0)
    t = 2.1
    L0, L = 10.0, traj.length(t)
    y = np.linspace(-4.9, 4.9, 37)
    for idx in [BasisIndex("even", 1), BasisIndex("odd", 1)]:
        lhs = transformed_basis_solution(idx, traj, C, t, y)
        rhs = math.sqrt(L / L0) * basis_solution(idx, traj, C, t, L * y / L0)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_transformed_solution_fixed_domain():
    traj = LinearWall(L0=10.0, q=2.0)
    idx = BasisIndex("even", 0)
    # at t=3 the box has grown to L=16, but in transformed coordinates the
    # solution still lives on [-5, 5]
    assert transformed_basis_solution(idx, traj, C, 3.0, 4.99) != 0.0
    assert transformed_basis_solution(idx, traj, C, 3.0, 5.01) == 0.0


def test_mismatch_ratio_structure():
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    idx = BasisIndex("even", 0)
    x = np.linspace(-30.0, 30.0, 101)
    ratio = reversal_mismatch_ratio(idx, traj, C, x)
    assert np.max(np.abs(np.abs(ratio) - 1.0)) < 1e-14
    # at the centre only the phase-clock offset survives
    r0 = reversal_mismatch_ratio(idx, traj, C, 0.0)
    tau_half = traj.tau(2.0)
    expect = np.exp(-1j * C.hbar * math.pi**2 * idx.nu**2 * tau_half / (2 * C.mass))
    assert r0 == pytest.approx(expect, rel=1e-14)
    # relative to the centre the ratio is a pure quadratic chirp
    L_h = traj.half_length
    chirp = np.exp(1j * C.mass * traj.q * x**2 / (C.hbar * L_h))
    assert np.max(np.abs(ratio / r0 - chirp)) < 1e-13


def test_mismatch_ratio_matches_family_jump():
    # quotient of the two basis families across the turn, computed from the
    # solutions themselves, agrees with the closed form
    traj = ReversingLinearWall(L0=100.0, q=2.0, T=4.0)
    idx = BasisIndex("even", 1)
    x = np.linspace(-20.0, 20.0, 11)
    eps = 1e-9
    before = basis_solution(idx, traj, C, 2.0 - eps, x)  # expansion family
    at_turn = basis_solution(idx, traj, C, 2.0, x)  # contraction family
    ratio = reversal_mismatch_ratio(idx, traj, C, x)
    assert np.max(np.abs(before / at_turn - ratio)) < 1e-6


def test_mismatch_ratio_small_q_linearization():
    L0, T = 100.0, 4.0
    idx = BasisIndex("even", 0)
    x = 20.0
    for q in [1e-3, 1e-4]:
        traj = ReversingLinearWall(L0=L0, q=q, T=T)
        r = reversal_mismatch_ratio(idx, traj, C, x)
        r0 = reversal_mismatch_ratio(idx, traj, C, 0.0)
        first_order = 1 + 1j * q * C.mass * x**2 / (C.hbar * L0)
        assert abs(r / r0 - first_order) < 50 * q**2


def test_mismatch_ratio_errors():
    traj = ReversingLinearWall(L0=12.0, q=0.5, T=2.0)
    idx = BasisIndex("even", 1)  # nu = 3: node at x = L_h / 6
    with pytest.raises(DomainError):
        reversal_mismatch_ratio(idx, traj, C, traj.half_length / 6)
    with pytest.raises(DomainError):
        reversal_mismatch_ratio(idx, traj, C, 10.0)  # outside the box
    with pytest.raises(DomainError):
        reversal_mismatch_ratio(idx, LinearWall(L0=12.0, q=0.5), C, 1.0)


def test_cyclicity_over_one_period():
    # after a full breathing cycle the mode returns times the clock factor
    # exp(-i mu), mu = hbar pi^2 nu^2 tau(T) / (2m), pointwise
    traj = SmoothPeriodicWall(L0=7.0, q=0.25, omega=2.0)
    T = traj.period
    x = np.linspace(-3.4, 3.4, 173)
    for idx in (BasisIndex("even", 1), BasisIndex("odd", 2)):
        before = basis_solution(idx, traj, C, 0.0, x)
        after = basis_solution(idx, traj, C, T, x)
        keep = np.abs(before) > 0.1 * np.max(np.abs(before))  # stay off nodes
        mu = C.hbar * math.pi**2 * idx.nu**2 * traj.tau(T) / (2.0 * C.mass)
        np.testing.assert_allclose(
            after[keep] / before[keep], np.exp(-1j * mu), rtol=0, atol=1e-12
        )
