"""Exact quantum dynamics in boxes with moving walls.

Analytic propagation of Gaussian packets in an infinite square well whose
walls move along prescribed trajectories, with Jacobi-theta closed forms,
mode-sum evolution, adiabatic/geometric phase analysis and an independent
Crank-Nicolson oracle for validation.
"""

from .basis import (
    BasisIndex,
    basis_solution,
    instantaneous_eigenstate,
    instantaneous_energy,
    reversal_mismatch_ratio,
    schrodinger_residual,
    transformed_basis_solution,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    build_constants,
    build_gaussian,
    build_trajectory,
    parse_config,
)
from .core import (
    ComparisonReport,
    ConvergenceError,
    DomainError,
    GaussianParams,
    LinearWall,
    LocalizationWarning,
    PhysicalConstants,
    ReversingLinearWall,
    ScaledWall,
    SmoothPeriodicWall,
    TruncationWarning,
    WallTrajectory,
    WaveFunctionGrid,
)
from .oracle import (
    FrameMap,
    SolverSpec,
    StepSizeWarning,
    evolve_fixed_frame,
    from_fixed_frame,
    to_fixed_frame,
    unconfined_tdlo_propagate,
)
from .phases import (
    PhaseDecomposition,
    dynamical_phase,
    energy_expectation,
    fig_mode_phases,
    geometric_phase,
    phase_decomposition,
    total_phase,
    wall_action_integral,
)
from .propagator import (
    SpectralExpansion,
    contraction_coefficients,
    evolve_sum,
    evolve_theta_general,
    evolve_unconfined_approx,
    expansion_coefficients,
    initial_gaussian,
    locality_compare,
    theta_nome,
)
from .theta import jacobi_transform, theta, truncation_bound

__all__ = [
    "BasisIndex",
    "ComparisonReport",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "FrameMap",
    "GaussianParams",
    "LinearWall",
    "LocalizationWarning",
    "PhaseDecomposition",
    "PhysicalConstants",
    "ReversingLinearWall",
    "ScaledWall",
    "ScenarioConfig",
    "SmoothPeriodicWall",
    "SolverSpec",
    "SpectralExpansion",
    "StepSizeWarning",
    "TruncationWarning",
    "WallTrajectory",
    "WaveFunctionGrid",
    "basis_solution",
    "build_constants",
    "build_gaussian",
    "build_trajectory",
    "contraction_coefficients",
    "dynamical_phase",
    "energy_expectation",
    "evolve_fixed_frame",
    "evolve_sum",
    "evolve_theta_general",
    "evolve_unconfined_approx",
    "expansion_coefficients",
    "fig_mode_phases",
    "from_fixed_frame",
    "geometric_phase",
    "initial_gaussian",
    "instantaneous_eigenstate",
    "instantaneous_energy",
    "jacobi_transform",
    "locality_compare",
    "parse_config",
    "phase_decomposition",
    "reversal_mismatch_ratio",
    "schrodinger_residual",
    "theta",
    "theta_nome",
    "to_fixed_frame",
    "total_phase",
    "transformed_basis_solution",
    "truncation_bound",
    "unconfined_tdlo_propagate",
    "wall_action_integral",
]

__version__ = "1.0.0"
