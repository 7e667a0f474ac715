"""Exact quantum dynamics in boxes with moving walls.

Analytic propagation of Gaussian packets in an infinite square well whose
walls move along prescribed trajectories, with Jacobi-theta closed forms,
mode-sum evolution, adiabatic/geometric phase analysis and an independent
Crank-Nicolson oracle for validation.
"""

from types import ModuleType as _ModuleType

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

#: every public name bound above; the submodules the imports bind are left out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "1.0.0"
