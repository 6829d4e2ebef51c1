"""Iterative maximum-likelihood quantum state reconstruction.

Estimates a density matrix from POVM count records via the fixed-point
iteration driven by R(rho) = (1/N) sum_j (f_j/pr_j) Pi_j, with adjustable
dilution of the update toward the identity for guaranteed likelihood increase.
Includes builders for projective and homodyne measurement operators, synthetic
data generation, convergence sweeps, and a command-line front end.
"""

from .dataset import Dataset, GOperator, QuadratureDataset
from .engine import (
    CONVERGED,
    AdaptiveBackoff,
    EpsilonStrategy,
    FixedEpsilon,
    LineSearchEpsilon,
    RandomEpsilon,
    ReconstructionConfig,
    ReconstructionResult,
    Termination,
    certified_gap,
    choose_epsilon_line_search,
    diluted_step,
    likelihood_gain_first_order,
    log_likelihood,
    outcome_probabilities,
    r_operator,
    reconstruct,
)
from .errors import ConvergenceError, DataFormatError, ValidationError
from .operators import fidelity, hermitize, normalize, validate_density
from .povm import (
    counterexample_dataset,
    projector_from_state,
    quadrature_dataset,
    quadrature_projector,
)
from .simulate import SimulationSpec, preset_state, sample_counts, sample_quadratures
from .sweep import SweepRow, check_reference, reference_solution, sweep_iteration_counts

__version__ = "0.1.0"

__all__ = [
    "CONVERGED",
    "AdaptiveBackoff",
    "ConvergenceError",
    "DataFormatError",
    "Dataset",
    "EpsilonStrategy",
    "FixedEpsilon",
    "GOperator",
    "LineSearchEpsilon",
    "QuadratureDataset",
    "RandomEpsilon",
    "ReconstructionConfig",
    "ReconstructionResult",
    "SimulationSpec",
    "SweepRow",
    "Termination",
    "ValidationError",
    "certified_gap",
    "check_reference",
    "choose_epsilon_line_search",
    "counterexample_dataset",
    "diluted_step",
    "fidelity",
    "hermitize",
    "likelihood_gain_first_order",
    "log_likelihood",
    "normalize",
    "outcome_probabilities",
    "preset_state",
    "projector_from_state",
    "quadrature_dataset",
    "quadrature_projector",
    "r_operator",
    "reconstruct",
    "reference_solution",
    "sample_counts",
    "sample_quadratures",
    "sweep_iteration_counts",
    "validate_density",
]
