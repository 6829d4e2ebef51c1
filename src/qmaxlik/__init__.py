"""Iterative maximum-likelihood quantum state reconstruction.

Estimates a density matrix from POVM count records via the fixed-point
iteration driven by R(rho) = (1/N) sum_j (f_j/pr_j) Pi_j, with adjustable
dilution of the update toward the identity for guaranteed likelihood increase.
Includes builders for projective and homodyne measurement operators, synthetic
data generation, convergence sweeps, and a command-line front end.
"""

from .dataset import Dataset, GOperator, QuadratureDataset
from .engine import (
    AdaptiveBackoff,
    EpsilonStrategy,
    FixedEpsilon,
    LineSearchEpsilon,
    RandomEpsilon,
    ReconstructionConfig,
    ReconstructionResult,
    Termination,
    choose_epsilon_line_search,
    diluted_step,
    extremal_residual,
    likelihood_gain_first_order,
    log_likelihood,
    outcome_probabilities,
    r_operator,
    reconstruct,
)
from .errors import ConvergenceError, DataFormatError, ValidationError
from .operators import (
    eigendecompose,
    fidelity,
    hermitize,
    normalize,
    validate_density,
    validate_povm_element,
)
from .povm import (
    counterexample_dataset,
    harmonic_wavefunction,
    projector_from_state,
    quadrature_dataset,
    quadrature_projector,
)
from .simulate import SimulationSpec, preset_state, sample_counts, sample_quadratures
from .sweep import SweepRow, reference_solution, run_sweep, sweep_iteration_counts

__version__ = "0.1.0"

__all__ = [
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
    "choose_epsilon_line_search",
    "counterexample_dataset",
    "diluted_step",
    "eigendecompose",
    "extremal_residual",
    "fidelity",
    "harmonic_wavefunction",
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
    "run_sweep",
    "sample_counts",
    "sample_quadratures",
    "sweep_iteration_counts",
    "validate_density",
    "validate_povm_element",
]
