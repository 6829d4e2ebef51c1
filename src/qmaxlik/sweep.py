"""Convergence sweeps: iterations to reach a reference solution as a function of eps.

Protocol: solve the dataset once to high accuracy (line-search steps, 1e-10 element
tolerance), kept whatever its stop when ``check_reference`` certifies it; then rerun
the diluted iteration from scratch for each eps and count steps until every matrix
element is within the requested tolerance of the reference. Each trajectory is the
loop ``reconstruct`` runs under ``FixedEpsilon(eps)`` (no G-correction), eps = inf
giving the plain quadratic update. Every eps must be positive, every tolerance
positive and finite, and the reference a finite dim x dim matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import MeasurementRecord
from .engine import (
    FixedEpsilon,
    LineSearchEpsilon,
    ReconstructionConfig,
    ReconstructionResult,
    _iterate,
    certified_gap,
    reconstruct,
)
from .errors import ConvergenceError, ValidationError, check_int, check_positive
from .operators import validate_density

REFERENCE_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 20000  # default iteration cap of the reference solve and of each trajectory
REFERENCE_GAP = 0.5  # nats: the largest certified gap of a usable reference, the one-parameter likelihood-ratio scale


@dataclass(frozen=True)
class SweepRow:
    epsilon: float  # math.inf for the plain quadratic update
    tolerance: float
    iterations: int
    converged: bool


def reference_solution(dataset: MeasurementRecord,
                       max_iterations: int = DEFAULT_MAX_ITERATIONS) -> ReconstructionResult:
    """High-accuracy solve a sweep compares against, returned whatever its stop once ``check_reference`` accepts it."""
    config = ReconstructionConfig(
        strategy=LineSearchEpsilon(),
        tol_residual=REFERENCE_TOLERANCE,
        tol_element=REFERENCE_TOLERANCE,
        tol_loglik=1e-14,
        max_iterations=max_iterations,
    )
    result = reconstruct(dataset, config)
    check_reference(result.estimate, dataset)
    return result


def check_reference(estimate, dataset: MeasurementRecord) -> float:
    """The certified gap of ``estimate`` on ``dataset``; raises unless it is a density matrix within REFERENCE_GAP."""
    if not (gap := certified_gap(validate_density(estimate), dataset)) <= REFERENCE_GAP:
        raise ConvergenceError(f"reference certified only to a gap of {gap:.3e} nats, above the bound {REFERENCE_GAP}")
    return gap


def sweep_iteration_counts(
    dataset: MeasurementRecord,
    reference: np.ndarray,
    epsilons,
    tolerances,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> list[SweepRow]:
    """Iterations until max |rho - reference| falls below each tolerance, per eps.

    One trajectory is run per distinct eps (the iteration is deterministic, so
    every tolerance reads its first-crossing step off the same trajectory).
    Rows, one per distinct (eps, tolerance), are ordered by (tolerance, eps)
    with eps = inf last; a trajectory that cycles or runs out of iterations
    before crossing gets converged = False and the iteration it stopped at:
    the step that closed the cycle, or max_iterations.
    """
    eps_list = sorted({float(check_positive(e, "eps", finite=False)) for e in epsilons})
    tol_list = sorted({float(check_positive(t, "tolerance")) for t in tolerances})
    if not eps_list or not tol_list:
        raise ValidationError("need at least one eps and one tolerance")
    check_int(max_iterations, "max_iterations")
    reference = np.asarray(reference)
    if reference.shape != (dataset.dim, dataset.dim) or not np.all(np.isfinite(reference)):
        raise ValidationError(f"reference must be a finite {dataset.dim}x{dataset.dim} matrix")

    rows = []
    for eps in eps_list:
        remaining = list(tol_list)  # ascending: loosest at the end, popped first
        steps = _iterate(dataset, FixedEpsilon(eps), None, max_iterations)
        next(steps)  # the starting state
        for iteration, step in enumerate(steps, start=1):
            distance = float(np.abs(step.rho - reference).max())
            while remaining and distance < remaining[-1]:
                rows.append(SweepRow(epsilon=eps, tolerance=remaining.pop(), iterations=iteration, converged=True))
            if not remaining or step.cycled:
                break  # after a period-two cycle no further progress is possible
        rows += [SweepRow(epsilon=eps, tolerance=tol, iterations=iteration, converged=False) for tol in remaining]
    return sorted(rows, key=lambda row: (row.tolerance, row.epsilon))
