"""Convergence sweeps: iterations to reach a reference solution as a function of eps.

Protocol: solve the dataset once to high accuracy (line-search steps, 1e-10
element tolerance), then rerun the diluted iteration from scratch for each eps
and count steps until every matrix element is within the requested tolerance
of the reference. Each trajectory is the loop ``reconstruct`` runs under
``FixedEpsilon(eps)`` (no G-correction), eps = inf giving the plain quadratic
update. Every eps and tolerance must be positive; NaN is rejected. A reference
solve that stops without converging raises ``ConvergenceError``.
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
    Termination,
    _iterate,
    reconstruct,
)
from .errors import ConvergenceError, ValidationError

REFERENCE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SweepRow:
    epsilon: float  # math.inf for the plain quadratic update
    tolerance: float
    iterations: int
    converged: bool


def reference_solution(dataset: MeasurementRecord, max_iterations: int = 20000) -> ReconstructionResult:
    """High-accuracy solve used as the comparison point of a sweep."""
    config = ReconstructionConfig(
        strategy=LineSearchEpsilon(),
        tol_residual=REFERENCE_TOLERANCE,
        tol_element=REFERENCE_TOLERANCE,
        tol_loglik=1e-14,
        max_iterations=max_iterations,
    )
    result = reconstruct(dataset, config)
    if result.termination in (Termination.MAX_ITERATIONS, Termination.CYCLE_DETECTED):
        raise ConvergenceError(
            f"reference solve did not converge ({result.termination.value}, "
            f"residual {result.final_residual:.3e})"
        )
    return result


def sweep_iteration_counts(
    dataset: MeasurementRecord,
    reference: np.ndarray,
    epsilons,
    tolerances,
    max_iterations: int = 20000,
) -> list[SweepRow]:
    """Iterations until max |rho - reference| falls below each tolerance, per eps.

    One trajectory is run per eps (the iteration is deterministic, so every
    tolerance reads its first-crossing step off the same trajectory). Rows are
    ordered by (tolerance, eps) with eps = inf last; a trajectory that cycles
    or runs out of iterations before crossing gets converged = False.
    """
    eps_list = [float(e) for e in epsilons]
    tol_list = sorted(float(t) for t in tolerances)
    if not eps_list or not tol_list:
        raise ValidationError("need at least one eps and one tolerance")
    if not all(x > 0 for x in eps_list + tol_list):
        raise ValidationError("eps values and tolerances must be positive")
    if max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")

    crossings: dict[tuple[float, float], int | None] = {}
    for eps in eps_list:
        remaining = list(tol_list)  # ascending: loosest at the end, popped first
        steps = _iterate(dataset, FixedEpsilon(eps), None, max_iterations)
        next(steps)  # the starting state
        for iteration, step in enumerate(steps, start=1):
            distance = float(np.max(np.abs(step.rho - reference)))
            while remaining and distance < remaining[-1]:
                crossings[(eps, remaining.pop())] = iteration
            if not remaining or step.cycled:
                break  # after a period-two cycle no further progress is possible
        for tol in remaining:
            crossings[(eps, tol)] = None

    rows = []
    for tol in tol_list:
        for eps in sorted(eps_list):
            count = crossings[(eps, tol)]
            rows.append(
                SweepRow(
                    epsilon=eps,
                    tolerance=tol,
                    iterations=count if count is not None else max_iterations,
                    converged=count is not None,
                )
            )
    return rows


def run_sweep(
    dataset: MeasurementRecord, epsilons, tolerances, max_iterations: int = 20000
) -> tuple[list[SweepRow], np.ndarray]:
    """Full sweep: compute the reference solution, then count iterations."""
    reference = reference_solution(dataset, max_iterations=max_iterations).estimate
    rows = sweep_iteration_counts(dataset, reference, epsilons, tolerances, max_iterations=max_iterations)
    return rows, reference
