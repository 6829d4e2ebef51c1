import math

import numpy as np
import pytest

from qmaxlik import (
    Termination,
    ValidationError,
    counterexample_dataset,
    reference_solution,
    run_sweep,
    sweep_iteration_counts,
)

MLE = np.diag([1 / 3, 2 / 3])


class TestReferenceSolution:
    def test_counterexample_reference_is_analytic_maximum(self):
        ref = reference_solution(counterexample_dataset())
        assert ref.termination is not Termination.MAX_ITERATIONS
        # the 1e-10 stopping tolerance bounds the last step, not the distance
        # to the true maximum; a decade of slack covers the final contraction
        assert np.max(np.abs(ref.estimate - MLE)) <= 1e-8

    def test_failure_raises(self):
        with pytest.raises(ValidationError, match="reference"):
            reference_solution(counterexample_dataset(), max_iterations=2)


class TestIterationCounts:
    def test_smaller_eps_needs_strictly_more_iterations(self):
        d = counterexample_dataset()
        rows, _ = run_sweep(d, epsilons=[1e-3, 1.0], tolerances=[1e-6], max_iterations=50000)
        counts = {row.epsilon: row.iterations for row in rows}
        assert counts[1e-3] > counts[1.0]
        assert all(row.converged for row in rows)

    def test_infinite_eps_cycles_and_never_converges(self):
        d = counterexample_dataset()
        rows, _ = run_sweep(d, epsilons=[math.inf], tolerances=[1e-6], max_iterations=1000)
        assert rows[0].converged is False
        assert rows[0].iterations == 1000

    def test_rows_ordered_by_tolerance_then_eps(self):
        d = counterexample_dataset()
        rows, _ = run_sweep(d, epsilons=[1.0, 0.5, math.inf], tolerances=[1e-3, 1e-5])
        order = [(row.tolerance, row.epsilon) for row in rows]
        assert order == sorted(order)
        assert math.isinf(order[2][1])  # inf is the last eps within each tolerance block

    def test_looser_tolerance_crossed_no_later(self):
        d = counterexample_dataset()
        rows, _ = run_sweep(d, epsilons=[0.5], tolerances=[1e-3, 1e-7])
        by_tol = {row.tolerance: row.iterations for row in rows}
        assert by_tol[1e-3] <= by_tol[1e-7]

    def test_shared_reference_reused(self):
        d = counterexample_dataset()
        _, reference = run_sweep(d, epsilons=[1.0], tolerances=[1e-4])
        rows = sweep_iteration_counts(d, reference, [1.0], [1e-4])
        rows2 = sweep_iteration_counts(d, reference, [1.0], [1e-4])
        assert rows == rows2

    def test_rejects_empty_lists(self):
        with pytest.raises(ValidationError):
            sweep_iteration_counts(counterexample_dataset(), MLE, [], [1e-3])

    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_rejects_non_positive_max_iterations(self, max_iterations):
        with pytest.raises(ValidationError, match="max_iterations"):
            sweep_iteration_counts(counterexample_dataset(), MLE, [1.0], [1e-3], max_iterations=max_iterations)

    @pytest.mark.parametrize("epsilons, tolerances", [([math.nan], [1e-3]), ([1.0], [math.nan]), ([1.0, -2.0], [1e-3])])
    def test_rejects_nan_and_non_positive(self, epsilons, tolerances):
        with pytest.raises(ValidationError, match="positive"):
            sweep_iteration_counts(counterexample_dataset(), MLE, epsilons, tolerances)
