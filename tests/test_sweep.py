import math

import numpy as np
import pytest

from qmaxlik import (
    CONVERGED,
    ConvergenceError,
    ReconstructionResult,
    Termination,
    ValidationError,
    counterexample_dataset,
    reference_solution,
    sweep,
    sweep_iteration_counts,
)
from support import random_dataset

MLE = np.diag([1 / 3, 2 / 3])


class TestReferenceSolution:
    def test_counterexample_reference_is_analytic_maximum(self):
        ref = reference_solution(counterexample_dataset())
        assert ref.termination is not Termination.MAX_ITERATIONS
        # the 1e-10 stopping tolerance bounds the last step, not the distance
        # to the true maximum; a decade of slack covers the final contraction
        assert np.max(np.abs(ref.estimate - MLE)) <= 1e-8

    def test_failure_raises(self):
        # the regression table's povm3 record: its reference needs far more than 2 steps
        # (the counterexample's converges within 2)
        with pytest.raises(ValidationError, match="reference"):
            reference_solution(random_dataset(np.random.default_rng(3), dim=3, n_outcomes=10), max_iterations=2)

    @pytest.mark.parametrize("termination", list(Termination), ids=lambda t: t.value)
    def test_accepts_exactly_the_converged_stops_and_a_stall(self, monkeypatch, termination):
        accepted = {Termination.RESIDUAL_MET, Termination.ELEMENT_CHANGE_MET, Termination.LIKELIHOOD_STALLED}
        assert {*CONVERGED, Termination.LIKELIHOOD_STALLED} == accepted
        result = ReconstructionResult(estimate=MLE, log_likelihood_trace=np.zeros(2), epsilon_trace=np.ones(1),
                                      final_residual=0.0, iterations=1, termination=termination)
        monkeypatch.setattr(sweep, "reconstruct", lambda dataset, config: result)
        if termination in accepted:
            assert reference_solution(counterexample_dataset()) is result
        else:
            with pytest.raises(ConvergenceError, match=f"reference solve did not converge \\({termination.value}"):
                reference_solution(counterexample_dataset())


class TestIterationCounts:
    def test_smaller_eps_needs_strictly_more_iterations(self):
        d = counterexample_dataset()
        reference = reference_solution(d, max_iterations=50000).estimate
        rows = sweep_iteration_counts(d, reference, [1e-3, 1.0], [1e-6], max_iterations=50000)
        counts = {row.epsilon: row.iterations for row in rows}
        assert counts[1e-3] > counts[1.0]
        assert all(row.converged for row in rows)

    def test_infinite_eps_cycles_and_never_converges(self):
        d = counterexample_dataset()
        reference = reference_solution(d, max_iterations=1000).estimate
        rows = sweep_iteration_counts(d, reference, [math.inf], [1e-6], max_iterations=1000)
        assert rows[0].converged is False
        assert rows[0].iterations == 2  # the step that closes the cycle, not the cap

    def test_rows_ordered_by_tolerance_then_eps(self):
        d = counterexample_dataset()
        rows = sweep_iteration_counts(d, reference_solution(d).estimate, [1.0, 0.5, math.inf], [1e-3, 1e-5])
        order = [(row.tolerance, row.epsilon) for row in rows]
        assert order == sorted(order)
        assert math.isinf(order[2][1])  # inf is the last eps within each tolerance block

    def test_looser_tolerance_crossed_no_later(self):
        d = counterexample_dataset()
        rows = sweep_iteration_counts(d, reference_solution(d).estimate, [0.5], [1e-3, 1e-7])
        by_tol = {row.tolerance: row.iterations for row in rows}
        assert by_tol[1e-3] <= by_tol[1e-7]

    def test_shared_reference_reused(self):
        d = counterexample_dataset()
        reference = reference_solution(d).estimate
        rows = sweep_iteration_counts(d, reference, [1.0], [1e-4])
        rows2 = sweep_iteration_counts(d, reference, [1.0], [1e-4])
        assert rows == rows2

    def test_duplicate_inputs_run_once_and_give_one_row(self, monkeypatch):
        d = counterexample_dataset()
        reference = reference_solution(d).estimate
        trajectories, iterate = [], sweep._iterate

        def counted(*args):
            trajectories.append(args[1])
            return iterate(*args)

        monkeypatch.setattr(sweep, "_iterate", counted)
        rows = sweep_iteration_counts(d, reference, [1, 1.0], [1e-3, 1e-3])
        assert len(trajectories) == 1
        assert rows == sweep_iteration_counts(d, reference, [1.0], [1e-3])

    def test_rejects_empty_lists(self):
        with pytest.raises(ValidationError):
            sweep_iteration_counts(counterexample_dataset(), MLE, [], [1e-3])

    @pytest.mark.parametrize("max_iterations", [0, -3, 2.5, True])
    def test_rejects_non_positive_max_iterations(self, max_iterations):
        with pytest.raises(ValidationError, match="max_iterations"):
            sweep_iteration_counts(counterexample_dataset(), MLE, [1.0], [1e-3], max_iterations=max_iterations)

    @pytest.mark.parametrize("epsilons, tolerances", [([math.nan], [1e-3]), ([1.0], [math.nan]), ([1.0, -2.0], [1e-3]),
                                                      ([1.0], [1e-3, math.inf])])
    def test_rejects_nan_and_non_positive(self, epsilons, tolerances):
        with pytest.raises(ValidationError, match="positive"):
            sweep_iteration_counts(counterexample_dataset(), MLE, epsilons, tolerances)

    @pytest.mark.parametrize(
        "reference",
        [np.eye(1), np.eye(3) / 3, np.diag([1 / 3, 2 / 3, 0.0])[:2], np.diag([math.nan, 2 / 3]),
         np.diag([1 / 3, math.inf])],
    )
    def test_rejects_reference_of_wrong_shape_or_non_finite(self, reference):
        with pytest.raises(ValidationError, match="reference"):
            sweep_iteration_counts(counterexample_dataset(), reference, [1.0], [1e-3])
