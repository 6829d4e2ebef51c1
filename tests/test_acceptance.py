"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines are
written straight to the terminal (bypassing capture) so they are visible in
normal runs too.
"""

import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from qmaxlik import (
    Dataset,
    FixedEpsilon,
    GOperator,
    LineSearchEpsilon,
    ReconstructionConfig,
    SimulationSpec,
    Termination,
    counterexample_dataset,
    diluted_step,
    fidelity,
    likelihood_gain_first_order,
    log_likelihood,
    preset_state,
    projector_from_state,
    quadrature_dataset,
    r_operator,
    reconstruct,
    reference_solution,
    sample_quadratures,
    sweep_iteration_counts,
    validate_density,
)
from support import random_instance

UNIFORM = np.eye(2, dtype=complex) / 2
MLE = np.diag([1 / 3, 2 / 3]).astype(complex)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {description}", file=sys.__stdout__, flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS - {description}", file=sys.__stdout__, flush=True)


def test_criterion_1_counterexample_two_cycle():
    with criterion(1, "quadratic update two-cycle with exact matrices and likelihood drop"):
        d = counterexample_dataset()
        step1 = diluted_step(UNIFORM, d, math.inf)
        assert np.max(np.abs(step1 - np.diag([1 / 5, 4 / 5]))) <= 1e-12
        step2 = diluted_step(step1, d, math.inf)
        assert np.max(np.abs(step2 - UNIFORM)) <= 1e-12
        drop = log_likelihood(step1, d) - log_likelihood(step2, d)
        expected = math.log(1 / 5) + 2 * math.log(4 / 5) - 3 * math.log(1 / 2)
        assert drop == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.0237, abs=5e-5)


def test_criterion_2_diluted_convergence_on_counterexample():
    with criterion(2, "fixed eps=1 converges to diag(1/3, 2/3) with non-decreasing likelihood"):
        d = counterexample_dataset()
        res = reconstruct(
            d,
            ReconstructionConfig(
                strategy=FixedEpsilon(1.0), tol_residual=1e-12, tol_element=1e-12, tol_loglik=1e-15
            ),
        )
        assert np.max(np.abs(res.estimate - MLE)) <= 1e-8
        assert np.min(np.diff(res.log_likelihood_trace)) >= 0.0


def test_criterion_3_monotonicity_threshold():
    with criterion(3, "largest monotone eps over the {20..30} scan lies in [25, 26]"):
        d = counterexample_dataset()
        monotone = []
        for eps in range(20, 31):
            res = reconstruct(
                d,
                ReconstructionConfig(
                    strategy=FixedEpsilon(float(eps)),
                    max_iterations=3000,
                    tol_residual=1e-13,
                    tol_element=1e-13,
                    tol_loglik=1e-16,
                ),
            )
            if np.min(np.diff(res.log_likelihood_trace)) >= -1e-12:
                monotone.append(eps)
        assert monotone, "no monotone eps found in the scan"
        assert 25 <= max(monotone) <= 26


def test_criterion_4_invariant_suite():
    with criterion(4, "tr(R rho) = 1, tr(R rho R) >= 1, diluted steps stay physical (1000 instances)"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            rho, d = random_instance(rng)
            r = r_operator(rho, d)
            assert abs((r @ rho).trace().real - 1.0) <= 1e-10
            assert (r @ rho @ r).trace().real >= 1.0 - 1e-10
            for eps in (1e-3, 1.0, 1e3):
                validate_density(diluted_step(rho, d, eps), tol=1e-8)


def test_criterion_5_first_order_gain_quadratic_error():
    with criterion(5, "first-order gain error shrinks quadratically through eps = 1e-4, 1e-5, 1e-6"):
        rng = np.random.default_rng(2025)
        errors = {eps: [] for eps in (1e-4, 1e-5, 1e-6)}
        for _ in range(100):
            rho, d = random_instance(rng, normalized_weights=True)
            base = log_likelihood(rho, d)
            for eps in errors:
                actual = log_likelihood(diluted_step(rho, d, eps), d) - base
                predicted = likelihood_gain_first_order(rho, d, eps)
                errors[eps].append(abs(actual - predicted))
        mean4, mean5, mean6 = (float(np.mean(errors[eps])) for eps in (1e-4, 1e-5, 1e-6))
        assert 50.0 <= mean4 / mean5 <= 200.0
        assert 50.0 <= mean5 / mean6 <= 200.0


def test_criterion_6_infinite_eps_consistency():
    with criterion(6, "diluted step at eps = 1e8 matches the quadratic update within 1e-6"):
        rng = np.random.default_rng(2026)
        for _ in range(100):
            rho, d = random_instance(rng)
            gap = np.max(np.abs(diluted_step(rho, d, 1e8) - diluted_step(rho, d, math.inf)))
            assert gap <= 1e-6


def test_criterion_7_synthetic_homodyne_end_to_end():
    with criterion(7, "synthetic homodyne: fidelity >= 0.98 and iteration counts decrease with eps"):
        dim = 15
        true_state = preset_state("superposition01", dim)
        spec = SimulationSpec(state=true_state, seed=7, count=20000)
        phases = np.linspace(0.0, np.pi, 12, endpoint=False)
        thetas, xs = sample_quadratures(spec, phases, dim)
        dataset = quadrature_dataset(thetas, xs, dim)

        plain = reconstruct(
            dataset,
            ReconstructionConfig(
                strategy=FixedEpsilon(math.inf), tol_residual=1e-8, tol_element=1e-9, max_iterations=2000
            ),
        )
        assert fidelity(plain.estimate, true_state) >= 0.98
        assert np.min(np.diff(plain.log_likelihood_trace)) >= 0.0  # no overshoot on this data

        reference = reference_solution(dataset)
        rows = sweep_iteration_counts(
            dataset,
            reference.estimate,
            epsilons=[0.1, 1.0, 10.0, math.inf],
            tolerances=[1e-5],
            max_iterations=20000,
        )
        counts = {row.epsilon: row.iterations for row in rows}
        assert all(row.converged for row in rows)
        assert counts[0.1] > counts[1.0] > counts[10.0] >= counts[math.inf]


def test_criterion_8_g_corrected_fixed_point():
    with criterion(8, "debiased iteration recovers diag(1/3, 2/3) on the incomplete POVM"):
        elements = np.stack([np.diag([1.0, 0j]), np.diag([0j, 0.5])])
        d = Dataset(elements=elements, counts=np.array([1.0, 1.0]))
        g = GOperator.from_dataset(d)

        # brute-force oracle: scan diagonal qubit states for fixed points of each map
        ps = np.linspace(0.02, 0.98, 4801)
        corrected_gap = [
            np.max(np.abs(diluted_step(np.diag([p, 1 - p]).astype(complex), d, math.inf, g)
                          - np.diag([p, 1 - p])))
            for p in ps
        ]
        uncorrected_gap = [
            np.max(np.abs(diluted_step(np.diag([p, 1 - p]).astype(complex), d, 1.0)
                          - np.diag([p, 1 - p])))
            for p in ps
        ]
        assert abs(ps[int(np.argmin(corrected_gap))] - 1 / 3) < 1e-3
        assert abs(ps[int(np.argmin(uncorrected_gap))] - 1 / 3) > 0.1

        corrected = reconstruct(
            d,
            ReconstructionConfig(
                strategy=FixedEpsilon(1.0), g_correction=True, tol_element=1e-12, tol_residual=1e-11
            ),
        )
        assert np.max(np.abs(corrected.estimate - MLE)) <= 1e-6

        uncorrected = reconstruct(d, ReconstructionConfig(strategy=FixedEpsilon(1.0)))
        assert np.max(np.abs(uncorrected.estimate - MLE)) > 1e-3


def test_criterion_9_line_search_matches_analytic_maximum():
    with criterion(9, "line-search runs reach diag(f/N) within 1e-6 with non-decreasing likelihood"):
        rng = np.random.default_rng(2027)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            povm = np.stack([projector_from_state(np.eye(dim)[k]) for k in range(dim)])
            counts = rng.uniform(0.5, 10.0, size=dim)
            d = Dataset(elements=povm, counts=counts)
            res = reconstruct(
                d,
                ReconstructionConfig(
                    strategy=LineSearchEpsilon(),
                    tol_residual=1e-10,
                    tol_element=1e-11,
                    tol_loglik=1e-14,
                    max_iterations=3000,
                ),
            )
            target = np.diag(counts / counts.sum())
            assert np.max(np.abs(res.estimate - target)) <= 1e-6
            assert np.min(np.diff(res.log_likelihood_trace)) >= -1e-12
