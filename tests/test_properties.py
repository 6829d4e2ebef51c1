"""Randomized invariant checks for the iteration machinery."""

import math

import numpy as np

from qmaxlik import (
    diluted_step,
    likelihood_gain_first_order,
    log_likelihood,
    outcome_probabilities,
    r_operator,
    validate_density,
)
from support import random_instance


def test_r_normalization_trace_one():
    # tr(R rho) = 1 whenever no probability was floored
    rng = np.random.default_rng(100)
    for _ in range(300):
        rho, d = random_instance(rng)
        r = r_operator(rho, d)
        assert abs((r @ rho).trace().real - 1.0) <= 1e-10


def test_cauchy_schwarz_lower_bound():
    rng = np.random.default_rng(101)
    for _ in range(300):
        rho, d = random_instance(rng)
        r = r_operator(rho, d)
        assert (r @ rho @ r).trace().real >= 1.0 - 1e-10


def test_diluted_step_preserves_density_invariants():
    rng = np.random.default_rng(102)
    for _ in range(100):
        rho, d = random_instance(rng)
        for eps in (1e-3, 1.0, 1e3):
            validate_density(diluted_step(rho, d, eps), tol=1e-8)


def test_small_eps_never_decreases_likelihood():
    rng = np.random.default_rng(103)
    for _ in range(200):
        rho, d = random_instance(rng)
        before = log_likelihood(rho, d)
        after = log_likelihood(diluted_step(rho, d, 1e-3), d)
        assert after - before >= -1e-12


def test_large_eps_matches_quadratic_update():
    rng = np.random.default_rng(104)
    for _ in range(100):
        rho, d = random_instance(rng)
        diluted = diluted_step(rho, d, 1e8)
        quadratic = diluted_step(rho, d, math.inf)
        assert np.max(np.abs(diluted - quadratic)) <= 1e-6


def test_first_order_gain_bounds_error_quadratically():
    # |actual gain - first-order gain| <= C eps^2 with C fitted at the two larger eps
    rng = np.random.default_rng(105)
    for _ in range(40):
        rho, d = random_instance(rng, normalized_weights=True)
        base = log_likelihood(rho, d)
        errors = {}
        for eps in (1e-4, 1e-5, 1e-6):
            actual = log_likelihood(diluted_step(rho, d, eps), d) - base
            errors[eps] = abs(actual - likelihood_gain_first_order(rho, d, eps))
        c = max(errors[1e-4] / 1e-4**2, errors[1e-5] / 1e-5**2)
        assert errors[1e-6] <= 1.5 * c * 1e-6**2 + 1e-12


def test_probabilities_positive_even_for_pure_states():
    rng = np.random.default_rng(106)
    for _ in range(50):
        rho, d = random_instance(rng)
        values, vectors = np.linalg.eigh(rho)
        pure = np.outer(vectors[:, -1], vectors[:, -1].conj())  # rank-1 edge case
        probs = outcome_probabilities(pure, d)
        assert np.all(probs >= 1e-12)
