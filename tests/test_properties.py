"""Randomized invariant checks for the iteration machinery."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxlik import (
    diluted_step,
    likelihood_gain_first_order,
    log_likelihood,
    outcome_probabilities,
    r_operator,
    validate_density,
)
from support import phase_layouts, quadrature_record, random_density, random_instance


def _instance(seed, dim, kind):
    """A random full-rank state with a counted record, or with a quadrature record on the mix of phases."""
    rng = np.random.default_rng(seed)
    if kind == "counted":
        return random_instance(rng, dim)
    return random_density(rng, dim), quadrature_record(rng, phase_layouts(rng)["mix"], dim)


INSTANCES = {"seed": st.integers(0, 2**32 - 1), "dim": st.integers(2, 8),
             "kind": st.sampled_from(["counted", "quadrature"])}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**INSTANCES)
def test_r_normalization_trace_one(seed, dim, kind):
    # tr(R rho) = 1 whenever no probability was floored
    rho, d = _instance(seed, dim, kind)
    r = r_operator(rho, d)
    assert abs((r @ rho).trace().real - 1.0) <= 1e-10


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**INSTANCES)
def test_cauchy_schwarz_lower_bound(seed, dim, kind):
    rho, d = _instance(seed, dim, kind)
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
