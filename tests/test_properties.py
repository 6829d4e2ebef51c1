"""Randomized invariant checks for the iteration machinery."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxlik import (
    Dataset,
    certified_gap,
    diluted_step,
    likelihood_gain_first_order,
    log_likelihood,
    outcome_probabilities,
    r_operator,
    validate_density,
)
from support import phase_layouts, quadrature_record, random_density, random_instance, random_pure_state


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


COUNTED = {"seed": st.integers(0, 2**32 - 1)}  # a random state with a counted record on a complete POVM


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**COUNTED)
def test_diluted_step_preserves_density_invariants(seed):
    rho, d = random_instance(np.random.default_rng(seed))
    for eps in (1e-3, 1.0, 1e3):
        validate_density(diluted_step(rho, d, eps), tol=1e-8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**COUNTED)
def test_small_eps_never_decreases_likelihood(seed):
    rho, d = random_instance(np.random.default_rng(seed))
    before = log_likelihood(rho, d)
    after = log_likelihood(diluted_step(rho, d, 1e-3), d)
    assert after - before >= -1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**COUNTED)
def test_large_eps_matches_quadratic_update(seed):
    rho, d = random_instance(np.random.default_rng(seed))
    diluted = diluted_step(rho, d, 1e8)
    quadratic = diluted_step(rho, d, math.inf)
    assert np.max(np.abs(diluted - quadratic)) <= 1e-6


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**COUNTED)
def test_first_order_gain_bounds_error_quadratically(seed):
    # |actual gain - first-order gain| <= C eps^2 with C fitted at the two larger eps
    rho, d = random_instance(np.random.default_rng(seed), normalized_weights=True)
    base = log_likelihood(rho, d)
    errors = {}
    for eps in (1e-4, 1e-5, 1e-6):
        actual = log_likelihood(diluted_step(rho, d, eps), d) - base
        errors[eps] = abs(actual - likelihood_gain_first_order(rho, d, eps))
    c = max(errors[1e-4] / 1e-4**2, errors[1e-5] / 1e-5**2)
    assert errors[1e-6] <= 1.5 * c * 1e-6**2 + 1e-12


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(**COUNTED)
def test_probabilities_positive_even_for_pure_states(seed):
    rho, d = random_instance(np.random.default_rng(seed))
    values, vectors = np.linalg.eigh(rho)
    pure = np.outer(vectors[:, -1], vectors[:, -1].conj())  # rank-1 edge case
    probs = outcome_probabilities(pure, d)
    assert np.all(probs >= 1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), near_pure=st.booleans())
def test_certified_gap_bounds_the_likelihood_gap(seed, dim, near_pure):
    """0 <= L* - L(rho) <= certified_gap(rho) (Glancy, Knill & Girard, New J. Phys. 14, 095017 (2012)) on diagonal
    projective records, whose maximum diag(f/N) has L* = sum f log(f/N), and certified_gap(diag(f/N)) is 0."""
    rng = np.random.default_rng(seed)
    counts = rng.uniform(0.5, 50.0, size=dim)
    record, total = Dataset(elements=np.stack([np.diag(row) for row in np.eye(dim)]), counts=counts), counts.sum()
    best = float(counts @ np.log(counts / total))
    if near_pure:  # smallest eigenvalue 1e-6 to 1e-3, so no probability is floored
        psi, lowest = random_pure_state(rng, dim), 10.0 ** rng.uniform(-6.0, -3.0)
        rho = (1.0 - dim * lowest) * np.outer(psi, psi.conj()) + lowest * np.eye(dim)
    else:
        rho = random_density(rng, dim)
    allowance = 1e-9 * total
    assert -allowance <= best - log_likelihood(rho, record) <= certified_gap(rho, record) + allowance
    assert abs(certified_gap(np.diag(counts / total), record)) <= allowance
