"""The ``MeasurementRecord`` contract, checked on every kind of record against an independent dense stack: the
input stack of a counted record, the per-sample ``quadrature_projector`` stack of a homodyne one. The kernels are
compared with per-element loops over that stack, never with another record's kernels."""

import dataclasses
import functools
import re

import numpy as np
import pytest

from qmaxlik import Dataset, GOperator, QuadratureDataset, ValidationError, counterexample_dataset, r_operator
from qmaxlik.dataset import PROBABILITY_FLOOR
from support import (CASE_DIMS, homodyne_case, max_difference, random_complete_povm, random_density,
                     sum_tolerance)


def _counted(dim, n_outcomes, kept):
    @functools.cache
    def make():
        rng = np.random.default_rng(11)
        elements = random_complete_povm(rng, dim, n_outcomes)[:kept]
        elements.flags.writeable = False
        return Dataset(elements=elements, counts=rng.uniform(0.5, 10.0, size=kept)), elements
    return make


@functools.cache
def _counterexample():
    reference = np.einsum("ki,kj->kij", np.eye(2), np.eye(2))
    reference.flags.writeable = False
    return counterexample_dataset(), reference


# Each factory gives a record and its read-only reference stack, built once per session; a new record class adds one.
FACTORIES = {"complete": _counted(3, 6, 6), "incomplete": _counted(4, 8, 7), "counterexample": _counterexample,
             **{f"{layout}-{dim}": functools.partial(homodyne_case, layout, dim)
                for layout in ("few", "distinct", "mix", "single", "unequal") for dim in CASE_DIMS}}
contract = pytest.mark.parametrize("make", FACTORIES.values(), ids=FACTORIES)


@pytest.fixture(scope="module", autouse=True)
def _release_homodyne_cases():
    """No later module reads the homodyne cases, whose stacks take 93 MB for the unequal layout at dim 30."""
    yield
    homodyne_case.cache_clear()


def _loop_traces(stack, matrix):
    return np.array([np.trace(element @ matrix).real for element in stack])


def _loop_sum(stack, weights):
    total = np.zeros(stack.shape[1:], dtype=complex)
    for weight, element in zip(weights, stack):
        total += weight * element
    return total


def _matrices(rng, dim):
    """A density matrix, the same in Fortran order, and a real symmetric float64 matrix: the kernels' inputs."""
    rho = random_density(rng, dim)
    return rho, np.asfortranarray(rho), rho.real + rho.real.T


def _inputs(record):
    return {f.name: a for f in dataclasses.fields(record) if isinstance(a := getattr(record, f.name), np.ndarray)}


@contract
def test_sizes_and_kernels_match_the_dense_reference(make):
    record, reference = make()
    assert (record.n_outcomes, record.dim, record.dim) == reference.shape and record.total == record.counts.sum()
    assert record.nbytes >= sum(a.nbytes for a in _inputs(record).values())
    if isinstance(record, QuadratureDataset):  # the slabs hold 2 dim - 1 floats per grouped sample at least
        grouped = record.n_outcomes - record._chi.shape[0]
        assert record.nbytes >= sum(a.nbytes for a in _inputs(record).values()) + 8 * (2 * record.dim - 1) * grouped
        if record.dim == 15:  # factored: below the dense stack
            assert record.nbytes < reference.nbytes
    rng = np.random.default_rng(12)
    weights, tol = rng.uniform(0.0, 2.0, size=record.n_outcomes), sum_tolerance(record)
    for matrix in _matrices(rng, record.dim):
        traces = _loop_traces(reference, matrix)
        assert np.max(np.abs(record.traces(matrix) - traces)) <= 1e-12
        probs = np.maximum(traces, PROBABILITY_FLOOR)
        r = _loop_sum(reference, record.counts / (record.total * probs))
        fused = record.likelihood_terms(matrix)
        assert np.max(np.abs(fused[0] - traces)) <= 1e-12 and np.max(np.abs(fused[1] - probs)) <= 1e-12
        assert np.max(np.abs(fused[2] - r)) <= tol and np.max(np.abs(r_operator(matrix, record) - r)) <= tol
    assert np.max(np.abs(record.weighted_sum(weights) - _loop_sum(reference, weights))) <= tol
    assert np.max(np.abs(record.element_sum() - _loop_sum(reference, np.ones(record.n_outcomes)))) <= tol
    assert max_difference(record.elements, reference) <= 1e-12
    if np.linalg.matrix_rank(reference.sum(axis=0)) < record.dim:  # one rank-1 element at dim > 1
        with pytest.raises(ValidationError, match="singular"):
            GOperator.from_dataset(record)
        return
    g, g_dense = GOperator.from_dataset(record), GOperator(_loop_sum(reference, np.ones(record.n_outcomes)))
    assert np.max(np.abs(g.matrix - g_dense.matrix)) <= tol
    assert np.max(np.abs(g.inverse - g_dense.inverse)) <= tol * g.condition


@contract
def test_weighted_sum_refuses_weights_of_another_shape(make):
    record, _ = make()
    n = record.n_outcomes
    for weights in (np.ones(n + 1), np.ones((n, 1)), np.ones(()), np.ones(1) if n > 1 else np.ones(2)):
        message = f"weights shape {weights.shape} does not match {(n,)}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            record.weighted_sum(weights)


@contract
def test_likelihood_terms_equal_the_separate_kernels(make):
    """The fused pass gives, bit for bit, traces, then the floor, then weighted_sum of f / (N probs), also with
    zero counts and under the projector on the first element's least eigenvector, which floors that outcome's
    trace where the element is singular. Each call returns new arrays."""
    record, reference = make()
    record = dataclasses.replace(record, counts=np.where(np.arange(record.n_outcomes) % 3 == 1, 0.0, record.counts))
    least = np.linalg.eigh(reference[0])[1][:, :1]
    for rho in (random_density(np.random.default_rng(14), record.dim), least @ least.conj().T):
        traces = record.traces(rho)
        probs = np.maximum(traces, PROBABILITY_FLOOR)
        expected = (traces, probs, record.weighted_sum(record.counts / (record.total * probs)))
        fused, again = record.likelihood_terms(rho), record.likelihood_terms(rho)
        assert all(np.array_equal(a, b) for a, b in zip(fused, expected))
        assert not any(np.shares_memory(a, b) for a, b in zip(fused, again))
    assert (traces[0] < PROBABILITY_FLOOR) == (np.linalg.eigvalsh(reference[0])[0] < PROBABILITY_FLOOR)


@contract
def test_holds_read_only_copies_in_input_order(make):
    record, reference = make()
    given = {name: np.array(a) for name, a in _inputs(record).items()}
    copy = dataclasses.replace(record, **given)
    for a in given.values():
        a[0] = 1e9  # the caller's arrays change after the record is checked
    for name, stored in _inputs(copy).items():
        np.testing.assert_array_equal(stored, getattr(record, name))
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0.0
    assert copy.total == record.total and copy.nbytes == record.nbytes
    rng = np.random.default_rng(12)
    perm, rho = rng.permutation(record.n_outcomes), random_density(rng, record.dim)
    shuffled = dataclasses.replace(record, **{name: a[perm] for name, a in _inputs(record).items()})
    traces = np.einsum("kij,ji->k", reference, rho).real  # tr(Pi_k rho) from the dense stack, in input order
    np.testing.assert_allclose(shuffled.traces(rho), traces[perm], rtol=0, atol=1e-13)
    assert max_difference(shuffled.elements, reference, perm) <= 1e-14
