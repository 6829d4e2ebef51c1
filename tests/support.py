"""Shared random-instance generators for the test suite."""

import functools

import numpy as np

from qmaxlik import Dataset, QuadratureDataset, quadrature_projector
from qmaxlik.dataset import POOLED_BELOW


def random_density(rng, dim):
    """Full-rank random density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_complete_povm(rng, dim, n_outcomes):
    """Random PSD elements pushed through S^-1/2 so they sum to the identity."""
    mats = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(g @ g.conj().T)
    s = np.sum(mats, axis=0)
    values, vectors = np.linalg.eigh(s)
    s_inv_half = (vectors / np.sqrt(values)) @ vectors.conj().T
    return np.stack([s_inv_half @ m @ s_inv_half for m in mats])


def random_dataset(rng, dim=None, n_outcomes=None, normalized_weights=False):
    """Random complete-POVM dataset with positive real counts."""
    if dim is None:
        dim = int(rng.integers(2, 9))
    if n_outcomes is None:
        n_outcomes = int(rng.integers(dim, 2 * dim + 1))
    counts = rng.uniform(0.5, 10.0, size=n_outcomes)
    if normalized_weights:
        counts = counts / counts.sum()
    return Dataset(elements=random_complete_povm(rng, dim, n_outcomes), counts=counts)


def random_instance(rng, dim=None, normalized_weights=False):
    """(state, dataset) pair sharing a dimension."""
    if dim is None:
        dim = int(rng.integers(2, 9))
    return random_density(rng, dim), random_dataset(rng, dim, normalized_weights=normalized_weights)


def quadrature_record(rng, thetas, dim):
    """Quadrature record on the given phases (input order kept) with random x and counts."""
    thetas = np.asarray(thetas, dtype=float)
    xs = rng.uniform(-4.0, 4.0, size=thetas.size)
    counts = rng.uniform(0.5, 3.0, size=thetas.size)
    return QuadratureDataset(thetas=thetas, xs=xs, counts=counts, dim=dim)


def sum_tolerance(record):
    """Bound on the difference of two summation orders of a record's weighted sums: 1e-12 up to 1,000 outcomes,
    then growing with their number, as the rounding of a sum of that many terms does."""
    return 1e-12 * max(1.0, record.n_outcomes / 1000)


def phase_layouts(rng):
    """Phases of five records: few phases (grouped only), all distinct (pooled only), a mix, one sample, and one
    phase of 4,000 samples amid 30 grouped phases of 64-100 samples (padded slabs)."""
    few = np.repeat([0.0, 0.7, 2.1], POOLED_BELOW + 10)
    mix = np.concatenate([np.repeat([0.4, 1.9], POOLED_BELOW + 3), np.full(POOLED_BELOW - 1, 1.1),
                          rng.uniform(0.0, np.pi, 25)])
    unequal = np.repeat(np.linspace(0.0, np.pi, 31, endpoint=False),
                        np.insert(POOLED_BELOW + np.arange(30) * 7 % 37, 15, 4000))
    layouts = {"few": few, "distinct": rng.uniform(0.0, np.pi, 150), "mix": mix, "single": [0.8], "unequal": unequal}
    return {name: rng.permutation(thetas) for name, thetas in layouts.items()}


CASE_DIMS = (1, 5, 15, 30)  # the truncations at which every layout's record is checked


@functools.cache
def homodyne_case(layout, dim):
    """The record of a ``phase_layouts`` layout at ``dim`` that the record contract checks, and its dense reference:
    the (samples, dim, dim) stack of each sample's ``quadrature_projector``, read-only. Both come from seed 11,
    so every dim has the same samples, and are built once per session: the stack is built at the largest dim, and a
    smaller dim's stack is its leading dim x dim block, as a truncation keeps the first Fock amplitudes bit for bit.
    (The unequal layout's stack takes 6,449 projector calls and 93 MB at dim 30.)"""
    rng = np.random.default_rng(11)
    record = quadrature_record(rng, phase_layouts(rng)[layout], dim)
    if dim < max(CASE_DIMS):
        return record, homodyne_case(layout, max(CASE_DIMS))[1][:, :dim, :dim]
    stack = np.empty((record.n_outcomes, dim, dim), dtype=complex)  # filled in place: no list of 6,449 arrays
    for k, (theta, x) in enumerate(zip(record.thetas, record.xs)):
        stack[k] = quadrature_projector(theta, x, dim)
    stack.flags.writeable = False
    return record, stack


def max_difference(stack, reference, order=None, chunk=64):
    """max |stack[k] - reference[order[k]]| over a (k, dim, dim) stack (order: input order by default), taken
    ``chunk`` elements at a time, so that no temporary the size of the stack is made; NaN if either holds one."""
    parts = (slice(k, k + chunk) for k in range(0, len(stack), chunk))
    return float(np.max([np.abs(stack[part] - reference[part if order is None else order[part]]).max()
                         for part in parts]))
