"""Shared random-instance generators for the test suite."""

import numpy as np

from qmaxlik import Dataset, QuadratureDataset
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
