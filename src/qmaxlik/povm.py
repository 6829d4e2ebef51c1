"""Constructors for measurement operators.

Covers the two measurement families exercised by the test problems: projective
qubit measurements and truncated-Fock-basis quadrature projectors for balanced
homodyne detection.

Quadrature convention: x = (a + a^dag)/sqrt(2), so the vacuum marginal is a
Gaussian with variance 1/2 and <n|x> is the standard dimensionless oscillator
eigenfunction. Input data must use the same scaling.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, QuadratureDataset, fock_amplitudes
from .errors import ValidationError


def projector_from_state(v) -> np.ndarray:
    """Rank-1 projector |v><v| onto the normalized direction of ``v``."""
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValidationError("cannot project onto a zero or non-finite vector")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def counterexample_dataset() -> Dataset:
    """Qubit dataset with basis projectors and counts (1, 2).

    Three projective measurements with |0> seen once and |1> twice; the plain
    quadratic fixed-point update cycles on this record with period two, which
    makes it the standard stress test for step-size control.
    """
    p0 = projector_from_state([1.0, 0.0])
    p1 = projector_from_state([0.0, 1.0])
    return Dataset(elements=np.stack([p0, p1]), counts=np.array([1.0, 2.0]))


def quadrature_projector(theta: float, x: float, dim: int) -> np.ndarray:
    """Rank-1 element for one homodyne sample: entries exp(i(m-n)theta) psi_m(x) psi_n(x)."""
    if not (np.isfinite(theta) and np.isfinite(x)):
        raise ValidationError("phase and quadrature value must be finite")
    chi = fock_amplitudes([theta], [x], dim)[0]
    return np.outer(chi, chi.conj())


def quadrature_dataset(thetas, xs, dim: int) -> QuadratureDataset:
    """Record with one rank-1 element per homodyne sample (thetas[k], xs[k]), each with count 1.

    The per-sample projectors form an unnormalized continuous POVM; use the
    plain (uncorrected) iteration on the result. The elements are stored in
    factored form (see ``QuadratureDataset``) and kept in sample order.
    """
    return QuadratureDataset(thetas=thetas, xs=xs, counts=np.ones(np.shape(xs)[:1]), dim=dim)
