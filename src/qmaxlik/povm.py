"""Constructors for measurement operators.

Covers the two measurement families exercised by the test problems: projective
qubit measurements and truncated-Fock-basis quadrature projectors for balanced
homodyne detection.

Quadrature convention: x = (a + a^dag)/sqrt(2), so the vacuum marginal is a
Gaussian with variance 1/2 and <n|x> is the standard dimensionless oscillator
eigenfunction. Input data must use the same scaling.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .dataset import Dataset, QuadratureDataset
from .errors import ValidationError


class QuadratureSample(NamedTuple):
    """One homodyne sample: local-oscillator phase (radians) and quadrature value."""

    theta: float
    x: float


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


def harmonic_wavefunction(n: int, x) -> np.ndarray:
    """Normalized harmonic-oscillator eigenfunction psi_n evaluated at ``x``.

    Uses the stable three-term recurrence on the normalized functions
    (raw Hermite polynomials overflow long before n = 14 at |x| ~ 10):

        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}
    """
    if n < 0:
        raise ValidationError("quantum number must be non-negative")
    return wavefunction_table(n + 1, x)[n]


def wavefunction_table(dim: int, x) -> np.ndarray:
    """Stack psi_0 .. psi_{dim-1} evaluated at ``x``; shape (dim, len(x))."""
    if dim < 1:
        raise ValidationError("dimension must be at least 1")
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(xs)):
        raise ValidationError("quadrature values must be finite")
    table = np.empty((dim, xs.size), dtype=np.float64)
    table[0] = np.pi ** -0.25 * np.exp(-0.5 * xs * xs)
    if dim > 1:
        table[1] = np.sqrt(2.0) * xs * table[0]
    for n in range(1, dim - 1):
        table[n + 1] = np.sqrt(2.0 / (n + 1)) * xs * table[n] - np.sqrt(n / (n + 1.0)) * table[n - 1]
    return table


def quadrature_state(theta: float, x: float, dim: int) -> np.ndarray:
    """Fock-basis coefficients of the (truncated) quadrature eigenvector at phase theta."""
    if not (np.isfinite(theta) and np.isfinite(x)):
        raise ValidationError("phase and quadrature value must be finite")
    psi = wavefunction_table(dim, x)[:, 0]
    return np.exp(1j * theta * np.arange(dim)) * psi


def quadrature_projector(sample: QuadratureSample | tuple[float, float], dim: int) -> np.ndarray:
    """Rank-1 element for one homodyne sample: entries exp(i(m-n)theta) psi_m(x) psi_n(x)."""
    theta, x = sample
    chi = quadrature_state(theta, x, dim)
    return np.outer(chi, chi.conj())


_PAIR = np.dtype([("theta", np.float64), ("x", np.float64)])


def quadrature_dataset(
    samples: Iterable[QuadratureSample | tuple[float, float]], dim: int
) -> QuadratureDataset:
    """Record with one rank-1 element per homodyne sample, each with count 1.

    The per-sample projectors form an unnormalized continuous POVM; use the
    plain (uncorrected) iteration on the result. The elements are stored in
    factored form (see ``QuadratureDataset``) and kept in sample order.
    """
    try:  # one pass into a two-field record array, viewed as (m, 2) floats
        arr = np.fromiter(map(tuple, samples), dtype=_PAIR).view(np.float64).reshape(-1, 2)
    except (TypeError, ValueError) as exc:
        raise ValidationError("samples must be (theta, x) pairs") from exc
    if arr.size == 0:
        raise ValidationError("sample list is empty")
    thetas, xs = arr[:, 0], arr[:, 1]
    if not np.all(np.isfinite(arr)):
        raise ValidationError("samples must be finite")
    return QuadratureDataset(psi=wavefunction_table(dim, xs).T, thetas=thetas, counts=np.ones(arr.shape[0]))
