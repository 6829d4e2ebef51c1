"""Measurement records: POVM elements paired with observed counts.

Counts are stored as floats so binned or weighted records (and per-sample
homodyne data with count 1 each) all fit the same container.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .operators import _check_hermitian_psd, eigendecompose, hermitize

G_CONDITION_LIMIT = 1e12  # GOperator refuses a worse-conditioned element sum


def _checked_counts(counts, n_outcomes: int) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (n_outcomes,):
        raise ValidationError(f"counts shape {counts.shape} does not match {n_outcomes} outcomes")
    if n_outcomes == 0:
        raise ValidationError("dataset has no measurement records")
    if np.any(counts < 0) or not np.all(np.isfinite(counts)):
        raise ValidationError("counts must be finite and non-negative")
    if not np.any(counts > 0):
        raise ValidationError("dataset needs at least one positive count")
    return counts


class MeasurementRecord:
    """Outcomes with counts; each record also gives dim, elements, traces and weighted_sum."""

    counts: np.ndarray

    @property
    def n_outcomes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> float:
        """Total number of measurements (sum of counts)."""
        return float(self.counts.sum())

    def element_sum(self) -> np.ndarray:
        """Sum of all measurement elements (identity for a complete POVM)."""
        return self.weighted_sum(np.ones(self.n_outcomes))


@dataclass(frozen=True)
class Dataset(MeasurementRecord):
    """Stack of measurement elements with the number of occurrences of each outcome.

    Attributes
    ----------
    elements : (n_outcomes, dim, dim) complex128 array; each slice is a PSD
        Hermitian measurement element.
    counts : (n_outcomes,) float array of non-negative occurrence counts.
    """

    elements: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        elements = np.asarray(self.elements, dtype=np.complex128)
        if not np.all(np.isfinite(elements)):
            raise ValidationError("measurement elements must be finite")
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2] or elements.shape[1] < 1:
            raise ValidationError(f"elements must be a (k, dim, dim) stack, got {elements.shape}")
        counts = _checked_counts(self.counts, elements.shape[0])
        _check_hermitian_psd(elements)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def traces(self, matrix: np.ndarray) -> np.ndarray:
        """tr(Pi_k matrix) for every element, as real numbers (matrix is Hermitian)."""
        return np.einsum("kij,ji->k", self.elements, matrix).real

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] Pi_k."""
        return np.einsum("k,kij->ij", weights, self.elements)


# A phase with fewer samples than this joins the pooled block. Per call of both
# kernels a phase group has about 10 us of fixed cost (its slices, twist and two
# small BLAS calls), then 0.04-0.07 us per sample; a pooled sample costs 0.1 us
# at dim 6 and 0.27 us at dim 15. Timed with one BLAS thread on a 2-core x86-64
# box, groups won from about 100 samples per phase at dim 6, 55 at dim 15 and 45
# at dim 30.
POOLED_BELOW = 64


@dataclass(frozen=True)
class QuadratureDataset(MeasurementRecord):
    """Homodyne record in factored form, one rank-1 element per sample.

    Sample k is the element |chi_k><chi_k| with Fock amplitudes
    <n|chi_k> = exp(i n theta_k) psi_n(x_k), where the wavefunctions psi_n are
    real. The record stores the real table psi and the phases, never the
    elements, so it takes O(m dim) memory for m samples. The samples are
    grouped by phase: on a phase theta with D = diag(exp(i n theta)) and
    sample rows P,

        tr(Pi_k M) = psi_k^T Re(D^dag M D) psi_k      (M Hermitian),
        sum_k w_k Pi_k = D (P^T diag(w) P) D^dag,

    both real matrix products. Phases with fewer than POOLED_BELOW samples go
    to one pooled block that works on the complex rows chi_k instead.
    Outcome k is always sample k, in input order.

    Attributes
    ----------
    psi : (m, dim) float array, psi[k, n] = psi_n(x_k).
    thetas : (m,) float array, the local-oscillator phase of each sample.
    counts : (m,) float array of non-negative occurrence counts.
    """

    psi: np.ndarray
    thetas: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.psi):
            raise ValidationError("the wavefunction table psi must be real")
        psi = np.asarray(self.psi, dtype=np.float64)
        thetas = np.asarray(self.thetas, dtype=np.float64)
        if psi.ndim != 2 or psi.shape[1] < 1:
            raise ValidationError(f"psi must be a (samples, dim) table, got {psi.shape}")
        if thetas.shape != psi.shape[:1]:
            raise ValidationError(f"thetas shape {thetas.shape} does not match {psi.shape[0]} samples")
        counts = _checked_counts(self.counts, psi.shape[0])
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(thetas))):
            raise ValidationError("psi and thetas must be finite")
        phases, index, sizes = np.unique(thetas, return_inverse=True, return_counts=True)
        big = sizes >= POOLED_BELOW
        # the samples on large phases, sorted by phase, then the pooled samples in input order
        order = np.argsort(np.where(big[index], index, phases.size), kind="stable")
        ends = np.cumsum(sizes[big])
        *blocks, rest = np.split(psi[order], ends)
        u = np.exp(1j * np.outer(phases[big], np.arange(psi.shape[1])))  # diagonal of D per grouped phase
        chi = np.exp(1j * np.outer(np.split(thetas[order], ends)[-1], np.arange(psi.shape[1]))) * rest
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_ends", ends)
        # column-major copies: the kernels' matrix products run 10-20% faster on them
        object.__setattr__(self, "_blocks", [np.asfortranarray(block) for block in blocks])
        object.__setattr__(self, "_twists", u.conj()[:, :, None] * u[:, None, :])  # D^dag M D = M * twist
        object.__setattr__(self, "_chi", np.asfortranarray(chi))
        object.__setattr__(self, "_chi_conj", self._chi.conj())

    @property
    def dim(self) -> int:
        return self.psi.shape[1]

    @property
    def elements(self) -> np.ndarray:
        """The (m, dim, dim) element stack, built on every read; the solver never uses it."""
        chi = np.exp(1j * np.outer(self.thetas, np.arange(self.dim))) * self.psi
        return np.einsum("mi,mj->mij", chi, chi.conj())

    def traces(self, matrix: np.ndarray) -> np.ndarray:
        """tr(Pi_k matrix) for every sample, as real numbers (matrix is Hermitian)."""
        twisted = np.ascontiguousarray((matrix * self._twists).real)  # Re(D^dag M D) per phase
        parts = [np.einsum("ki,ki->k", block @ a, block) for block, a in zip(self._blocks, twisted)]
        parts.append(np.einsum("ki,ki->k", self._chi_conj @ matrix, self._chi).real)
        out = np.empty(self.n_outcomes)
        out[self._order] = np.concatenate(parts)
        return out

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] Pi_k."""
        *grouped, pooled = np.split(np.asarray(weights, dtype=np.float64)[self._order], self._ends)
        total = (self._chi * pooled[:, None]).T @ self._chi_conj
        for block, w, twist in zip(self._blocks, grouped, self._twists):
            total += (block.T @ (w[:, None] * block)) * twist.conj()
        return total


@dataclass(frozen=True)
class GOperator:
    """Sum of a record's measurement elements, with its inverse and condition derived from it.

    Used to debias reconstructions when the POVM does not sum to the identity.
    ``condition`` is the ratio of extreme eigenvalues of the sum (stored as its Hermitian part).
    """

    matrix: np.ndarray
    inverse: np.ndarray = field(init=False)
    condition: float = field(init=False)

    @classmethod
    def from_dataset(cls, dataset: MeasurementRecord) -> "GOperator":
        return cls(dataset.element_sum())

    def __post_init__(self):
        matrix = hermitize(self.matrix)
        values, vectors = eigendecompose(matrix)
        lo, hi = values[-1], values[0]
        if not (lo > 0.0 and hi / lo <= G_CONDITION_LIMIT):
            raise ValidationError(
                f"element sum is singular or ill-conditioned (eigenvalues in [{lo:.3e}, {hi:.3e}])"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "inverse", hermitize((vectors / values) @ vectors.conj().T))
        object.__setattr__(self, "condition", float(hi / lo))
