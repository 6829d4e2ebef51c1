"""Measurement records: POVM elements paired with observed counts.

Counts are stored as floats so binned or weighted records (and per-sample
homodyne data with count 1 each) all fit the same container.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_int
from .operators import _check_hermitian_psd, hermitize

G_CONDITION_LIMIT = 1e12  # GOperator refuses a worse-conditioned element sum
PROBABILITY_FLOOR = 1e-12  # every probability tr(Pi_j rho) is raised to at least this


def _checked_counts(counts, n_outcomes: int) -> np.ndarray:
    counts = np.array(counts, dtype=np.float64)
    if counts.shape != (n_outcomes,):
        raise ValidationError(f"counts shape {counts.shape} does not match {n_outcomes} outcomes")
    if n_outcomes == 0:
        raise ValidationError("dataset has no measurement records")
    if np.any(counts < 0) or not np.all(np.isfinite(counts)):
        raise ValidationError("counts must be finite and non-negative")
    if not np.any(counts > 0):
        raise ValidationError("dataset needs at least one positive count")
    counts.flags.writeable = False
    return counts


class MeasurementRecord:
    """The contract every record keeps: ``dim``, ``n_outcomes``, ``total`` and ``counts``, the non-negative count
    of each outcome; read-only copies of the arrays it is given, with outcome k = input k; ``elements``, the dense
    (n_outcomes, dim, dim) stack, for tests and tools only; ``traces``, ``weighted_sum``, ``element_sum`` and
    ``likelihood_terms``, each returning new arrays on every call; and ``nbytes``.
    """

    counts: np.ndarray

    @property
    def n_outcomes(self) -> int:
        return self.counts.shape[0]

    @functools.cached_property
    def total(self) -> float:
        """Total number of measurements (sum of counts), summed on first read."""
        return float(self.counts.sum())

    @property
    def nbytes(self) -> int:
        """Bytes of every array the record holds, lists of arrays included, summed on every read."""
        held = [a for value in vars(self).values() for a in (value if isinstance(value, list) else [value])]
        return sum(a.nbytes for a in held if isinstance(a, np.ndarray))

    def likelihood_terms(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """tr(Pi_k rho), those raised to PROBABILITY_FLOOR and sum_k f_k / (N probs_k) Pi_k, in new arrays."""
        probs = np.maximum(traces := self.traces(rho), PROBABILITY_FLOOR)
        return traces, probs, self.weighted_sum(self.counts / (self.total * probs))

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
    """

    elements: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        elements = np.array(self.elements, dtype=np.complex128)
        if not np.all(np.isfinite(elements)):
            raise ValidationError("measurement elements must be finite")
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2] or elements.shape[1] < 1:
            raise ValidationError(f"elements must be a (k, dim, dim) stack, got {elements.shape}")
        counts = _checked_counts(self.counts, elements.shape[0])
        _check_hermitian_psd(elements)
        elements.flags.writeable = False
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


def wavefunction_table(dim: int, x) -> np.ndarray:
    """Stack psi_0 .. psi_{dim-1} evaluated at ``x``; shape (dim, len(x)).

    Row n is the normalized harmonic-oscillator eigenfunction psi_n. The rows
    come from the stable three-term recurrence on the normalized functions
    (raw Hermite polynomials overflow long before n = 14 at |x| ~ 10):

        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}
    """
    check_int(dim, "dimension")
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


def fock_amplitudes(thetas, xs, dim: int) -> np.ndarray:
    """(m, dim) table of <n|chi_k> = exp(i n theta_k) psi_n(x_k), the amplitudes of the homodyne elements."""
    return np.exp(1j * np.outer(thetas, np.arange(dim))) * wavefunction_table(dim, xs).T


def product_basis(dim: int, x) -> np.ndarray:
    """phi_0 .. phi_{2 dim - 2} evaluated at ``x``, phi_j(x) = 2^(1/4) psi_j(sqrt(2) x); shape (2 dim - 1, len(x))."""
    table = wavefunction_table(2 * dim - 1, np.sqrt(2.0) * np.asarray(x, dtype=np.float64))
    table *= 2.0**0.25
    return table


@functools.lru_cache(maxsize=None)
def product_table(dim: int) -> np.ndarray:
    """The (dim^2, 2 dim - 1) table L with psi_a psi_b = sum_j L[a dim + b, j] phi_j.

    psi_a psi_b is exp(-x^2) times a polynomial of degree a + b, and the phi_j
    are orthonormal and span exactly those functions, so L[ab, j] is the
    integral of psi_a psi_b phi_j. In y = sqrt(2) x that integrand is exp(-y^2)
    times a polynomial of degree at most 4 dim - 4, which the 2 dim node
    Gauss-Hermite rule integrates exactly. Its nodes are the eigenvalues of the
    Jacobi matrix with off-diagonal sqrt(k/2) (Golub-Welsch), and the weight
    of exp(-y^2) p(y) at node y is 1 / sum_{n < 2 dim} psi_n(y)^2.
    """
    n = 2 * dim
    off = np.sqrt(np.arange(1, n) / 2.0)
    y = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    x = y / np.sqrt(2.0)
    weights = 1.0 / (np.sqrt(2.0) * np.sum(wavefunction_table(n, y) ** 2, axis=0))  # dx = dy / sqrt(2)
    psi = wavefunction_table(dim, x)
    products = (psi[:, None, :] * psi[None, :, :]).reshape(dim * dim, n)
    table = (products * weights) @ product_basis(dim, x).T
    table.flags.writeable = False
    return table


# A phase with fewer samples than this joins the pooled block. Per call of both
# kernels a phase group has a fixed cost (its slice, coefficients and two GEMVs)
# of about 2.5 us at dim 6, 4.5 us at dim 15 and 14 us at dim 30, then 0.02-0.05
# us per sample; a pooled sample costs 0.06, 0.2 and 0.5 us. Timed with one BLAS
# thread on a 2-core x86-64 box, groups won from about 70 samples per phase at
# dim 6, 26 at dim 15 and 32 at dim 30. On 150 phases of 8 to 160 samples each,
# a cut-off of 48 was 2-7% faster than 64 at dims 15 and 30 and 1-6% slower at
# dim 6, so the cut-off stays.
POOLED_BELOW = 64

# Phases are taken in runs whose Phi fits in this many bytes, so likelihood_terms reads a run's Phi again from
# cache: 0.69-0.76 of the time of traces + weighted_sum at dim 15, 0.68-0.73 at dim 6, 0.85 with 8 MB runs.
RUN_BYTES = 1 << 19


@dataclass(frozen=True)
class QuadratureDataset(MeasurementRecord):
    """Homodyne record in factored form, one rank-1 element per sample.

    Sample k is the element |chi_k><chi_k| with Fock amplitudes
    <n|chi_k> = exp(i n theta_k) psi_n(x_k), where the wavefunctions psi_n are
    real. The record never stores the elements. The samples are grouped by
    phase, and a grouped sample is stored as its column Phi[:, k] of the
    product basis (``product_basis``, ``product_table``): psi_a(x) psi_b(x) =
    sum_j L[ab, j] phi_j(x) with 2 dim - 1 functions phi_j. On a phase theta
    with D = diag(exp(i n theta)) and A = Re(D^dag M D),

        tr(Pi_k M) = Phi[:, k] . c,      c = L^T vec(A)      (M Hermitian),
        sum_k w_k Pi_k = D reshape(L mu) D^dag,      mu = sum_k w_k Phi[:, k],

    one matrix-vector product per phase and kernel. Phases with fewer than
    POOLED_BELOW samples go to one pooled block that works on the complex
    rows chi_k instead. Outcome k is always sample k, in input order (kernels work in phase order).

    Attributes
    ----------
    thetas : (m,) float array, the local-oscillator phase of each sample.
    xs : (m,) float array, the quadrature value of each sample.
    dim : the Fock-space truncation d.
    """

    thetas: np.ndarray
    xs: np.ndarray
    counts: np.ndarray
    dim: int

    def __post_init__(self):
        if np.iscomplexobj(self.thetas) or np.iscomplexobj(self.xs):
            raise ValidationError("thetas and xs must be real")
        thetas = np.array(self.thetas, dtype=np.float64)
        xs = np.array(self.xs, dtype=np.float64)
        if xs.ndim != 1:
            raise ValidationError(f"xs must be a (samples,) array, got {xs.shape}")
        if thetas.shape != xs.shape:
            raise ValidationError(f"thetas shape {thetas.shape} does not match {xs.shape[0]} samples")
        counts = _checked_counts(self.counts, xs.shape[0])
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(thetas))):
            raise ValidationError("thetas and xs must be finite")
        dim = check_int(self.dim, "dim")
        thetas.flags.writeable = xs.flags.writeable = False
        phases, index, sizes = np.unique(thetas, return_inverse=True, return_counts=True)
        big = sizes >= POOLED_BELOW
        # the samples on large phases, sorted by phase, then the pooled samples in input order
        order = np.argsort(np.where(big[index], index, phases.size), kind="stable")
        bounds = np.concatenate([[0], np.cumsum(sizes[big])]).tolist()  # phase p holds bounds[p]:bounds[p + 1]
        runs = []  # (rows, [(phase, its rows within the run)]) per run of consecutive phases, see RUN_BYTES
        for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if not runs or (hi - runs[-1][0]) * (2 * dim - 1) * 8 > RUN_BYTES:
                runs.append((lo, []))
            runs[-1][1].append((p, slice(lo - runs[-1][0], hi - runs[-1][0])))
        runs = [(slice(start, start + parts[-1][1].stop), parts) for start, parts in runs]
        phi = product_basis(dim, xs[order[: bounds[-1]]])
        u = np.exp(1j * np.outer(phases[big], np.arange(dim)))  # diagonal of D per grouped phase
        chi = fock_amplitudes(thetas[order[bounds[-1]:]], xs[order[bounds[-1]:]], dim)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_sorted_counts", counts[order])
        object.__setattr__(self, "_runs", runs)
        object.__setattr__(self, "_pooled", slice(bounds[-1], None))
        object.__setattr__(self, "_blocks", np.split(phi, bounds[1:], axis=1)[:-1])  # a column view per phase
        # D^dag M D = M * twist, flattened to (phases, dim^2)
        object.__setattr__(self, "_twists", (u.conj()[:, :, None] * u[:, None, :]).reshape(-1, dim * dim))
        object.__setattr__(self, "_chi", np.asfortranarray(chi))
        object.__setattr__(self, "_chi_conj", self._chi.conj())

    @property
    def elements(self) -> np.ndarray:
        """The (m, dim, dim) element stack, built on every read; the solver never uses it."""
        chi = fock_amplitudes(self.thetas, self.xs, self.dim)
        return np.einsum("mi,mj->mij", chi, chi.conj())

    def traces(self, matrix: np.ndarray) -> np.ndarray:
        """tr(Pi_k matrix) for every sample, as real numbers (matrix is Hermitian)."""
        return self._kernels(matrix, None)[0]

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] Pi_k."""
        weights = np.asarray(weights, dtype=np.float64)[self._order]
        return self._kernels(None, lambda rows, _: weights[rows])[2]

    def likelihood_terms(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(traces, probs, r) in one pass: each run of phases builds its share of r while its Phi is in cache."""
        traces, ordered, r = self._kernels(
            rho, lambda rows, t: self._sorted_counts[rows] / (self.total * np.maximum(t, PROBABILITY_FLOOR)))
        return traces, np.maximum(traces, PROBABILITY_FLOOR, out=ordered), r

    def _kernels(self, matrix, weigh):
        """Traces of ``matrix`` (input, phase order) and sum_k w_k Pi_k, w = weigh(rows, traces) per run, or None."""
        table = product_table(self.dim)
        traces = ordered = None
        if matrix is not None:
            coeffs = (np.reshape(matrix, -1) * self._twists).real @ table  # c per phase
            traces, ordered = np.empty(self.n_outcomes), np.empty(self.n_outcomes)
            ordered[self._pooled] = np.einsum("ki,ki->k", self._chi_conj @ matrix, self._chi).real
        moments = np.empty((len(self._blocks), 2 * self.dim - 1))  # mu per phase
        for rows, parts in self._runs:
            run = None if matrix is None else ordered[rows]
            for p, local in parts if matrix is not None else ():
                np.matmul(coeffs[p], self._blocks[p], out=run[local])
            weights = None if weigh is None else weigh(rows, run)
            for p, local in parts if weigh is not None else ():
                np.matmul(self._blocks[p], weights[local], out=moments[p])
        if matrix is not None:
            traces[self._order] = ordered
        if weigh is None:
            return traces, ordered, None
        weights = weigh(self._pooled, None if matrix is None else ordered[self._pooled])
        total = (self._chi * weights[:, None]).T @ self._chi_conj
        total += np.einsum("pi,pi->i", moments @ table.T, self._twists.conj()).reshape(self.dim, self.dim)
        return traces, ordered, total


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
        values, vectors = np.linalg.eigh(matrix)
        values, vectors = values[::-1], vectors[:, ::-1]  # descending: the inverse is summed in this order
        lo, hi = values[-1], values[0]
        if not (lo > 0.0 and hi / lo <= G_CONDITION_LIMIT):
            raise ValidationError(
                f"element sum is singular or ill-conditioned (eigenvalues in [{lo:.3e}, {hi:.3e}])"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "inverse", hermitize((vectors / values) @ vectors.conj().T))
        object.__setattr__(self, "condition", float(hi / lo))
