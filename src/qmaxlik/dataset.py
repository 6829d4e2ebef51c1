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
        """Bytes of every array the record holds, lists of arrays included, summed on every read; a view of
        another held array is not counted again."""
        held = [a for value in vars(self).values() for a in (value if isinstance(value, list) else [value])
                if isinstance(a, np.ndarray)]
        return sum(a.nbytes for a in held if not any(a.base is b for b in held))

    def likelihood_terms(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """tr(Pi_k rho), those raised to PROBABILITY_FLOOR and sum_k f_k / (N probs_k) Pi_k, in new arrays."""
        probs = np.maximum(traces := self.traces(rho), PROBABILITY_FLOOR)
        return traces, probs, self.weighted_sum(self.counts / (self.total * probs))

    def element_sum(self) -> np.ndarray:
        """Sum of all measurement elements (identity for a complete POVM)."""
        return self.weighted_sum(np.ones(self.n_outcomes))

    def _checked_weights(self, weights) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.counts.shape:
            raise ValidationError(f"weights shape {weights.shape} does not match {self.counts.shape}")
        return weights


@dataclass(frozen=True)
class Dataset(MeasurementRecord):
    """Stack of measurement elements with the number of occurrences of each outcome.

    Both kernels are real matrix-vector products on the stack read as a (n_outcomes, 2 dim^2) float view T:
    for Hermitian M, tr(Pi_k M) = sum_ij Re Pi_ij Re M_ij + Im Pi_ij Im M_ij = T[k] . (M as floats), and
    sum_k w_k Pi_k is w @ T read back as complex.

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
        object.__setattr__(self, "_table", elements.view(np.float64).reshape(elements.shape[0], -1))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def traces(self, matrix: np.ndarray) -> np.ndarray:
        """tr(Pi_k matrix) for every element, as real numbers (matrix is Hermitian)."""
        return self._table @ np.ascontiguousarray(matrix, dtype=np.complex128).view(np.float64).ravel()

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] Pi_k."""
        return (self._checked_weights(weights) @ self._table).view(np.complex128).reshape(self.dim, self.dim)


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


# A phase with fewer samples than this joins the pooled block. Per likelihood_terms call a phase group has a
# fixed cost (its coefficients, its share of R, its place in the batched products) of about 0.8 us at dim 6, 3 us
# at dim 15 and 12 us at dim 30, then 0.01-0.02, 0.02-0.05 and 0.1-0.3 us per sample; a pooled sample costs
# 0.07-0.1, 0.2-0.27 and 0.45-0.6 us. Timed with one BLAS thread on a 2-core x86-64 box, on 150 phases of n samples
# each, groups won from about n = 10 at dim 6, 16 at dim 15 and 32 at dim 30. The cut-off stays at 64, so which
# samples are pooled, and every result, stays as before the batched kernel.
POOLED_BELOW = 64

# Phases are taken in runs whose padded slab fits in this many bytes (and pads at most a quarter of its samples),
# so likelihood_terms reads a run's slab again from cache: 0.84 of the time of traces + weighted_sum at dim 6 (5,000
# samples, 12 phases), 0.92 at dim 15, 0.77-0.89 at dim 30; 1 MB runs within 5%, one 8 MB run 6% slower at dim 6.
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

    one matrix-vector product per phase and kernel, batched over each run of
    consecutive phases, a padded (phases, 2 dim - 1, longest) slab (RUN_BYTES) whose padding has zero counts.
    Phases with fewer than POOLED_BELOW samples go to one pooled block that works on
    the complex rows chi_k instead. Kernels write a flat layout, the slabs' slots
    then the pooled block; outcome k is always sample k, at slot _gather[k].

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
        runs = [[]]  # the sizes of the phases in each run of consecutive phases, see RUN_BYTES
        for n in sizes[big].tolist():
            padded = (len(runs[-1]) + 1) * max(runs[-1] + [n])  # the run's slab with this phase, in samples
            if runs[-1] and (padded * (2 * dim - 1) * 8 > RUN_BYTES or 4 * padded > 5 * (sum(runs[-1]) + n)):
                runs.append([])
            runs[-1].append(n)
        spans, starts, offset = [], [], 0  # (its flat slots, its phases) per run; where each phase starts
        for run in filter(None, runs):
            spans.append((slice(offset, offset + len(run) * max(run)), slice(len(starts), len(starts) + len(run))))
            starts += range(offset, offset + len(run) * max(run), max(run))
            offset += len(run) * max(run)
        slots = np.arange(xs.size) + np.repeat(np.array(starts + [offset]) - bounds,
                                               np.append(sizes[big], xs.size - bounds[-1]))
        gather = np.empty(xs.size, dtype=np.intp)  # the flat slot of input sample k; slots is in phase order
        gather[order] = slots
        x = np.zeros(offset)  # the grouped quadratures at their slots
        x[slots[: bounds[-1]]] = xs[order[: bounds[-1]]]
        table = product_basis(dim, x)  # every slab's columns in flat order; padding is phi(0), inert (zero counts)
        slabs = [table[:, rows].reshape(2 * dim - 1, run.stop - run.start, -1).transpose(1, 0, 2)
                 for rows, run in spans]  # per run, a (phases, 2 dim - 1, longest phase) view of its columns
        flat_counts = np.bincount(gather, counts, minlength=offset + xs.size - bounds[-1])
        u = np.exp(1j * np.outer(phases[big], np.arange(dim)))  # diagonal of D per grouped phase
        chi = fock_amplitudes(thetas[order[bounds[-1]:]], xs[order[bounds[-1]:]], dim)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_gather", gather)
        object.__setattr__(self, "_flat_counts", flat_counts)
        object.__setattr__(self, "_slabs", slabs)
        object.__setattr__(self, "_spans", spans)
        object.__setattr__(self, "_pooled", slice(offset, None))
        # D^dag M D = M * twist, flattened to (phases, dim^2)
        object.__setattr__(self, "_twists", (u.conj()[:, :, None] * u[:, None, :]).reshape(-1, dim * dim))
        object.__setattr__(self, "_twists_conj", self._twists.conj())
        object.__setattr__(self, "_chi", np.asfortranarray(chi))
        object.__setattr__(self, "_chi_conj", self._chi.conj())

    @property
    def elements(self) -> np.ndarray:
        """The (m, dim, dim) element stack, built on every read; the solver never uses it."""
        chi = fock_amplitudes(self.thetas, self.xs, self.dim)
        return np.einsum("mi,mj->mij", chi, chi.conj())

    def traces(self, matrix: np.ndarray) -> np.ndarray:
        """tr(Pi_k matrix) for every sample, as real numbers (matrix is Hermitian)."""
        return self._kernels(matrix, None)[0][self._gather]

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] Pi_k."""
        flat = np.zeros(self._flat_counts.size)
        flat[self._gather] = self._checked_weights(weights)
        return self._kernels(None, lambda rows, _: flat[rows])[1]

    def likelihood_terms(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(traces, probs, r) in one pass: each run of phases builds its share of r while its slab is in cache."""
        flat, r = self._kernels(
            rho, lambda rows, t: self._flat_counts[rows] / (self.total * np.maximum(t, PROBABILITY_FLOOR)))
        traces = flat[self._gather]
        return traces, np.maximum(traces, PROBABILITY_FLOOR, out=flat[: self.n_outcomes]), r

    def _kernels(self, matrix, weigh):
        """Traces of ``matrix`` in the flat layout and sum_k w_k Pi_k, w = weigh(rows, traces) per slab and for
        the pooled block, or None. Padding has zero counts and must get zero weights; its traces are never gathered."""
        table = product_table(self.dim)
        flat = None
        if matrix is not None:
            coeffs = (np.reshape(matrix, -1) * self._twists).real @ table  # c per phase
            flat = np.empty(self._flat_counts.size)
            if self._chi.size:
                flat[self._pooled] = np.einsum("ki,ki->k", self._chi_conj @ matrix, self._chi).real
        moments = np.empty((len(self._twists), 2 * self.dim - 1))  # mu per phase
        for slab, (rows, phases) in zip(self._slabs, self._spans):
            count, _, longest = slab.shape
            if matrix is not None:
                np.matmul(coeffs[phases, None], slab, out=flat[rows].reshape(count, 1, longest))
            if weigh is not None:
                weights = weigh(rows, None if flat is None else flat[rows])
                np.matmul(slab, weights.reshape(count, longest, 1), out=moments[phases, :, None])
        if weigh is None:
            return flat, None
        total = np.einsum("pi,pi->i", moments @ table.T, self._twists_conj).reshape(self.dim, self.dim)
        if self._chi.size:
            weights = weigh(self._pooled, None if flat is None else flat[self._pooled])
            total += (self._chi * weights[:, None]).T @ self._chi_conj
        return flat, total


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
