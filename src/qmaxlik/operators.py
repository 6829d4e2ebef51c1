"""Complex Hermitian matrix primitives used throughout the reconstruction pipeline.

Operators (states, measurement elements, iteration maps) are plain complex128
numpy arrays; the functions here enforce the invariants the rest of the package
relies on: Hermiticity to 1e-12, unit trace to 1e-10, and positive
semidefiniteness up to a -1e-8 eigenvalue floor (roundoff accumulated over
thousands of iterations).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-8
TRACE_FLOOR = 1e-10  # normalize refuses a trace at or below this


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex128 matrix, raising on any other shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitize(m) -> np.ndarray:
    """Return the Hermitian part (m + m^dag)/2 of a square matrix.

    Idempotent on Hermitian input; the output satisfies
    ``out[i, j] == conj(out[j, i])`` exactly (complex addition commutes in
    IEEE arithmetic).
    """
    a = as_operator(m)
    return 0.5 * (a + a.conj().T)


def is_hermitian(m, atol: float = HERMITICITY_ATOL) -> bool:
    a = as_operator(m)
    return bool(np.max(np.abs(a - a.conj().T), initial=0.0) <= atol)


def normalize(m) -> np.ndarray:
    """Scale a Hermitian matrix to unit trace.

    Raises ValidationError when the trace is at or below TRACE_FLOOR,
    which would make the scaling meaningless or wildly amplify noise, or is
    not a number (a non-finite matrix).
    """
    a = as_operator(m)
    tr = a.trace().real
    if not tr > TRACE_FLOOR:
        raise ValidationError(f"matrix is not normalizable: trace {tr:.3e} <= {TRACE_FLOOR:.1e}")
    return a / tr


def eigendecompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and orthonormal eigenvector columns of a Hermitian matrix.

    Returns
    -------
    values : (dim,) float array, sorted descending.
    vectors : (dim, dim) complex array; column k pairs with values[k], and
        ``m == vectors @ diag(values) @ vectors.conj().T`` to 1e-10.
    """
    a = as_operator(m)
    values, vectors = np.linalg.eigh(a)
    return values[::-1].copy(), vectors[:, ::-1].copy()


def min_eigenvalue(m) -> float:
    return float(np.linalg.eigvalsh(as_operator(m))[0])


def validate_density(m, tol: float = PSD_ATOL) -> np.ndarray:
    """Check that ``m`` is a density matrix: Hermitian, trace 1 within ``tol``, eigenvalues >= -tol.

    Returns the validated matrix unchanged so the call can be chained.
    """
    a = as_operator(m)
    if not is_hermitian(a, atol=max(HERMITICITY_ATOL, tol)):
        raise ValidationError("matrix is not Hermitian")
    tr = a.trace().real
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"trace {tr!r} differs from 1 by more than {tol:.1e}")
    lo = min_eigenvalue(a)
    if lo < -tol:
        raise ValidationError(f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}")
    return a


def validate_povm_element(m, tol: float = PSD_ATOL) -> np.ndarray:
    """Check that ``m`` is a valid measurement element (Hermitian, PSD within ``tol``)."""
    a = as_operator(m)
    if not is_hermitian(a, atol=max(HERMITICITY_ATOL, tol)):
        raise ValidationError("measurement element is not Hermitian")
    lo = min_eigenvalue(a)
    if lo < -tol:
        raise ValidationError(f"measurement element is not PSD: min eigenvalue {lo:.3e}")
    return a


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(m)
    root = np.sqrt(np.maximum(values, 0.0))
    return (vectors * root) @ vectors.conj().T


def fidelity(a, b) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(a) b sqrt(a)))**2`` between density matrices.

    Symmetric in its arguments to roundoff and equal to 1 iff a == b.
    """
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    ra = _psd_sqrt(a)
    inner = hermitize(ra @ b @ ra)
    values = np.maximum(np.linalg.eigvalsh(inner), 0.0)
    f = float(np.sum(np.sqrt(values)) ** 2)
    return min(max(f, 0.0), 1.0)
