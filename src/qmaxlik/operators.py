"""Complex Hermitian matrix primitives used throughout the reconstruction pipeline.

Operators (states, measurement elements, iteration maps) are plain complex128
numpy arrays; the functions here enforce the invariants the rest of the package
relies on. A measurement element is Hermitian to 1e-12 and positive semidefinite
up to a -1e-8 eigenvalue floor (roundoff accumulated over thousands of iterations);
a density matrix meets one tolerance, 1e-8 by default, for Hermiticity, unit trace and that floor.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

HERMITICITY_ATOL = 1e-12
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
    return _hermitian_part(as_operator(m))


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``hermitize`` of a matrix already known to be a square complex array, such as an iterate."""
    return 0.5 * (a + a.conj().T)


def normalize(m) -> np.ndarray:
    """Scale a Hermitian matrix to unit trace.

    Raises ValidationError when the trace is at or below TRACE_FLOOR,
    which would make the scaling meaningless or wildly amplify noise, or is
    not a number (a non-finite matrix).
    """
    return _unit_trace(as_operator(m))


def _unit_trace(a: np.ndarray) -> np.ndarray:
    """``normalize`` of a matrix already known to be square, with the same trace floor."""
    tr = a.trace().real
    if not tr > TRACE_FLOOR:
        raise ValidationError(f"matrix is not normalizable: trace {tr:.3e} <= {TRACE_FLOOR:.1e}")
    return a / tr


def _check_hermitian_psd(stack: np.ndarray, hermiticity_atol: float = HERMITICITY_ATOL,
                         psd_atol: float = PSD_ATOL, name: str = "a measurement element") -> None:
    """Raise ValidationError unless every matrix of the (k, dim, dim) stack is Hermitian to
    ``hermiticity_atol`` and has no eigenvalue below ``-psd_atol``; a NaN entry fails."""
    skew = np.max(np.abs(stack - stack.conj().transpose(0, 2, 1)))
    if not skew <= hermiticity_atol:
        raise ValidationError(f"{name} is not Hermitian: skew {skew:.3e} > {hermiticity_atol:.0e}")
    lowest = np.min(np.linalg.eigvalsh(stack))
    if not lowest >= -psd_atol:
        raise ValidationError(f"{name} is not positive semidefinite: eigenvalue {lowest:.3e} < -{psd_atol:.0e}")


def validate_density(m, tol: float = PSD_ATOL) -> np.ndarray:
    """Check that ``m`` is a density matrix: trace 1 within ``tol``, Hermitian, eigenvalues >= -tol.

    Returns the validated matrix unchanged so the call can be chained.
    """
    a = as_operator(m)
    tr = a.trace().real
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"trace {float(tr)!r} differs from 1 by more than {tol:.1e}")
    _check_hermitian_psd(a[None], max(HERMITICITY_ATOL, tol), tol, "matrix")
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
