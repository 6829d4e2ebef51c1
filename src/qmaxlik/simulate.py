"""Synthetic measurement records drawn from a known true state.

Provides the end-to-end oracle for reconstruction tests: counted outcomes of a
complete POVM (multinomial) and per-sample homodyne quadratures (inverse-CDF
draws from the tabulated phase-conditional marginals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ValidationError
from .operators import validate_density
from .povm import wavefunction_table

RNG_ALGORITHM = "numpy.random.PCG64"

QUAD_GRID_LO = -6.0
QUAD_GRID_HI = 6.0
QUAD_GRID_POINTS = 2048

COMPLETENESS_ATOL = 1e-8


@dataclass(frozen=True)
class SimulationSpec:
    """True state, RNG seed, and number of samples for a synthetic experiment."""

    state: np.ndarray
    seed: int
    count: int

    def __post_init__(self):
        object.__setattr__(self, "state", validate_density(self.state))
        if self.count < 1:
            raise ValidationError("sample count must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def sample_counts(spec: SimulationSpec, povm) -> Dataset:
    """Multinomial outcome counts for a complete POVM.

    The elements must sum to the identity within 1e-8 (otherwise the outcome
    probabilities do not form a distribution and multinomial sampling is
    meaningless). Deterministic for a given seed.
    """
    elements = np.asarray(povm, dtype=np.complex128)
    if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
        raise ValidationError(f"POVM must be a (k, dim, dim) stack, got {elements.shape}")
    if elements.shape[1] != spec.state.shape[0]:
        raise ValidationError("POVM dimension does not match the true state")
    gap = np.max(np.abs(elements.sum(axis=0) - np.eye(elements.shape[1])))
    if gap > COMPLETENESS_ATOL:
        raise ValidationError(f"POVM is incomplete: |sum - identity| = {gap:.3e}")
    probs = np.einsum("kij,ji->k", elements, spec.state).real
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    rng = np.random.default_rng(spec.seed)
    counts = rng.multinomial(spec.count, probs).astype(np.float64)
    return Dataset(elements=elements, counts=counts)


def quadrature_density_table(state: np.ndarray, theta: float, grid: np.ndarray) -> np.ndarray:
    """Quadrature marginal p(x | theta) of ``state`` tabulated on ``grid``."""
    dim = state.shape[0]
    psi = wavefunction_table(dim, grid)  # (dim, n)
    chi = np.exp(1j * theta * np.arange(dim))[:, None] * psi
    density = np.einsum("in,ij,jn->n", chi.conj(), state, chi).real
    return np.maximum(density, 0.0)


def sample_quadratures(spec: SimulationSpec, phases, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Homodyne samples of the true state: arrays of phases and quadrature values.

    Each sample picks a phase uniformly from ``phases`` and draws x by inverse
    CDF from p(x | theta) tabulated on a uniform grid over [-6, 6] with 2048
    points (enough to hold states up to ~14 photons with negligible tail mass).
    Deterministic for a given seed.
    """
    phase_list = np.asarray(phases, dtype=np.float64).reshape(-1)
    if phase_list.size == 0:
        raise ValidationError("need at least one phase")
    if not np.all(np.isfinite(phase_list)):
        raise ValidationError("phases must be finite")
    if dim < 1:
        raise ValidationError("dimension must be at least 1")
    if spec.state.shape[0] != dim:
        raise ValidationError("true state dimension does not match requested dim")

    grid = np.linspace(QUAD_GRID_LO, QUAD_GRID_HI, QUAD_GRID_POINTS)
    step = grid[1] - grid[0]
    cdfs = np.empty((phase_list.size, QUAD_GRID_POINTS))
    for i, theta in enumerate(phase_list):
        density = quadrature_density_table(spec.state, float(theta), grid)
        increments = 0.5 * (density[1:] + density[:-1]) * step
        cdfs[i] = np.concatenate([[0.0], np.cumsum(increments)])

    rng = np.random.default_rng(spec.seed)
    phase_idx = rng.integers(0, phase_list.size, size=spec.count)
    uniforms = rng.random(spec.count)
    xs = np.empty(spec.count)
    for i in range(phase_list.size):
        mask = phase_idx == i
        if not np.any(mask):
            continue
        cdf = cdfs[i]
        xs[mask] = np.interp(uniforms[mask] * cdf[-1], cdf, grid)
    return phase_list[phase_idx], xs


def preset_state(name: str, dim: int) -> np.ndarray:
    """Named true states for the command line: 'vacuum' and 'superposition01'."""
    if dim < 1 or (name == "superposition01" and dim < 2):
        raise ValidationError(f"dimension {dim} is too small for preset {name!r}")
    if name == "vacuum":
        vec = np.zeros(dim, dtype=np.complex128)
        vec[0] = 1.0
    elif name == "superposition01":
        vec = np.zeros(dim, dtype=np.complex128)
        vec[0] = vec[1] = 1.0 / np.sqrt(2.0)
    else:
        raise ValidationError(f"unknown preset state {name!r}")
    return np.outer(vec, vec.conj())
