"""Synthetic measurement records drawn from a known true state.

Provides the end-to-end oracle for reconstruction tests: counted outcomes of a
complete POVM (multinomial) and per-sample homodyne quadratures (inverse-CDF
draws from the tabulated phase-conditional marginals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, fock_amplitudes
from .errors import ValidationError, check_int
from .operators import validate_density

RNG_ALGORITHM = "numpy.random.PCG64"

QUAD_GRID_LO = -6.0
QUAD_GRID_HI = 6.0
QUAD_GRID_POINTS = 2048
QUAD_TAIL_MARGIN = 3.0  # reach past the top Fock level's turning point: any level then has < 1e-10 of its mass beyond

COMPLETENESS_ATOL = 1e-8

# The named true states of `simulate --preset`: unnormalized amplitudes of the lowest Fock levels.
PRESETS = {"vacuum": (1.0,), "superposition01": (1.0, 1.0)}


@dataclass(frozen=True)
class SimulationSpec:
    """True state, RNG seed, and number of samples for a synthetic experiment."""

    state: np.ndarray
    seed: int
    count: int

    def __post_init__(self):
        object.__setattr__(self, "state", validate_density(self.state))
        check_int(self.count, "sample count")
        check_int(self.seed, "seed", minimum=0)


def sample_counts(spec: SimulationSpec, povm) -> Dataset:
    """Multinomial outcome counts for a complete POVM.

    The elements must sum to the identity within 1e-8 (otherwise the outcome
    probabilities do not form a distribution and multinomial sampling is
    meaningless). Deterministic for a given seed.
    """
    record = Dataset(elements=povm, counts=np.ones(np.shape(povm)[:1]))
    if record.dim != spec.state.shape[0]:
        raise ValidationError("POVM dimension does not match the true state")
    gap = np.max(np.abs(record.element_sum() - np.eye(record.dim)))
    if gap > COMPLETENESS_ATOL:
        raise ValidationError(f"POVM is incomplete: |sum - identity| = {gap:.3e}")
    probs = np.maximum(record.traces(spec.state), 0.0)
    probs /= probs.sum()
    rng = np.random.default_rng(spec.seed)
    counts = rng.multinomial(spec.count, probs).astype(np.float64)
    return Dataset(elements=record.elements, counts=counts)


def quadrature_density_table(state: np.ndarray, theta: float, grid: np.ndarray) -> np.ndarray:
    """Quadrature marginal p(x | theta) of ``state`` tabulated on ``grid``."""
    chi = fock_amplitudes([theta], grid, state.shape[0])  # (n, dim), the one phase broadcast over the grid
    density = np.einsum("ni,ij,nj->n", chi.conj(), state, chi).real
    return np.maximum(density, 0.0)


def _quadrature_grid(state: np.ndarray) -> np.ndarray:
    """[-6, 6] at 2048 points, widened by whole steps to QUAD_TAIL_MARGIN past sqrt(2 n + 1), n the top Fock level."""
    step = (QUAD_GRID_HI - QUAD_GRID_LO) / (QUAD_GRID_POINTS - 1)
    top = int(np.flatnonzero(np.diag(state).real > 0.0)[-1])
    extra = max(0, int(np.ceil((np.sqrt(2 * top + 1) + QUAD_TAIL_MARGIN - QUAD_GRID_HI) / step)))
    return np.linspace(QUAD_GRID_LO - extra * step, QUAD_GRID_HI + extra * step, QUAD_GRID_POINTS + 2 * extra)


def sample_quadratures(spec: SimulationSpec, phases, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Homodyne samples of the true state: arrays of phases and quadrature values.

    Each sample picks a phase uniformly from ``phases`` and draws x by inverse
    CDF from p(x | theta) tabulated on a uniform grid (see ``_quadrature_grid``).
    Deterministic for a given seed.
    """
    phase_list = np.asarray(phases, dtype=np.float64).reshape(-1)
    if phase_list.size == 0:
        raise ValidationError("need at least one phase")
    if not np.all(np.isfinite(phase_list)):
        raise ValidationError("phases must be finite")
    check_int(dim, "dimension")
    if spec.state.shape[0] != dim:
        raise ValidationError("true state dimension does not match requested dim")

    grid = _quadrature_grid(spec.state)
    step = grid[1] - grid[0]
    rng = np.random.default_rng(spec.seed)
    phase_idx = rng.integers(0, phase_list.size, size=spec.count)
    uniforms = rng.random(spec.count)
    xs = np.empty(spec.count)
    for i, theta in enumerate(phase_list):
        density = quadrature_density_table(spec.state, float(theta), grid)
        increments = 0.5 * (density[1:] + density[:-1]) * step
        cdf = np.concatenate([[0.0], np.cumsum(increments)])
        mask = phase_idx == i
        xs[mask] = np.interp(uniforms[mask] * cdf[-1], cdf, grid)
    return phase_list[phase_idx], xs


def preset_state(name: str, dim: int) -> np.ndarray:
    """The pure state of ``PRESETS[name]``, normalized, in Fock space truncated at ``dim`` levels."""
    if name not in PRESETS:
        raise ValidationError(f"unknown preset state {name!r}")
    amplitudes = PRESETS[name]
    if check_int(dim, "dimension") < len(amplitudes):
        raise ValidationError(f"dimension {dim} is too small for preset {name!r}")
    vec = np.zeros(dim, dtype=np.complex128)
    vec[:len(amplitudes)] = amplitudes
    vec /= np.linalg.norm(vec)
    return np.outer(vec, vec.conj())
