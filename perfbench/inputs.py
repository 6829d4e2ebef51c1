"""Seeded benchmark inputs, generated with this directory's own code.

Nothing here imports qmaxlik: the homodyne samples come from a closed-form
marginal and a numpy inverse-CDF sampler, and the POVMs from a Ginibre
construction, so a change to ``qmaxlik.simulate`` cannot change the inputs.
Every file is written once per run and recorded with its SHA-256.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

HOMODYNE_PHASES = 12
_GRID = np.linspace(-7.0, 7.0, 8001)  # the superposition01 marginal is below 1e-19 outside


def superposition01(dim: int) -> np.ndarray:
    """Density matrix of (|0> + |1>)/sqrt(2) in a dim-level Fock truncation."""
    vec = np.zeros(dim, dtype=np.complex128)
    vec[0] = vec[1] = 1.0 / math.sqrt(2.0)
    return np.outer(vec, vec.conj())


def superposition01_marginal(x: np.ndarray, theta: float) -> np.ndarray:
    """p(x | theta) of (|0> + |1>)/sqrt(2) for x = (a + a^dag)/sqrt(2).

    With psi_1 = sqrt(2) x psi_0 and <n|x,theta> = exp(i n theta) psi_n(x),
    p = psi_0^2 (1 + 2 x^2 + 2 sqrt(2) x cos theta) / 2, which is non-negative
    and integrates to one.
    """
    psi0_sq = np.exp(-x * x) / math.sqrt(math.pi)
    return 0.5 * psi0_sq * (1.0 + 2.0 * x * x + 2.0 * math.sqrt(2.0) * x * math.cos(theta))


def sample_homodyne(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(thetas, xs): uniformly chosen phases in [0, pi), x drawn by inverse CDF."""
    phases = np.linspace(0.0, math.pi, HOMODYNE_PHASES, endpoint=False)
    phase_idx = rng.integers(0, HOMODYNE_PHASES, size=count)
    uniforms = rng.random(count)
    xs = np.empty(count)
    for i, theta in enumerate(phases):
        density = superposition01_marginal(_GRID, float(theta))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(_GRID))])
        mask = phase_idx == i
        xs[mask] = np.interp(uniforms[mask] * cdf[-1], cdf, _GRID)
    return phases[phase_idx], xs


def write_quadrature_csv(path: Path, thetas: np.ndarray, xs: np.ndarray) -> None:
    lines = ["theta,x"] + [f"{t!r},{x!r}" for t, x in zip(thetas.tolist(), xs.tolist())]
    path.write_text("\n".join(lines) + "\n")


def random_complete_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> np.ndarray:
    """Full-rank Ginibre elements G G^dag pushed through S^-1/2 so they sum to the identity."""
    g = rng.normal(size=(n_outcomes, dim, dim)) + 1j * rng.normal(size=(n_outcomes, dim, dim))
    mats = g @ g.conj().transpose(0, 2, 1)
    values, vectors = np.linalg.eigh(mats.sum(axis=0))
    s_inv_half = (vectors / np.sqrt(values)) @ vectors.conj().T
    elements = s_inv_half @ mats @ s_inv_half
    return 0.5 * (elements + elements.conj().transpose(0, 2, 1))


def counterexample() -> tuple[np.ndarray, np.ndarray]:
    """Qubit basis projectors seen (1, 2) times; the plain quadratic update cycles on it."""
    return np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(np.complex128), np.array([1.0, 2.0])


def write_counts_json(path: Path, elements: np.ndarray, counts: np.ndarray) -> None:
    records = [
        {"re": e.real.tolist(), "im": e.imag.tolist(), "count": float(c)}
        for e, c in zip(elements, counts)
    ]
    path.write_text(json.dumps({"dim": int(elements.shape[1]), "elements": records}) + "\n")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
