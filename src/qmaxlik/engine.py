"""Likelihood functional, fixed-point updates, step-size strategies, and the reconstruction loop.

The estimate is driven by the state-dependent operator

    R(rho) = (1/N) sum_j (f_j / pr_j) Pi_j,      pr_j = tr(Pi_j rho),

whose fixed point R rho = rho characterizes the maximum-likelihood state.
The quadratic update rho <- N[R rho R] is fast but can overshoot (it cycles
with period two on some records); blending R with the identity,

    rho <- N[ M rho M ],   M = (1 + eps R) / (1 + eps),

trades speed for a guaranteed likelihood increase at small eps and recovers
the quadratic update as eps -> infinity. Several strategies for picking eps
per step are provided; all of them report the exact log-likelihood trace.

For datasets whose elements do not sum to the identity, the update is debiased
with G = sum_j Pi_j by blending G^-1 R instead of R; the corresponding
objective is the likelihood renormalized by tr(G rho).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .dataset import GOperator, MeasurementRecord
from .errors import ValidationError
from .operators import hermitize, normalize

DEFAULT_PROBABILITY_FLOOR = 1e-12
CYCLE_ATOL = 1e-10

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# step-size strategies


class _Strategy:
    """A strategy is the eps values each step tries, and whether a trial must raise the objective.

    ``_trial_epsilons()`` is called once per run and returns a function of the
    current (state, dataset, floor, g) giving the eps values to try, in order.
    Monotone strategies name a ``_stall_reason``, reported when no trial helps.
    """

    _stall_reason: ClassVar[str | None] = None

    def _stall_diagnostics(self, tried: list[float], best_delta: float) -> dict:
        return {"reason": self._stall_reason, "trials": len(tried), "best_delta": best_delta}


@dataclass(frozen=True)
class InfiniteRhoR(_Strategy):
    """Plain quadratic update every step; fastest, but monotonicity is not guaranteed."""

    def _trial_epsilons(self):
        return lambda state, dataset, floor, g: (math.inf,)


@dataclass(frozen=True)
class FixedEpsilon(_Strategy):
    """Diluted update with the same eps at every step."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive")

    def _trial_epsilons(self):
        return lambda state, dataset, floor, g: (self.epsilon,)


@dataclass(frozen=True)
class AdaptiveBackoff(_Strategy):
    """Try the quadratic update first; on a likelihood non-increase retry with
    eps = epsilon0, epsilon0*shrink, ... until some step raises the likelihood."""

    epsilon0: float = 1.0
    shrink: float = 0.5
    max_retries: int = 60

    _stall_reason = "no step-size trial increased the likelihood"

    def __post_init__(self):
        if not self.epsilon0 > 0:
            raise ValidationError("epsilon0 must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValidationError("shrink factor must lie strictly in (0, 1)")
        if self.max_retries < 1:
            raise ValidationError("max_retries must be at least 1")

    def _trial_epsilons(self):
        trials = [math.inf] + [self.epsilon0 * self.shrink**k for k in range(self.max_retries)]
        return lambda state, dataset, floor, g: trials

    def _stall_diagnostics(self, tried: list[float], best_delta: float) -> dict:
        return {**super()._stall_diagnostics(tried, best_delta), "smallest_epsilon": tried[-1]}


@dataclass(frozen=True)
class LineSearchEpsilon(_Strategy):
    """Maximize the actual likelihood gain over eps at every step.

    A logarithmic grid scan over [grid_lo, grid_hi] followed by golden-section
    refinement around the best grid point.
    """

    grid_lo: float = 1e-3
    grid_hi: float = 1e3
    grid_points: int = 25
    refinements: int = 20

    def __post_init__(self):
        if not 0 < self.grid_lo < self.grid_hi:
            raise ValidationError("need 0 < grid_lo < grid_hi")
        if self.grid_points < 2 or self.refinements < 0:
            raise ValidationError("grid_points must be >= 2 and refinements >= 0")

    def _trial_epsilons(self):
        return lambda state, dataset, floor, g: (
            choose_epsilon_line_search(state.rho, dataset, self, floor, g, state=state)[0],)


@dataclass(frozen=True)
class RandomEpsilon(_Strategy):
    """Draw eps log-uniformly from (1e-4, epsilon_max], redrawing until the
    likelihood increases (up to max_retries attempts per step)."""

    epsilon_max: float = 10.0
    max_retries: int = 60
    seed: int = 0

    _stall_reason = "no random step size increased the likelihood"

    def __post_init__(self):
        if not self.epsilon_max > 1e-4:
            raise ValidationError("epsilon_max must exceed the 1e-4 lower sampling bound")
        if self.max_retries < 1:
            raise ValidationError("max_retries must be at least 1")

    def _trial_epsilons(self):
        rng = np.random.default_rng(self.seed)  # one stream per run, drawn only as trials are tried

        def draws(state, dataset, floor, g):
            for _ in range(self.max_retries):
                yield math.exp(rng.uniform(math.log(1e-4), math.log(self.epsilon_max)))

        return draws


EpsilonStrategy = Union[InfiniteRhoR, FixedEpsilon, AdaptiveBackoff, LineSearchEpsilon, RandomEpsilon]


class Termination(enum.Enum):
    RESIDUAL_MET = "residual_met"
    ELEMENT_CHANGE_MET = "element_change_met"
    LIKELIHOOD_STALLED = "likelihood_stalled"
    MAX_ITERATIONS = "max_iterations"
    CYCLE_DETECTED = "cycle_detected"


@dataclass(frozen=True)
class ReconstructionConfig:
    strategy: EpsilonStrategy = field(default_factory=AdaptiveBackoff)
    tol_residual: float = 1e-8
    tol_element: float = 1e-10
    tol_loglik: float = 1e-13
    max_iterations: int = 5000
    g_correction: bool = False
    probability_floor: float = DEFAULT_PROBABILITY_FLOOR

    def __post_init__(self):
        if not (self.tol_residual > 0 and self.tol_element > 0 and self.tol_loglik > 0):
            raise ValidationError("stopping tolerances must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if not self.probability_floor > 0:
            raise ValidationError("probability floor must be positive")


@dataclass(frozen=True)
class ReconstructionResult:
    """Final estimate plus the per-iteration record of a reconstruction run.

    ``log_likelihood_trace[k]`` is the objective of iterate k (entry 0 is the
    initial state); with G-correction active the objective is the
    tr(G rho)-renormalized log-likelihood, otherwise the plain one.
    ``epsilon_trace[k]`` is the step size accepted at iteration k+1
    (math.inf marks a plain quadratic step).
    """

    estimate: np.ndarray
    log_likelihood_trace: np.ndarray
    epsilon_trace: np.ndarray
    final_residual: float
    iterations: int
    termination: Termination
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# elementary operations


def _check_dims(rho: np.ndarray, dataset: MeasurementRecord) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (dataset.dim, dataset.dim):
        raise ValidationError(f"state shape {rho.shape} does not match dataset dim {dataset.dim}")
    return rho


def outcome_probabilities(rho, dataset: MeasurementRecord, floor: float = DEFAULT_PROBABILITY_FLOOR) -> np.ndarray:
    """Per-outcome probabilities tr(Pi_j rho), floored away from zero."""
    rho = _check_dims(rho, dataset)
    return np.maximum(dataset.traces(rho), floor)


def log_likelihood(rho, dataset: MeasurementRecord, floor: float = DEFAULT_PROBABILITY_FLOOR) -> float:
    """sum_j f_j log pr_j with floored probabilities."""
    pr = outcome_probabilities(rho, dataset, floor)
    return float(dataset.counts @ np.log(pr))


def r_operator(rho, dataset: MeasurementRecord, floor: float = DEFAULT_PROBABILITY_FLOOR) -> np.ndarray:
    """(1/N) sum_j (f_j / pr_j) Pi_j for the current state; Hermitian PSD."""
    rho = _check_dims(rho, dataset)
    return _r_from_probs(dataset, outcome_probabilities(rho, dataset, floor))


def _r_from_probs(dataset: MeasurementRecord, probs: np.ndarray) -> np.ndarray:
    return hermitize(dataset.weighted_sum(dataset.counts / (dataset.total * probs)))


def _apply_map(rho: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """normalize(M rho M^dag) with M = (1 + eps*b)/(1 + eps), or M = b at eps = inf."""
    if math.isinf(eps):
        m = b
    else:
        m = (np.eye(b.shape[0]) + eps * b) / (1.0 + eps)
    return normalize(hermitize(m @ rho @ m.conj().T))


def rhor_step(rho, dataset: MeasurementRecord, floor: float = DEFAULT_PROBABILITY_FLOOR) -> np.ndarray:
    """One plain quadratic update: normalize(R rho R)."""
    rho = _check_dims(rho, dataset)
    return _apply_map(rho, r_operator(rho, dataset, floor), math.inf)


def diluted_step(rho, dataset: MeasurementRecord, eps: float, floor: float = DEFAULT_PROBABILITY_FLOOR) -> np.ndarray:
    """One diluted update with blending weight ``eps`` (eps = inf reproduces rhor_step)."""
    if not eps > 0:
        raise ValidationError("eps must be positive")
    rho = _check_dims(rho, dataset)
    return _apply_map(rho, r_operator(rho, dataset, floor), eps)


def g_corrected_step(
    rho,
    dataset: MeasurementRecord,
    g: GOperator,
    eps: float,
    floor: float = DEFAULT_PROBABILITY_FLOOR,
) -> np.ndarray:
    """One debiased update blending G^-1 R with the identity.

    normalize(M rho M^dag) with M = (1 + eps G^-1 R)/(1 + eps); at eps = inf
    this is normalize(G^-1 R rho R G^-1). The debiased maximum-likelihood
    state is a fixed point for every eps, and G = identity reduces the map to
    ``diluted_step`` exactly.
    """
    if not eps > 0:
        raise ValidationError("eps must be positive")
    rho = _check_dims(rho, dataset)
    b = g.inverse @ r_operator(rho, dataset, floor)
    return _apply_map(rho, b, eps)


def extremal_residual(rho, dataset: MeasurementRecord, floor: float = DEFAULT_PROBABILITY_FLOOR) -> float:
    """Frobenius norm of R rho - rho; zero exactly at the maximum-likelihood state."""
    rho = _check_dims(rho, dataset)
    return _residual(rho, r_operator(rho, dataset, floor), None)


def _residual(rho: np.ndarray, r: np.ndarray, g: GOperator | None) -> float:
    """Frobenius norm of R rho - rho, or with G-correction of tr(G rho) G^-1 R rho - rho."""
    if g is None:
        return float(np.linalg.norm(r @ rho - rho))
    tau = (g.matrix @ rho).trace().real
    return float(np.linalg.norm(tau * (g.inverse @ (r @ rho)) - rho))


def likelihood_gain_first_order(
    rho, dataset: MeasurementRecord, eps: float, floor: float = DEFAULT_PROBABILITY_FLOOR
) -> float:
    """First-order likelihood gain 2*eps*(tr(R rho R) - 1) of a diluted step.

    Non-negative for every state by the Cauchy-Schwarz inequality, and zero
    exactly at the maximum-likelihood state. The value is the derivative of
    the per-measurement log-likelihood; for a record with total weight N the
    raw log-likelihood changes N times faster.
    """
    rho = _check_dims(rho, dataset)
    r = r_operator(rho, dataset, floor)
    return 2.0 * eps * float((r @ rho @ r).trace().real - 1.0)


# ---------------------------------------------------------------------------
# exact gain profile along the eps direction


class _GainProfile:
    """Exact likelihood gain of a diluted step as a cheap function of eps.

    The unnormalized candidate (1 + eps B) rho (1 + eps B^dag) is quadratic in
    eps, so every per-outcome trace is a quadratic polynomial; evaluating the
    gain at a new eps costs O(n_outcomes) instead of a fresh matrix sandwich.
    """

    def __init__(self, state: _Step, dataset: MeasurementRecord, floor: float, g: GOperator | None):
        self.dataset = dataset
        self.floor = floor
        rho = state.rho
        b = state.r if g is None else g.inverse @ state.r
        t1 = b @ rho + rho @ b.conj().T
        t2 = b @ rho @ b.conj().T
        self._p0 = state.traces
        self._p1 = dataset.traces(t1)
        self._p2 = dataset.traces(t2)
        self._s = np.array([1.0, t1.trace().real, t2.trace().real])
        self._gamma = None if g is None else np.array([(g.matrix @ m).trace().real for m in (rho, t1, t2)])
        self._base = state.objective

    def __call__(self, eps: float) -> float:
        coeff = np.array([1.0, eps, eps * eps])
        scale = float(self._s @ coeff)
        pr = np.maximum((self._p0 + eps * self._p1 + eps * eps * self._p2) / scale, self.floor)
        value = float(self.dataset.counts @ np.log(pr))
        if self._gamma is not None:
            value -= self.dataset.total * math.log(float(self._gamma @ coeff) / scale)
        return value - self._base


def choose_epsilon_line_search(
    rho,
    dataset: MeasurementRecord,
    params: LineSearchEpsilon = LineSearchEpsilon(),
    floor: float = DEFAULT_PROBABILITY_FLOOR,
    g: GOperator | None = None,
    *,
    state: _Step | None = None,
) -> tuple[float, float]:
    """Step size maximizing the actual likelihood gain, and that gain.

    Scans a logarithmic grid over [grid_lo, grid_hi], then refines around the
    best grid point by golden section in log(eps). Away from the maximum the
    returned gain is positive; at the maximum it collapses to zero (up to
    roundoff), which callers treat as a stall. The reconstruction loop passes
    its current ``state`` (rho with its traces, R and objective) so they are
    not computed again.
    """
    if state is None:
        state = _step_at(_check_dims(rho, dataset), dataset, floor, g)
    gain = _GainProfile(state, dataset, floor, g)
    grid = np.geomspace(params.grid_lo, params.grid_hi, params.grid_points)
    values = [gain(float(e)) for e in grid]
    best = int(np.argmax(values))
    best_eps, best_gain = float(grid[best]), float(values[best])

    if params.refinements > 0:
        lo = math.log(grid[max(best - 1, 0)])
        hi = math.log(grid[min(best + 1, len(grid) - 1)])
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = gain(math.exp(x1)), gain(math.exp(x2))
        for _ in range(params.refinements):
            if f1 >= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = gain(math.exp(x1))
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = gain(math.exp(x2))
            x, f = (x1, f1) if f1 >= f2 else (x2, f2)
            if f > best_gain:
                best_eps, best_gain = math.exp(x), f
    return best_eps, best_gain


# ---------------------------------------------------------------------------
# the reconstruction loop


def _objective_from_probs(
    probs: np.ndarray, candidate: np.ndarray, dataset: MeasurementRecord, g: GOperator | None
) -> float:
    value = float(dataset.counts @ np.log(probs))
    if g is not None:
        value -= dataset.total * math.log((g.matrix @ candidate).trace().real)
    return value


class _Step(NamedTuple):
    """An iterate with the quantities the next step and the stopping rules need."""

    rho: np.ndarray
    traces: np.ndarray  # tr(Pi_k rho), before the probability floor
    r: np.ndarray
    objective: float
    eps: float = math.nan  # the step size that produced rho
    change: float = math.inf  # max |rho - previous iterate|
    cycled: bool = False  # rho repeats the iterate two steps back
    stall: dict | None = None  # set when no trial was accepted; rho is then unchanged


def _step_at(rho: np.ndarray, dataset: MeasurementRecord, floor: float, g: GOperator | None) -> _Step:
    """The state rho with its traces, R and objective."""
    traces = dataset.traces(rho)
    probs = np.maximum(traces, floor)
    return _Step(rho, traces, _r_from_probs(dataset, probs), _objective_from_probs(probs, rho, dataset, g))


def _iterate(
    dataset: MeasurementRecord, strategy: EpsilonStrategy, floor: float, g: GOperator | None, max_iterations: int
):
    """Yield the maximally mixed state, then up to max_iterations accepted iterates.

    Each step applies the map for the strategy's eps values in order and
    accepts the first candidate; a monotone strategy accepts only a candidate
    that raises the objective. When it accepts none, the last step yielded
    repeats the current state with the stall diagnostics.
    """
    if not hasattr(strategy, "_trial_epsilons"):
        raise ValidationError(f"unknown step-size strategy {strategy!r}")
    trial_epsilons = strategy._trial_epsilons()
    state = _step_at(np.eye(dataset.dim, dtype=np.complex128) / dataset.dim, dataset, floor, g)
    yield state
    previous = None  # the iterate before state, for cycle detection
    for _ in range(max_iterations):
        b = state.r if g is None else g.inverse @ state.r
        tried, best_delta = [], -math.inf
        for eps in trial_epsilons(state, dataset, floor, g):
            candidate = _apply_map(state.rho, b, eps)
            traces = dataset.traces(candidate)
            probs = np.maximum(traces, floor)
            objective = _objective_from_probs(probs, candidate, dataset, g)
            tried.append(eps)
            best_delta = max(best_delta, objective - state.objective)
            if strategy._stall_reason is None or objective > state.objective:
                break
        else:
            yield state._replace(stall=strategy._stall_diagnostics(tried, best_delta))
            return
        change = float(np.max(np.abs(candidate - state.rho)))
        cycled = previous is not None and change > CYCLE_ATOL and (
            float(np.max(np.abs(candidate - previous))) <= CYCLE_ATOL)
        previous = state.rho
        state = _Step(candidate, traces, _r_from_probs(dataset, probs), objective, eps, change, cycled)
        yield state


def reconstruct(
    dataset: MeasurementRecord, config: ReconstructionConfig = ReconstructionConfig()
) -> ReconstructionResult:
    """Run the iterative reconstruction from the maximally mixed state.

    The initial state 1/dim gives every outcome a nonzero probability. Each
    iteration proposes a candidate according to the configured step-size
    strategy, records the exact objective value, and stops on the first of:
    stationarity residual below tol_residual, elementwise state change below
    tol_element, objective change below tol_loglik, a detected period-two
    cycle, or the iteration cap.
    """
    g = GOperator.from_dataset(dataset) if config.g_correction else None
    loglik_trace: list[float] = []
    eps_trace: list[float] = []
    termination = Termination.MAX_ITERATIONS
    diagnostics: dict = {}

    for state in _iterate(dataset, config.strategy, config.probability_floor, g, config.max_iterations):
        if state.stall is not None:
            termination, diagnostics = Termination.LIKELIHOOD_STALLED, state.stall
            break
        residual = _residual(state.rho, state.r, g)
        loglik_trace.append(state.objective)
        if len(loglik_trace) == 1:
            continue  # the starting state
        eps_trace.append(state.eps)
        if residual <= config.tol_residual:
            termination = Termination.RESIDUAL_MET
        elif state.change <= config.tol_element:
            termination = Termination.ELEMENT_CHANGE_MET
        elif abs(loglik_trace[-1] - loglik_trace[-2]) <= config.tol_loglik:
            termination = Termination.LIKELIHOOD_STALLED
        elif state.cycled:
            termination = Termination.CYCLE_DETECTED
            diagnostics = {"reason": "iterates repeat with period two", "cycle_gap": state.change}
        if termination is not Termination.MAX_ITERATIONS:
            break

    return ReconstructionResult(
        estimate=state.rho,
        log_likelihood_trace=np.asarray(loglik_trace),
        epsilon_trace=np.asarray(eps_trace),
        final_residual=residual,
        iterations=len(eps_trace),
        termination=termination,
        diagnostics=diagnostics,
    )
