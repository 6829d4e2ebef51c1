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

For counted records whose elements do not sum to the identity, the update is
debiased with G = sum_j Pi_j by blending G^-1 R instead of R; the corresponding
objective is the likelihood renormalized by tr(G rho).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .dataset import PROBABILITY_FLOOR, GOperator, MeasurementRecord, QuadratureDataset
from .errors import ValidationError, check_int
from .operators import hermitize, normalize

CYCLE_ATOL = 1e-10

SLOPE_RESOLUTION = 1e-13  # a line-search slope within this fraction of its terms' size is rounding, taken as 0
NEWTON_STEPS = 60  # at most this many Newton or bisection steps per line search
QUADRATIC_EPSILON = 2.0**53  # a finite eps from here on is the quadratic step: 1/(1 + eps) is below double precision
MAX_RETRIES = 60  # finite eps values AdaptiveBackoff and RandomEpsilon try per step before a stall
RANDOM_EPSILON_MIN = 1e-4  # RandomEpsilon draws eps above this


# ---------------------------------------------------------------------------
# step-size strategies


class EpsilonStrategy:
    """A strategy is the candidates each step tries, and whether a trial must raise the objective.

    ``_trials(dataset, g)`` is called once per run and returns a function of
    the current state giving the evaluated candidates to try, in order (see
    ``_candidate``). Monotone strategies name a ``_stall_reason``, reported
    when no trial helps.
    """

    _stall_reason: ClassVar[str | None] = None

    def _stall_diagnostics(self, tried: list[float], best_delta: float) -> dict:
        return {"reason": self._stall_reason, "trials": len(tried), "best_delta": best_delta}


@dataclass(frozen=True)
class FixedEpsilon(EpsilonStrategy):
    """Diluted update with the same eps at every step; eps = inf is the plain quadratic update (no guarantee)."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive")

    def _trials(self, dataset, g):
        return lambda state: (_trial(state, dataset, g, self.epsilon),)


@dataclass(frozen=True)
class AdaptiveBackoff(EpsilonStrategy):
    """Try the quadratic update first; on a likelihood non-increase retry with
    eps = 1, 1/2, 1/4, ... (MAX_RETRIES values) until some step raises the likelihood."""

    _stall_reason = "no step-size trial increased the likelihood"

    def _trials(self, dataset, g):
        epsilons = [math.inf] + [0.5**k for k in range(MAX_RETRIES)]
        return lambda state: (_trial(state, dataset, g, eps) for eps in epsilons)

    def _stall_diagnostics(self, tried: list[float], best_delta: float) -> dict:
        return {**super()._stall_diagnostics(tried, best_delta), "smallest_epsilon": tried[-1]}


@dataclass(frozen=True)
class LineSearchEpsilon(EpsilonStrategy):
    """Maximize the actual likelihood gain over eps at every step (see ``choose_epsilon_line_search``)."""

    def _trials(self, dataset, g):
        return lambda state: (choose_epsilon_line_search(state.rho, dataset, g, state=state)[0],)


@dataclass(frozen=True)
class RandomEpsilon(EpsilonStrategy):
    """Draw eps log-uniformly from (RANDOM_EPSILON_MIN, epsilon_max], redrawing until the
    likelihood increases (up to MAX_RETRIES attempts per step)."""

    epsilon_max: float = 10.0
    seed: int = 0

    _stall_reason = "no random step size increased the likelihood"

    def __post_init__(self):
        if not self.epsilon_max > RANDOM_EPSILON_MIN:
            raise ValidationError("epsilon_max must exceed the 1e-4 lower sampling bound")
        if math.isinf(self.epsilon_max):
            raise ValidationError("epsilon_max must be finite")
        check_int(self.seed, "seed", minimum=0)

    def _trials(self, dataset, g):
        rng = np.random.default_rng(self.seed)  # one stream per run, drawn only as trials are tried

        def draws(state):
            for _ in range(MAX_RETRIES):
                eps = math.exp(rng.uniform(math.log(RANDOM_EPSILON_MIN), math.log(self.epsilon_max)))
                yield _trial(state, dataset, g, eps)

        return draws


class Termination(enum.Enum):
    RESIDUAL_MET = "residual_met"
    ELEMENT_CHANGE_MET = "element_change_met"
    LIKELIHOOD_STALLED = "likelihood_stalled"
    MAX_ITERATIONS = "max_iterations"
    CYCLE_DETECTED = "cycle_detected"


CONVERGED = (Termination.RESIDUAL_MET, Termination.ELEMENT_CHANGE_MET)  # the stops on which the CLI exits 0


@dataclass(frozen=True)
class ReconstructionConfig:
    strategy: EpsilonStrategy = field(default_factory=AdaptiveBackoff)
    tol_residual: float = 1e-8
    tol_element: float = 1e-10
    tol_loglik: float = 1e-13
    max_iterations: int = 5000
    g_correction: bool = False

    def __post_init__(self):
        if not all(0 < tol < math.inf for tol in (self.tol_residual, self.tol_element, self.tol_loglik)):
            raise ValidationError("stopping tolerances must be positive and finite")
        check_int(self.max_iterations, "max_iterations")


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


def outcome_probabilities(rho, dataset: MeasurementRecord) -> np.ndarray:
    """Per-outcome probabilities tr(Pi_j rho), raised to at least PROBABILITY_FLOOR."""
    rho = _check_dims(rho, dataset)
    return np.maximum(dataset.traces(rho), PROBABILITY_FLOOR)


def log_likelihood(rho, dataset: MeasurementRecord) -> float:
    """sum_j f_j log pr_j with floored probabilities."""
    return float(dataset.counts @ np.log(outcome_probabilities(rho, dataset)))


def r_operator(rho, dataset: MeasurementRecord) -> np.ndarray:
    """(1/N) sum_j (f_j / pr_j) Pi_j for the current state; Hermitian PSD."""
    return hermitize(dataset.likelihood_terms(_check_dims(rho, dataset))[2])


def _apply_map(rho: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """normalize(M rho M^dag) with M = (1 + eps*b)/(1 + eps), or M = b at eps >= QUADRATIC_EPSILON."""
    m = b if eps >= QUADRATIC_EPSILON else (np.eye(b.shape[0]) + eps * b) / (1.0 + eps)
    return normalize(hermitize(m @ rho @ m.conj().T))


def diluted_step(rho, dataset: MeasurementRecord, eps: float, g: GOperator | None = None) -> np.ndarray:
    """One diluted update normalize(M rho M^dag), M = (1 + eps R)/(1 + eps).

    eps = inf is the plain quadratic update normalize(R rho R). Given ``g``,
    the step is the debiased update blending G^-1 R with the identity instead
    of R; at eps = inf this is normalize(G^-1 R rho R G^-1). The debiased
    maximum-likelihood state is a fixed point for every eps, and G = identity
    reduces the map to the uncorrected one exactly.
    """
    if not eps > 0:
        raise ValidationError("eps must be positive")
    rho = _check_dims(rho, dataset)
    return _apply_map(rho, _direction(r_operator(rho, dataset), g), eps)


def _direction(r: np.ndarray, g: GOperator | None) -> np.ndarray:
    """The operator B the map blends with the identity: R, or G^-1 R with G-correction."""
    return r if g is None else g.inverse @ r


def _residual(rho: np.ndarray, r: np.ndarray, g: GOperator | None) -> float:
    """Frobenius norm of R rho - rho, or with G-correction of tr(G rho) G^-1 R rho - rho."""
    if g is None:
        return float(np.linalg.norm(r @ rho - rho))
    tau = (g.matrix @ rho).trace().real
    return float(np.linalg.norm(tau * (g.inverse @ (r @ rho)) - rho))


def likelihood_gain_first_order(rho, dataset: MeasurementRecord, eps: float) -> float:
    """First-order likelihood gain 2*eps*(tr(R rho R) - 1) of a diluted step.

    Non-negative for every state by the Cauchy-Schwarz inequality, and zero
    exactly at the maximum-likelihood state. The value is the derivative of
    the per-measurement log-likelihood; for a record with total weight N the
    raw log-likelihood changes N times faster.
    """
    rho = _check_dims(rho, dataset)
    r = r_operator(rho, dataset)
    return 2.0 * eps * float((r @ rho @ r).trace().real - 1.0)


# ---------------------------------------------------------------------------
# exact gain profile along the step, in t = eps/(c + eps)


class _GainProfile:
    """The objective of a diluted step, and the step itself, as exact functions of t in [0, 1].

    M = 1 + t (cB - 1) is 1 + eps B up to a factor at eps = c t/(1 - t). The
    unnormalized candidate rho + t T1 + t^2 T2 is quadratic in t, and so are
    every outcome trace q_j(t) and the normalizer gamma(t) (the trace, or
    tr(G .) with G-correction). F(t) = sum_j f_j log q_j(t) - N log gamma(t)
    has derivatives rational in the stored coefficients, which need no log.
    c = 1/sqrt(tr(B rho B^dag)) makes the trace 1 at t = 0 and at t = 1. Records
    whose G^-1 R is small in scale, such as counted records with many complete
    settings, need it: with c = 1 the coefficients cancel at t = 1, where the
    trace is far below its terms, and traces read off the profile lose digits.
    """

    def __init__(self, state: _Step, dataset: MeasurementRecord, g: GOperator | None):
        scale = np.vdot(state.b, state.b @ state.rho).real
        if not scale > 0.0:  # B rho B^dag = 0: rho gives every counted outcome probability 0
            raise ValidationError(f"no line search from this state: tr(B rho B^dag) = {scale:.3e} is not positive")
        self.c = 1.0 / math.sqrt(scale)
        d = self.c * state.b - np.eye(dataset.dim)
        dr = d @ state.rho
        t1, t2 = dr + dr.conj().T, dr @ d.conj().T
        self._counts, self._total = dataset.counts, dataset.total
        self._rho, self._t1, self._t2, self._dataset, self._g = state.rho, t1, t2, dataset, g
        self._q = np.stack([state.traces, dataset.traces(t1), dataset.traces(t2)])
        self._s = np.array([1.0, t1.trace().real, t2.trace().real])
        self._gamma = self._s if g is None else np.array([(g.matrix @ m).trace().real for m in (state.rho, t1, t2)])

    def derivatives(self, t: float) -> tuple[float, float]:
        """F'(t), or 0 where it is within SLOPE_RESOLUTION of its terms' size, and F''(t)."""
        powers, slopes = np.array([1.0, t, t * t]), np.array([0.0, 1.0, 2.0 * t])
        q = np.maximum(powers @ self._q, PROBABILITY_FLOOR * (powers @ self._s))
        ratio = (slopes @ self._q) / q
        dgamma = (slopes @ self._gamma) / (powers @ self._gamma)
        first = float(self._counts @ ratio) - self._total * dgamma
        if abs(first) <= SLOPE_RESOLUTION * (float(self._counts @ np.abs(ratio)) + self._total * abs(dgamma)):
            first = 0.0
        second = float(self._counts @ (2.0 * self._q[2] / q - ratio * ratio))
        return first, second - self._total * (2.0 * self._gamma[2] / (powers @ self._gamma) - dgamma**2)

    def candidate(self, t: float) -> tuple:
        """The step at t as a ``_candidate`` with traces read off the profile and no R; t = 0 gives rho bit for bit."""
        powers = np.array([1.0, t, t * t])
        scale = float(powers @ self._s)
        rho = hermitize(self._rho + t * self._t1 + (t * t) * self._t2) / scale
        eps = math.inf if t == 1.0 else self.c * t / (1.0 - t)
        traces = (powers @ self._q) / scale
        return _candidate(eps, rho, (traces, np.maximum(traces, PROBABILITY_FLOOR), None), self._dataset, self._g)


def choose_epsilon_line_search(
    rho, dataset: MeasurementRecord, g: GOperator | None = None, *, state: _Step | None = None
) -> tuple[tuple, float]:
    """The step maximizing the actual likelihood gain, as a ``_candidate`` tuple (eps first), and that gain.

    The search maximizes the exact gain profile F (see ``_GainProfile``) over
    t in [0, 1]. It takes t = 1, the quadratic step, where F still rises;
    otherwise Newton steps on F' run inside a bracket with F'(lo) >= 0 >
    F'(hi), and a step that leaves it, or where F'' >= 0, is replaced by the
    midpoint. F need not be concave, so t is halved while the gain is
    negative; as F rises from t = 0, the gain is never negative. The
    reconstruction loop passes its current ``state`` (rho with its traces, R,
    direction and objective) so they are not computed again.
    """
    if state is None:  # hermitized, as every iterate is, so that the candidate at t = 0 is rho bit for bit
        state = _step_at(hermitize(_check_dims(rho, dataset)), dataset, g)
    profile = _GainProfile(state, dataset, g)
    lo, hi, t = 0.0, 1.0, 1.0
    for _ in range(NEWTON_STEPS):
        first, second = profile.derivatives(t)
        if first == 0.0 or first > 0.0 and t == 1.0:
            break
        lo, hi = (t, hi) if first > 0.0 else (lo, t)
        step = t - first / second if second < 0.0 else math.nan
        t = step if lo < step < hi else 0.5 * (lo + hi)
    while (gain := (candidate := profile.candidate(t))[-1] - state.objective) < 0.0:
        t *= 0.5
    r = hermitize(dataset.weighted_sum(dataset.counts / (dataset.total * candidate[3])))  # for this candidate only
    return (*candidate[:4], r, candidate[5]), gain


# ---------------------------------------------------------------------------
# the reconstruction loop


def _candidate(eps: float, rho: np.ndarray, terms: tuple, dataset: MeasurementRecord, g: GOperator | None):
    """(eps, rho, traces, probs, R, objective); objective sum_j f_j log probs_j, less N log tr(G rho) given G."""
    traces, probs, r = terms
    r = None if r is None else hermitize(r)
    objective = float(dataset.counts @ np.log(probs))
    if g is not None:
        objective -= dataset.total * math.log((g.matrix @ rho).trace().real)
    return eps, rho, traces, probs, r, objective


def _trial(state: _Step, dataset: MeasurementRecord, g: GOperator | None, eps: float) -> tuple:
    """The evaluated candidate of the map at eps from ``state``, with its R."""
    rho = _apply_map(state.rho, state.b, eps)
    return _candidate(eps, rho, dataset.likelihood_terms(rho), dataset, g)


class _Step(NamedTuple):
    """An iterate with the quantities the next step and the stopping rules need."""

    rho: np.ndarray
    traces: np.ndarray  # tr(Pi_k rho), before the probability floor
    r: np.ndarray
    b: np.ndarray  # the direction the map blends with the identity, see _direction
    objective: float
    eps: float = math.nan  # the step size that produced rho
    change: float = math.inf  # max |rho - previous iterate|
    cycled: bool = False  # rho repeats the iterate two steps back
    stall: dict | None = None  # set when no trial was accepted; rho is then unchanged


def _step_at(rho: np.ndarray, dataset: MeasurementRecord, g: GOperator | None) -> _Step:
    """The state rho with its traces, R, direction and objective."""
    *_, traces, _, r, objective = _candidate(math.nan, rho, dataset.likelihood_terms(rho), dataset, g)
    return _Step(rho, traces, r, _direction(r, g), objective)


def _iterate(dataset: MeasurementRecord, strategy: EpsilonStrategy, g: GOperator | None, max_iterations: int):
    """Yield the maximally mixed state, then up to max_iterations accepted iterates.

    An outcome with a positive count whose element is zero (trace 0 at the
    maximally mixed state) has probability 0 under every state, and is refused.
    Each step takes the strategy's candidates in order and accepts the first;
    a monotone strategy accepts only a candidate that raises the objective.
    When it accepts none, the last step yielded repeats the current state with
    the stall diagnostics.
    """
    if not isinstance(strategy, EpsilonStrategy):
        raise ValidationError(f"unknown step-size strategy {strategy!r}")
    trials = strategy._trials(dataset, g)
    state = _step_at(np.eye(dataset.dim, dtype=np.complex128) / dataset.dim, dataset, g)
    if (impossible := np.flatnonzero((dataset.counts > 0.0) & (state.traces <= 0.0))).size:
        raise ValidationError(f"outcome {impossible[0]} has a positive count but a zero element: "
                              "it has probability 0 under every state")
    yield state
    previous = None  # the iterate before state, for cycle detection
    for _ in range(max_iterations):
        tried, best_delta = [], -math.inf
        for eps, candidate, traces, _, r, objective in trials(state):
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
        state = _Step(candidate, traces, r, _direction(r, g), objective, eps, change, cycled)
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
    if config.g_correction and isinstance(dataset, QuadratureDataset):
        raise ValidationError("G-correction is for counted records: a homodyne record is already normalized")
    g = GOperator.from_dataset(dataset) if config.g_correction else None
    loglik_trace: list[float] = []
    eps_trace: list[float] = []
    termination = Termination.MAX_ITERATIONS
    diagnostics: dict = {}

    for state in _iterate(dataset, config.strategy, g, config.max_iterations):
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
