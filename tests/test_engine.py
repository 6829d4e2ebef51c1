import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxlik import (
    AdaptiveBackoff,
    Dataset,
    FixedEpsilon,
    GOperator,
    LineSearchEpsilon,
    RandomEpsilon,
    ReconstructionConfig,
    Termination,
    ValidationError,
    choose_epsilon_line_search,
    counterexample_dataset,
    dataset,
    diluted_step,
    engine,
    likelihood_gain_first_order,
    log_likelihood,
    outcome_probabilities,
    quadrature_dataset,
    r_operator,
    reconstruct,
    sweep_iteration_counts,
    validate_density,
)
from qmaxlik.errors import check_positive
from support import (
    phase_layouts,
    quadrature_record,
    random_dataset,
    random_density,
    random_instance,
    random_pure_state,
)

UNIFORM = np.eye(2, dtype=complex) / 2
MLE = np.diag([1 / 3, 2 / 3]).astype(complex)
STEP1 = np.diag([1 / 5, 4 / 5]).astype(complex)

# log-likelihoods of the three-count qubit record, from the definition directly
LOGLIK_UNIFORM = 3 * math.log(1 / 2)
LOGLIK_MLE = math.log(1 / 3) + 2 * math.log(2 / 3)
LOGLIK_STEP1 = math.log(1 / 5) + 2 * math.log(4 / 5)


@pytest.fixture
def qubit_record():
    return counterexample_dataset()


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("call", [log_likelihood, r_operator, outcome_probabilities, engine.certified_gap])
def test_public_calls_refuse_a_non_finite_state(qubit_record, call, value):
    rho = UNIFORM.copy()
    rho[0, 1] = value
    with pytest.raises(ValidationError, match="non-finite entries"):
        call(rho, qubit_record)


class TestOutcomeProbabilities:
    def test_uniform_state(self, qubit_record):
        np.testing.assert_allclose(outcome_probabilities(UNIFORM, qubit_record), [0.5, 0.5])

    def test_first_iterate(self, qubit_record):
        np.testing.assert_allclose(outcome_probabilities(STEP1, qubit_record), [0.2, 0.8])

    def test_zero_overlap_clamped(self, qubit_record):
        pure = np.diag([1.0, 0.0]).astype(complex)
        probs = outcome_probabilities(pure, qubit_record)
        assert probs[1] == 1e-12

    def test_dimension_mismatch(self, qubit_record):
        with pytest.raises(ValidationError):
            outcome_probabilities(np.eye(3) / 3, qubit_record)

    def test_floor_is_the_records_floor(self):
        assert engine.PROBABILITY_FLOOR is dataset.PROBABILITY_FLOOR == 1e-12


class TestLogLikelihood:
    def test_uniform(self, qubit_record):
        assert log_likelihood(UNIFORM, qubit_record) == pytest.approx(LOGLIK_UNIFORM, abs=1e-14)

    def test_maximum(self, qubit_record):
        assert log_likelihood(MLE, qubit_record) == pytest.approx(LOGLIK_MLE, abs=1e-14)

    def test_overshoot_state(self, qubit_record):
        assert log_likelihood(STEP1, qubit_record) == pytest.approx(LOGLIK_STEP1, abs=1e-14)

    def test_mle_maximizes_over_diagonal_grid(self, qubit_record):
        # brute-force oracle: L(p) = log p + 2 log(1-p) peaks at p = 1/3
        ps = np.linspace(0.01, 0.99, 981)
        values = [log_likelihood(np.diag([p, 1 - p]), qubit_record) for p in ps]
        assert abs(ps[int(np.argmax(values))] - 1 / 3) < 2e-3
        assert max(values) <= LOGLIK_MLE + 1e-12


class TestROperator:
    def test_at_uniform(self, qubit_record):
        np.testing.assert_allclose(r_operator(UNIFORM, qubit_record), np.diag([2 / 3, 4 / 3]), atol=1e-14)

    def test_at_first_iterate(self, qubit_record):
        np.testing.assert_allclose(r_operator(STEP1, qubit_record), np.diag([5 / 3, 5 / 6]), atol=1e-14)

    def test_identity_when_frequencies_match(self):
        d = Dataset(
            elements=np.stack([np.diag([1.0, 0j]), np.diag([0j, 1.0])]),
            counts=np.array([1.0, 1.0]),
        )
        np.testing.assert_allclose(r_operator(UNIFORM, d), np.eye(2), atol=1e-14)


class TestSteps:
    def test_rhor_two_cycle(self, qubit_record):
        first = diluted_step(UNIFORM, qubit_record, math.inf)
        np.testing.assert_allclose(first, STEP1, atol=1e-12)
        second = diluted_step(first, qubit_record, math.inf)
        np.testing.assert_allclose(second, UNIFORM, atol=1e-12)

    def test_rhor_fixed_point(self, qubit_record):
        np.testing.assert_allclose(diluted_step(MLE, qubit_record, math.inf), MLE, atol=1e-12)

    def test_diluted_identity_limit(self, qubit_record):
        out = diluted_step(UNIFORM, qubit_record, 1e-12)
        assert np.max(np.abs(out - UNIFORM)) <= 1e-10

    def test_diluted_unit_eps(self, qubit_record):
        out = diluted_step(UNIFORM, qubit_record, 1.0)
        np.testing.assert_allclose(out, np.diag([25 / 74, 49 / 74]), atol=1e-14)

    def test_diluted_fixed_point(self, qubit_record):
        for eps in (1e-3, 1.0, 1e3):
            assert np.max(np.abs(diluted_step(MLE, qubit_record, eps) - MLE)) <= 1e-12

    def test_diluted_rejects_nonpositive_eps(self, qubit_record):
        with pytest.raises(ValidationError):
            diluted_step(UNIFORM, qubit_record, 0.0)

    def test_non_finite_iterate_raises(self, qubit_record):
        with pytest.raises(ValidationError, match="not normalizable"):
            diluted_step(np.full((2, 2), np.nan), qubit_record, 1.0)


class TestExtremalResidual:
    """The loop's stationarity residual ||R rho - rho||_F without G-correction."""

    def test_zero_at_maximum(self, qubit_record):
        assert engine._residual(MLE, r_operator(MLE, qubit_record), None) <= 1e-12

    def test_at_uniform(self, qubit_record):
        residual = engine._residual(UNIFORM, r_operator(UNIFORM, qubit_record), None)
        assert residual == pytest.approx(math.sqrt(2) / 6, abs=1e-12)

    def test_zero_when_frequencies_match(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 3)
        povm = np.stack([np.diag(row).astype(complex) for row in np.eye(3)])
        counts = outcome_probabilities(rho, Dataset(elements=povm, counts=np.ones(3)))
        d = Dataset(elements=povm, counts=counts * 100)
        diag = np.diag(np.diag(rho))  # same outcome probabilities, R = identity
        assert engine._residual(diag, r_operator(diag, d), None) <= 1e-12


class TestFirstOrderGain:
    def test_zero_at_maximum(self, qubit_record):
        assert abs(likelihood_gain_first_order(MLE, qubit_record, 0.3)) <= 1e-12

    def test_uniform_value(self, qubit_record):
        # tr(R rho R) = (2/3)^2/2 + (4/3)^2/2 = 10/9
        gain = likelihood_gain_first_order(UNIFORM, qubit_record, 0.01)
        assert gain == pytest.approx(0.02 * (10 / 9 - 1), abs=1e-15)

    def test_zero_at_zero_eps(self, qubit_record):
        assert likelihood_gain_first_order(UNIFORM, qubit_record, 0.0) == 0.0

    @pytest.mark.parametrize("eps", [math.nan, -1.0, -math.inf])
    def test_refuses_what_the_step_refuses(self, qubit_record, eps):
        for call in (likelihood_gain_first_order, diluted_step):
            with pytest.raises(ValidationError, match="eps must be positive"):
                call(UNIFORM, qubit_record, eps)

    @pytest.mark.parametrize("rho", [MLE, UNIFORM], ids=["maximum", "uniform"])
    def test_refuses_infinite_eps(self, qubit_record, rho):
        # it returned NaN at the maximum and +inf at I/2; the step itself takes eps = inf
        with pytest.raises(ValidationError, match="eps must be finite"):
            likelihood_gain_first_order(rho, qubit_record, math.inf)
        assert np.all(np.isfinite(diluted_step(rho, qubit_record, math.inf)))


class TestGCorrectedStep:
    def test_identity_g_matches_diluted(self, qubit_record):
        g = GOperator.from_dataset(qubit_record)
        for eps in (0.3, 1.0, 7.0, math.inf):
            corrected = diluted_step(UNIFORM, qubit_record, eps, g)
            plain = diluted_step(UNIFORM, qubit_record, eps)
            np.testing.assert_allclose(corrected, plain, atol=1e-15)

    def test_debiased_fixed_point_every_eps(self, incomplete_record):
        d, g = incomplete_record
        for eps in (0.01, 1.0, 100.0, math.inf):
            out = diluted_step(MLE, d, eps, g)
            assert np.max(np.abs(out - MLE)) <= 1e-12

    def test_uncorrected_map_has_other_fixed_point(self, incomplete_record):
        d, _ = incomplete_record
        # brute-force fixed-point search over diagonal qubit states
        ps = np.linspace(0.02, 0.98, 4801)
        gaps = []
        for p in ps:
            rho = np.diag([p, 1 - p]).astype(complex)
            gaps.append(np.max(np.abs(diluted_step(rho, d, 1.0) - rho)))
        fixed = ps[int(np.argmin(gaps))]
        assert abs(fixed - 0.5) < 1e-3  # not the debiased state 1/3
        assert abs(fixed - 1 / 3) > 0.1

    def test_corrected_map_fixed_point_search(self, incomplete_record):
        d, g = incomplete_record
        ps = np.linspace(0.02, 0.98, 4801)
        gaps = []
        for p in ps:
            rho = np.diag([p, 1 - p]).astype(complex)
            gaps.append(np.max(np.abs(diluted_step(rho, d, math.inf, g) - rho)))
        fixed = ps[int(np.argmin(gaps))]
        assert abs(fixed - 1 / 3) < 1e-3


def _counted(d, calls):
    """A copy of the record d that counts its trace and weighted-sum kernel calls in ``calls``."""

    class Counted(Dataset):
        def traces(self, matrix):
            calls["traces"] += 1
            return super().traces(matrix)

        def weighted_sum(self, weights):
            calls["weighted_sum"] += 1
            return super().weighted_sum(weights)

    return Counted(elements=d.elements, counts=d.counts)


@pytest.fixture
def incomplete_record():
    """POVM {|0><0|, |1><1|/2} with the exact expected counts of diag(1/3, 2/3)."""
    elements = np.stack([np.diag([1.0, 0j]), np.diag([0j, 0.5])])
    d = Dataset(elements=elements, counts=np.array([1.0, 1.0]))
    return d, GOperator.from_dataset(d)


class TestLineSearch:
    def test_positive_gain_off_maximum(self, qubit_record):
        _, gain = choose_epsilon_line_search(UNIFORM, qubit_record)
        assert gain > 0

    def test_zero_gain_at_maximum(self, qubit_record):
        _, gain = choose_epsilon_line_search(MLE, qubit_record)
        assert gain <= 1e-12

    def test_eps_positive(self, qubit_record):
        (eps, *_), _ = choose_epsilon_line_search(UNIFORM, qubit_record)
        assert 0 < eps

    def test_gain_matches_actual_step(self, qubit_record):
        (eps, *_), gain = choose_epsilon_line_search(UNIFORM, qubit_record)
        stepped = diluted_step(UNIFORM, qubit_record, eps)
        actual = log_likelihood(stepped, qubit_record) - log_likelihood(UNIFORM, qubit_record)
        assert gain == pytest.approx(actual, abs=1e-12)

    @pytest.mark.parametrize("g_correction", [False, True])
    def test_step_reuses_the_current_state(self, g_correction):
        calls = {"traces": 0, "weighted_sum": 0}
        d = random_dataset(np.random.default_rng(5), 3)
        if g_correction:
            d = Dataset(elements=d.elements[:-1], counts=d.counts[:-1])
        config = ReconstructionConfig(strategy=LineSearchEpsilon(), g_correction=g_correction, max_iterations=6,
                                      tol_residual=1e-300, tol_element=1e-300, tol_loglik=1e-300)
        result = reconstruct(_counted(d, calls), config)
        assert result.iterations == 6
        assert np.all(np.isinf(result.epsilon_trace))
        # G's element sum, the start state, then per quadratic step one fused pass: its traces and its R
        assert calls == {"traces": 1 + 6, "weighted_sum": g_correction + 1 + 6}
        plain = reconstruct(d, config)
        np.testing.assert_array_equal(result.estimate, plain.estimate)
        np.testing.assert_array_equal(result.epsilon_trace, plain.epsilon_trace)

    def test_accepted_quadratic_step_builds_one_candidate(self):
        """adaptive tries its step sizes lazily: a quadratic step that raises the objective costs one trace kernel."""
        calls = {"traces": 0, "weighted_sum": 0}
        d = random_dataset(np.random.default_rng(5), 3)
        config = ReconstructionConfig(strategy=AdaptiveBackoff(), max_iterations=6, tol_residual=1e-300,
                                      tol_element=1e-300, tol_loglik=1e-300)
        result = reconstruct(_counted(d, calls), config)
        assert result.iterations == 6 and np.all(np.isinf(result.epsilon_trace))
        assert calls == {"traces": 1 + 6, "weighted_sum": 1 + 6}

    def test_profile_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(8)
        for g_correction in (False, True):
            d = random_dataset(rng, 3, 7)
            g = None
            if g_correction:
                d = Dataset(elements=d.elements[:-1], counts=d.counts[:-1])
                g = GOperator.from_dataset(d)
            state = engine._step_at(random_density(rng, 3), d, g)
            profile = engine._GainProfile(state, engine._profile_scale(state), d, g)
            for t in (0.1, 0.5, 0.9):
                h = 1e-5
                first, second = profile.derivatives(t)
                below, at, above = (profile.candidate(x)[-1] for x in (t - h, t, t + h))
                slope = (above - below) / (2 * h)
                curvature = (above - 2 * at + below) / h**2
                assert first == pytest.approx(slope, rel=1e-6, abs=1e-8 * d.total)
                assert second == pytest.approx(curvature, rel=1e-3, abs=1e-4 * d.total)

    @pytest.mark.parametrize("record", ["povm2", "povm2-g", "quadrature"])
    def test_all_quadratic_run_is_adaptive_bit_for_bit(self, record):
        """Where every step is quadratic, linesearch builds the same candidate as adaptive and accepts it."""
        d, g = REGRESSION_DATASETS["povm2"], record == "povm2-g"
        if g:
            d = Dataset(elements=d.elements[:-1], counts=d.counts[:-1])
        elif record == "quadrature":
            d = quadrature_record(np.random.default_rng(21), phase_layouts(np.random.default_rng(21))["mix"], 4)
        runs = [reconstruct(d, ReconstructionConfig(strategy=strategy, g_correction=g, max_iterations=300))
                for strategy in (AdaptiveBackoff(), LineSearchEpsilon())]
        assert runs[0].iterations > 20 and np.all(np.isinf(runs[0].epsilon_trace))
        for field in ("estimate", "log_likelihood_trace", "epsilon_trace"):
            np.testing.assert_array_equal(getattr(runs[1], field), getattr(runs[0], field))
        assert runs[1].termination is runs[0].termination

    def test_quadratic_slope_is_the_profile_slope_at_one(self):
        """The d x d slope of the quadratic step is F'(1) read off the gain profile, with and without G."""
        rng = np.random.default_rng(31)
        for _ in range(40):
            g = None
            d = random_dataset(rng, int(rng.integers(2, 6)))
            if rng.uniform() < 0.5:
                d = Dataset(elements=d.elements[:-1], counts=d.counts[:-1])
                g = GOperator.from_dataset(d)
            state = engine._step_at(random_density(rng, d.dim), d, g)
            profile = engine._GainProfile(state, engine._profile_scale(state), d, g)
            quadratic = engine._trial(state, d, g, math.inf)
            slope = engine._quadratic_slope(state, quadratic, profile.c, d, g)
            assert slope == pytest.approx(profile.derivatives(1.0)[0], rel=0, abs=1e-12 * d.total)

    def test_state_that_the_direction_annihilates_is_refused(self, qubit_record):
        # rho = |0><0| gives the only counted outcome, |1><1|, probability 0: R rho R = 0
        record = Dataset(elements=qubit_record.elements, counts=np.array([0.0, 2.0]))
        with pytest.raises(ValidationError, match=r"tr\(B rho B\^dag\) = 0.000e\+00 is not positive"):
            choose_epsilon_line_search(np.diag([1.0, 0.0]).astype(complex), record)

    def test_slope_at_zero_is_twice_the_first_order_gain(self):
        rng = np.random.default_rng(9)
        rho, d = random_instance(rng, dim=3)
        state = engine._step_at(rho, d, None)
        profile = engine._GainProfile(state, engine._profile_scale(state), d, None)
        r = r_operator(rho, d)
        slope = 2 * profile.c * d.total * ((r @ rho @ r).trace().real - 1)  # along M = 1 + t (cR - 1)
        assert profile.derivatives(0.0)[0] == pytest.approx(slope)


def _objective(rho, d, g):
    value = log_likelihood(rho, d)
    return value if g is None else value - d.total * math.log((g.matrix @ rho).trace().real)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=5),
    extra_outcomes=st.integers(min_value=0, max_value=6),
    mixing=st.floats(min_value=0.0, max_value=1.0),  # 0 is a pure state
    g_correction=st.booleans(),
)
def test_line_search_property(seed, dim, extra_outcomes, mixing, g_correction):
    """The gain is never negative, is the objective change of the step taken, and t is a stationary point or 1.

    The candidate read off the gain profile is the diluted step at its eps, with that step's traces."""
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, dim, dim + extra_outcomes + g_correction)
    g = None
    if g_correction:  # drop an element, so G != identity
        d = Dataset(elements=d.elements[:-1], counts=d.counts[:-1])
        g = GOperator.from_dataset(d)
    psi = random_pure_state(rng, dim)
    rho = (1 - mixing) * np.outer(psi, psi.conj()) + mixing * random_density(rng, dim)

    (eps, candidate, traces, *_), gain = choose_epsilon_line_search(rho, d, g)
    assert gain >= 0
    stepped = diluted_step(rho, d, eps, g)
    np.testing.assert_allclose(candidate, stepped, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traces, d.traces(candidate), rtol=0, atol=1e-12)
    before = _objective(rho, d, g)
    actual = _objective(stepped, d, g) - before
    assert gain == pytest.approx(actual, rel=1e-9, abs=1e-12 * abs(before))
    state = engine._step_at(rho, d, g)
    profile = engine._GainProfile(state, engine._profile_scale(state), d, g)
    t = 1.0 if math.isinf(eps) else eps / (profile.c + eps)  # eps = c t/(1 - t)
    slope, _ = profile.derivatives(t)
    assert (t == 1.0 and slope >= 0) or abs(slope) <= 1e-8 * d.total


def test_line_search_gain_is_exact_on_g_corrected_counts():
    """Incomplete records whose elements sum to about 100 times the identity, so G^-1 R is about 1/100: the gain read
    off the profile is still the objective change of the step (not with c = 1). Homodyne records refuse G."""
    for d in (random_dataset(np.random.default_rng(seed), 4, 8) for seed in range(5)):
        d = Dataset(elements=100 * d.elements[:-1], counts=300 * d.counts[:-1])
        g = GOperator.from_dataset(d)
        for state in itertools.islice(engine._iterate(d, LineSearchEpsilon(), g, 7), 8):
            (eps, *_), gain = choose_epsilon_line_search(state.rho, d, g, state=state)
            actual = _objective(diluted_step(state.rho, d, eps, g), d, g) - _objective(state.rho, d, g)
            assert gain == pytest.approx(actual, rel=1e-9)
    with pytest.raises(ValidationError, match="G-correction is for counted records"):
        reconstruct(quadrature_dataset([0.0, 1.0], [0.5, -0.5], 2), ReconstructionConfig(g_correction=True))


def test_line_search_needs_few_derivative_evaluations(monkeypatch):
    """At most 8 evaluations of F' and F'' per search, on average, over the regression table's line-search runs
    and, separately, over criterion 9's, where most maximizers lie inside (0, 1)."""
    counts = {"searches": 0, "evaluations": 0}
    derivatives, search = engine._GainProfile.derivatives, engine.choose_epsilon_line_search

    def counted_derivatives(self, t):
        counts["evaluations"] += 1
        return derivatives(self, t)

    def counted_search(*args, **kwargs):
        counts["searches"] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(engine._GainProfile, "derivatives", counted_derivatives)
    monkeypatch.setattr(engine, "choose_epsilon_line_search", counted_search)
    for name, d in REGRESSION_DATASETS.items():
        for g in (False, True):
            record = Dataset(elements=d.elements[:-1], counts=d.counts[:-1]) if g and name != "qubit" else d
            reconstruct(record, ReconstructionConfig(strategy=LineSearchEpsilon(), g_correction=g, max_iterations=300))
    assert counts["searches"] > 900
    assert counts["evaluations"] <= 8 * counts["searches"]
    counts.update(searches=0, evaluations=0)
    rng = np.random.default_rng(2027)  # the records of acceptance criterion 9
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        povm = np.stack([np.diag(np.eye(dim)[k]).astype(complex) for k in range(dim)])
        d = Dataset(elements=povm, counts=rng.uniform(0.5, 10.0, size=dim))
        reconstruct(d, ReconstructionConfig(strategy=LineSearchEpsilon(), tol_residual=1e-10, tol_element=1e-11,
                                            tol_loglik=1e-14, max_iterations=3000))
    assert counts["searches"] > 100
    assert counts["evaluations"] <= 8 * counts["searches"]


def test_negative_gain_halves_t(monkeypatch, qubit_record):
    """Where the gain at the stationary point is negative, t is halved until it is not."""
    before, candidate = engine._step_at(UNIFORM, qubit_record, None).objective, engine._GainProfile.candidate
    monkeypatch.setattr(engine._GainProfile, "candidate",
                        lambda self, t: (*candidate(self, t)[:-1], before + (-1.0 if t > 0.2 else t)))
    eps_star = 3 / (2 * math.sqrt(2))  # the maximizer from the uniform state
    c = 3 / math.sqrt(10)  # 1/sqrt(tr(R rho R)) at the uniform state, R = diag(2/3, 4/3)
    t_star = eps_star / (c + eps_star)
    (eps, *_), gain = choose_epsilon_line_search(UNIFORM, qubit_record)
    assert gain == pytest.approx(t_star / 4, rel=1e-9)
    assert eps == pytest.approx(c * gain / (1 - gain), rel=1e-9)


@pytest.mark.parametrize("strategy", [AdaptiveBackoff(), RandomEpsilon(seed=3)])
def test_iteration_ends_at_its_stall(strategy):
    """Equal counts on a basis have their maximum at the starting state 1/dim, so no trial raises the objective
    by more than rounding: the run stalls within a few steps, and its last state is the stall, the only one."""
    record = Dataset(elements=np.stack([np.diag(row) for row in np.eye(3)]).astype(complex), counts=np.ones(3))
    states = list(engine._iterate(record, strategy, None, 10))
    assert len(states) <= 10 and [state.stall is not None for state in states] == [False] * (len(states) - 1) + [True]
    assert states[-1].stall["reason"] == strategy._stall_reason
    np.testing.assert_array_equal(states[-1].rho, states[-2].rho)


@pytest.mark.parametrize("strategy", [AdaptiveBackoff(), FixedEpsilon(1.0), RandomEpsilon(seed=3)])
def test_yielded_traces_outlive_later_iterations(strategy):
    """A state keeps the traces it was yielded with: later iterations allocate their own and never overwrite them."""
    rng = np.random.default_rng(15)
    thetas = phase_layouts(rng)["mix"]
    records = (quadrature_record(rng, thetas, 6), random_dataset(rng, 4))
    for d in records:
        states = list(engine._iterate(d, strategy, None, 12))
        expected = [d.traces(state.rho).copy() for state in states]
        assert len(states) == 13
        for state, traces in zip(states, expected):
            np.testing.assert_array_equal(state.traces, traces)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1e-8, math.inf])
@pytest.mark.parametrize("name", ["tol_residual", "tol_element", "tol_loglik"])
def test_config_rejects_non_positive_tolerance(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be {'finite' if value == math.inf else 'positive'}$"):
        ReconstructionConfig(**{name: value})


class TestCheckPositive:
    """``errors.check_positive``, the one rule for every step size and tolerance, and each argument it checks."""

    @pytest.mark.parametrize("value", [3, 0.25, 1e308, np.float64(1e-12), np.float32(0.5), np.int64(7)])
    def test_returns_a_positive_real_unchanged(self, value):
        assert check_positive(value, "x") is value
        assert check_positive(value, "x", finite=False) is value

    def test_infinity_only_where_allowed(self):
        assert check_positive(math.inf, "eps", finite=False) == math.inf
        with pytest.raises(ValidationError, match="^eps must be finite$"):
            check_positive(np.float64(math.inf), "eps")

    @pytest.mark.parametrize("value, message", [
        (True, "x must be a number, got True"), (np.bool_(True), "x must be a number, got np.True_"),
        ("1", "x must be a number, got '1'"), (None, "x must be a number, got None"),
        (1j, "x must be a number, got 1j"), (np.array(1.0), "x must be a number, got array(1.)"),
        (math.nan, "x must be positive"), (0, "x must be positive"), (-0.0, "x must be positive"),
        (-math.inf, "x must be positive"), (np.float64(-2.0), "x must be positive"),
    ])
    @pytest.mark.parametrize("finite", [True, False])
    def test_refuses(self, value, message, finite):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check_positive(value, "x", finite=finite)

    @pytest.mark.parametrize("call, message", [
        (lambda: ReconstructionConfig(tol_residual=True), "tol_residual must be a number, got True"),
        (lambda: ReconstructionConfig(tol_loglik="1e-13"), "tol_loglik must be a number, got '1e-13'"),
        (lambda: FixedEpsilon(True), "epsilon must be a number, got True"),
        (lambda: FixedEpsilon("1"), "epsilon must be a number, got '1'"),
        (lambda: RandomEpsilon(epsilon_max="5"), "epsilon_max must be a number, got '5'"),
        (lambda: RandomEpsilon(epsilon_max=-1.0), "epsilon_max must be positive"),
        (lambda: diluted_step(UNIFORM, counterexample_dataset(), True), "eps must be a number, got True"),
        (lambda: likelihood_gain_first_order(UNIFORM, counterexample_dataset(), False), "eps must be a number"),
        (lambda: sweep_iteration_counts(counterexample_dataset(), MLE, ["a"], [1e-3]), "eps must be a number"),
        (lambda: sweep_iteration_counts(counterexample_dataset(), MLE, [1.0], ["1"]), "tolerance must be a number"),
        (lambda: sweep_iteration_counts(counterexample_dataset(), MLE, [True], [1e-3]), "eps must be a number"),
        (lambda: validate_density(MLE, tol=0.0), "tol must be positive"),
        (lambda: validate_density(MLE, tol=math.nan), "tol must be positive"),
    ], ids=lambda x: x if isinstance(x, str) else None)
    def test_every_argument_goes_through_it(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            call()

    def test_arguments_are_stored_as_given(self):
        assert type(FixedEpsilon(np.float32(0.5)).epsilon) is np.float32 and FixedEpsilon(2).epsilon == 2
        assert type(RandomEpsilon(epsilon_max=5).epsilon_max) is int
        config = ReconstructionConfig(tol_residual=np.float64(1e-9), tol_element=1, tol_loglik=1e-300)
        assert (type(config.tol_residual), config.tol_element, config.tol_loglik) == (np.float64, 1, 1e-300)
        rows = sweep_iteration_counts(counterexample_dataset(), MLE, [np.int64(1), math.inf], [np.float32(1e-3)])
        assert [(row.epsilon, row.tolerance) for row in rows] == [(1.0, float(np.float32(1e-3))), (math.inf,
                                                                  float(np.float32(1e-3)))]


@pytest.mark.parametrize("value", [2.5, True, np.float64(3.0)])
def test_config_rejects_non_integer_max_iterations(value):
    with pytest.raises(ValidationError, match="max_iterations must be an integer"):
        ReconstructionConfig(max_iterations=value)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"epsilon_max": math.inf}, "epsilon_max must be finite"), ({"seed": -1}, "seed must be at least 0"),
     ({"epsilon_max": 1e-4}, "epsilon_max must exceed the 1e-4 lower sampling bound"),
     ({"seed": 1.5}, "seed must be an integer, got 1.5"), ({"seed": True}, "seed must be an integer, got True")],
)
def test_random_epsilon_rejects(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        RandomEpsilon(**kwargs)


class TestReconstruct:
    def test_rejects_unknown_strategy(self, qubit_record):
        with pytest.raises(ValidationError, match="unknown step-size strategy 'adaptive'"):
            reconstruct(qubit_record, ReconstructionConfig(strategy="adaptive"))

    def test_rhor_detects_cycle(self, qubit_record):
        res = reconstruct(qubit_record, ReconstructionConfig(strategy=FixedEpsilon(math.inf), max_iterations=100))
        assert res.termination is Termination.CYCLE_DETECTED
        trace = res.log_likelihood_trace
        assert trace[2] < trace[1]  # the second step decreases the likelihood

    def test_fixed_eps_one_converges(self, qubit_record):
        res = reconstruct(qubit_record, ReconstructionConfig(strategy=FixedEpsilon(1.0)))
        assert np.max(np.abs(res.estimate - MLE)) <= 1e-8
        assert np.min(np.diff(res.log_likelihood_trace)) >= -1e-12

    def test_fixed_eps25_monotone_eps30_not(self, qubit_record):
        config = lambda e: ReconstructionConfig(
            strategy=FixedEpsilon(e), max_iterations=2000, tol_element=1e-13, tol_loglik=1e-16
        )
        res25 = reconstruct(qubit_record, config(25.0))
        assert np.min(np.diff(res25.log_likelihood_trace)) >= -1e-12
        res30 = reconstruct(qubit_record, config(30.0))
        assert np.min(np.diff(res30.log_likelihood_trace)) < -1e-6

    def test_adaptive_backoff_converges_monotonically(self, qubit_record):
        res = reconstruct(qubit_record, ReconstructionConfig(strategy=AdaptiveBackoff()))
        assert np.max(np.abs(res.estimate - MLE)) <= 1e-7
        assert np.min(np.diff(res.log_likelihood_trace)) >= 0
        assert math.isinf(res.epsilon_trace[0])  # first quadratic step is accepted

    def test_random_strategy_converges_monotonically(self, qubit_record):
        res = reconstruct(qubit_record, ReconstructionConfig(strategy=RandomEpsilon(epsilon_max=10.0, seed=3)))
        assert np.max(np.abs(res.estimate - MLE)) <= 1e-5
        assert np.min(np.diff(res.log_likelihood_trace)) >= 0

    def test_line_search_converges(self, qubit_record):
        res = reconstruct(qubit_record, ReconstructionConfig(strategy=LineSearchEpsilon()))
        assert np.max(np.abs(res.estimate - MLE)) <= 1e-8
        assert np.min(np.diff(res.log_likelihood_trace)) >= -1e-12

    def test_deterministic_given_config(self, qubit_record):
        cfg = ReconstructionConfig(strategy=RandomEpsilon(epsilon_max=5.0, seed=42))
        a = reconstruct(qubit_record, cfg)
        b = reconstruct(qubit_record, cfg)
        np.testing.assert_array_equal(a.estimate, b.estimate)
        np.testing.assert_array_equal(a.epsilon_trace, b.epsilon_trace)

    def test_g_corrected_recovers_debiased_state(self, incomplete_record):
        d, _ = incomplete_record
        res = reconstruct(
            d,
            ReconstructionConfig(strategy=FixedEpsilon(1.0), g_correction=True, tol_element=1e-12, tol_residual=1e-11),
        )
        assert np.max(np.abs(res.estimate - MLE)) <= 1e-6

    def test_uncorrected_biased_on_incomplete_record(self, incomplete_record):
        d, _ = incomplete_record
        res = reconstruct(d, ReconstructionConfig(strategy=FixedEpsilon(1.0)))
        assert np.max(np.abs(res.estimate - MLE)) > 1e-3

    def test_g_corrected_line_search(self, incomplete_record):
        d, _ = incomplete_record
        res = reconstruct(
            d,
            ReconstructionConfig(strategy=LineSearchEpsilon(), g_correction=True, tol_element=1e-12, tol_residual=1e-11),
        )
        assert np.max(np.abs(res.estimate - MLE)) <= 1e-7

    def test_trace_recomputed_from_definition(self, qubit_record):
        res = reconstruct(qubit_record, ReconstructionConfig(strategy=FixedEpsilon(1.0)))
        # spot-check the reported trace against an independent evaluation
        assert res.log_likelihood_trace[0] == pytest.approx(LOGLIK_UNIFORM, abs=1e-14)
        assert res.log_likelihood_trace[-1] == pytest.approx(
            log_likelihood(res.estimate, qubit_record), abs=1e-13
        )

    def test_residual_met_on_random_dataset(self):
        rng = np.random.default_rng(12)
        d = random_dataset(rng, 4)
        res = reconstruct(d, ReconstructionConfig(strategy=LineSearchEpsilon(), tol_residual=1e-7))
        assert res.termination in (
            Termination.RESIDUAL_MET,
            Termination.ELEMENT_CHANGE_MET,
            Termination.LIKELIHOOD_STALLED,
        )
        assert res.final_residual <= 1e-6

    def test_fixed_point_characterization_at_residual_met(self):
        # tr(R rho R) = 1 within 10x residual tolerance once the residual is met
        rng = np.random.default_rng(13)
        tol = 1e-7
        hits = 0
        for _ in range(5):
            rho0, d = random_instance(rng, dim=3)
            res = reconstruct(d, ReconstructionConfig(strategy=LineSearchEpsilon(), tol_residual=tol, max_iterations=3000))
            if res.termination is not Termination.RESIDUAL_MET:
                continue
            hits += 1
            r = r_operator(res.estimate, d)
            assert abs((r @ res.estimate @ r).trace().real - 1.0) <= 10 * tol
        assert hits >= 1


# ---------------------------------------------------------------------------
# regression table of the iteration loop

REGRESSION_DATASETS = {
    "qubit": counterexample_dataset(),
    "povm2": random_dataset(np.random.default_rng(2), dim=2, n_outcomes=4),
    "povm3": random_dataset(np.random.default_rng(3), dim=3, n_outcomes=10),
}
REGRESSION_STRATEGIES = {
    "rhor": FixedEpsilon(math.inf),
    "fixed": FixedEpsilon(2.0),
    "adaptive": AdaptiveBackoff(),
    "linesearch": LineSearchEpsilon(),
    "random": RandomEpsilon(seed=4),
    "adaptive1": AdaptiveBackoff(),
    "random1": RandomEpsilon(),
}

# (dataset, strategy, g_correction) -> (termination, iterations, quadratic steps,
# sum of log eps over the finite steps, (diagnostics keys, reason, trials) or None).
# With G-correction the random POVMs lose their last element, so G != identity.
# The single-retry strategies (engine.MAX_RETRIES = 1) run with tolerances too tight to meet, so the
# stall after a failed trial ends the run.
REGRESSION_TABLE = {
    ("qubit", "rhor", False): (
        "cycle_detected", 2, 2, 0.0,
        (["cycle_gap", "reason"], "iterates repeat with period two", None),
    ),
    ("qubit", "rhor", True): (
        "cycle_detected", 2, 2, 0.0,
        (["cycle_gap", "reason"], "iterates repeat with period two", None),
    ),
    ("qubit", "fixed", False): ("likelihood_stalled", 14, 0, 9.704060527839234, None),
    ("qubit", "fixed", True): ("likelihood_stalled", 14, 0, 9.704060527839234, None),
    ("qubit", "adaptive", False): ("residual_met", 6, 3, 0.0, None),
    ("qubit", "adaptive", True): ("residual_met", 6, 3, 0.0, None),
    # one step to the maximum, at eps = 3/(2 sqrt 2)
    ("qubit", "linesearch", False): ("residual_met", 1, 0, 0.05889151782816861, None),
    ("qubit", "linesearch", True): ("residual_met", 1, 0, 0.05889151782816861, None),
    ("qubit", "random", False): ("likelihood_stalled", 19, 0, -37.81243373053271, None),
    ("qubit", "random", True): ("likelihood_stalled", 19, 0, -37.81243373053271, None),
    ("povm2", "rhor", False): ("residual_met", 108, 108, 0.0, None),
    ("povm2", "rhor", True): ("likelihood_stalled", 277, 277, 0.0, None),
    ("povm2", "fixed", False): ("residual_met", 164, 0, 113.67613761183104, None),
    ("povm2", "fixed", True): ("max_iterations", 300, 0, 207.94415416798358, None),
    ("povm2", "adaptive", False): ("residual_met", 108, 108, 0.0, None),
    ("povm2", "adaptive", True): ("likelihood_stalled", 277, 277, 0.0, None),
    ("povm2", "linesearch", False): ("residual_met", 108, 108, 0.0, None),
    ("povm2", "linesearch", True): ("likelihood_stalled", 277, 277, 0.0, None),
    ("povm2", "random", False): ("max_iterations", 300, 0, -848.3865398783514, None),
    ("povm2", "random", True): ("max_iterations", 300, 0, -848.3865398783514, None),
    ("povm3", "rhor", False): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "rhor", True): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "fixed", False): ("max_iterations", 300, 0, 207.94415416798358, None),
    ("povm3", "fixed", True): ("max_iterations", 300, 0, 207.94415416798358, None),
    ("povm3", "adaptive", False): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "adaptive", True): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "linesearch", False): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "linesearch", True): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "random", False): ("max_iterations", 300, 0, -848.3865398783514, None),
    ("povm3", "random", True): ("max_iterations", 300, 0, -848.3865398783514, None),
    ("qubit", "adaptive1", False): (
        "likelihood_stalled", 6, 3, 0.0,
        (["best_delta", "reason", "smallest_epsilon", "trials"], "no step-size trial increased the likelihood", 2),
    ),
    ("qubit", "random1", False): (
        "likelihood_stalled", 32, 0, -97.76855069261616,
        (["best_delta", "reason", "trials"], "no random step size increased the likelihood", 1),
    ),
    ("povm2", "adaptive1", False): (
        "likelihood_stalled", 211, 211, 0.0,
        (["best_delta", "reason", "smallest_epsilon", "trials"], "no step-size trial increased the likelihood", 2),
    ),
    ("povm2", "random1", False): ("max_iterations", 300, 0, -897.0657185949822, None),
    ("povm3", "adaptive1", False): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "random1", False): ("max_iterations", 300, 0, -897.0657185949822, None),
}


@pytest.mark.parametrize("case", sorted(REGRESSION_TABLE), ids=lambda c: "-".join(map(str, c)))
def test_loop_regression_table(case, monkeypatch):
    name, strategy, g = case
    d = REGRESSION_DATASETS[name]
    if g and name != "qubit":
        d = Dataset(elements=d.elements[:-1], counts=d.counts[:-1])
    tight = strategy.endswith("1")
    if tight:
        monkeypatch.setattr(engine, "MAX_RETRIES", 1)
    config = ReconstructionConfig(
        strategy=REGRESSION_STRATEGIES[strategy],
        g_correction=g,
        max_iterations=300,
        tol_residual=1e-15 if tight else 1e-8,
        tol_element=1e-16 if tight else 1e-10,
        tol_loglik=1e-16 if tight else 1e-13,
    )
    res = reconstruct(d, config)
    termination, iterations, n_inf, log_eps_sum, diagnostics = REGRESSION_TABLE[case]
    eps = res.epsilon_trace
    assert res.termination.value == termination
    assert res.iterations == iterations == len(eps)
    assert int(np.isinf(eps).sum()) == n_inf
    assert float(np.log(eps[np.isfinite(eps)]).sum()) == pytest.approx(log_eps_sum, rel=1e-9, abs=1e-9)
    diag = res.diagnostics
    assert ((sorted(diag), diag["reason"], diag.get("trials")) if diag else None) == diagnostics
