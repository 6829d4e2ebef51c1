import math

import numpy as np
import pytest

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
    diluted_step,
    engine,
    extremal_residual,
    likelihood_gain_first_order,
    log_likelihood,
    outcome_probabilities,
    r_operator,
    reconstruct,
)
from support import random_dataset, random_density, random_instance

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
    def test_zero_at_maximum(self, qubit_record):
        assert extremal_residual(MLE, qubit_record) <= 1e-12

    def test_at_uniform(self, qubit_record):
        assert extremal_residual(UNIFORM, qubit_record) == pytest.approx(math.sqrt(2) / 6, abs=1e-12)

    def test_zero_when_frequencies_match(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 3)
        povm = np.stack([np.diag(row).astype(complex) for row in np.eye(3)])
        counts = outcome_probabilities(rho, Dataset(elements=povm, counts=np.ones(3)))
        d = Dataset(elements=povm, counts=counts * 100)
        diag = np.diag(np.diag(rho))  # same outcome probabilities, R = identity
        assert extremal_residual(diag, d) <= 1e-12


class TestFirstOrderGain:
    def test_zero_at_maximum(self, qubit_record):
        assert abs(likelihood_gain_first_order(MLE, qubit_record, 0.3)) <= 1e-12

    def test_uniform_value(self, qubit_record):
        # tr(R rho R) = (2/3)^2/2 + (4/3)^2/2 = 10/9
        gain = likelihood_gain_first_order(UNIFORM, qubit_record, 0.01)
        assert gain == pytest.approx(0.02 * (10 / 9 - 1), abs=1e-15)

    def test_zero_at_zero_eps(self, qubit_record):
        assert likelihood_gain_first_order(UNIFORM, qubit_record, 0.0) == 0.0


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

    def test_eps_within_grid(self, qubit_record):
        eps, _ = choose_epsilon_line_search(UNIFORM, qubit_record)
        assert 1e-3 <= eps <= 1e3

    def test_gain_matches_actual_step(self, qubit_record):
        eps, gain = choose_epsilon_line_search(UNIFORM, qubit_record)
        stepped = diluted_step(UNIFORM, qubit_record, eps)
        actual = log_likelihood(stepped, qubit_record) - log_likelihood(UNIFORM, qubit_record)
        assert gain == pytest.approx(actual, abs=1e-12)

    def test_step_reuses_the_current_state(self):
        calls = {"traces": 0, "weighted_sum": 0}

        class Counted(Dataset):
            def traces(self, matrix):
                calls["traces"] += 1
                return super().traces(matrix)

            def weighted_sum(self, weights):
                calls["weighted_sum"] += 1
                return super().weighted_sum(weights)

        d = random_dataset(np.random.default_rng(5), 3)
        config = ReconstructionConfig(strategy=LineSearchEpsilon(), max_iterations=6, tol_residual=1e-300,
                                      tol_element=1e-300, tol_loglik=1e-300)
        result = reconstruct(Counted(elements=d.elements, counts=d.counts), config)
        assert result.iterations == 6
        # the start state, then per step the two gain-profile traces, the candidate's traces and its R
        assert calls == {"traces": 1 + 3 * 6, "weighted_sum": 1 + 6}
        plain = reconstruct(d, config)
        np.testing.assert_array_equal(result.estimate, plain.estimate)
        np.testing.assert_array_equal(result.epsilon_trace, plain.epsilon_trace)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1e-8])
@pytest.mark.parametrize("name", ["tol_residual", "tol_element", "tol_loglik"])
def test_config_rejects_non_positive_tolerance(name, value):
    with pytest.raises(ValidationError, match="tolerances"):
        ReconstructionConfig(**{name: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [({"epsilon_max": math.inf}, "epsilon_max must be finite"), ({"seed": -1}, "seed must be non-negative")],
)
def test_random_epsilon_rejects(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        RandomEpsilon(**kwargs)


class TestReconstruct:
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
    ("qubit", "linesearch", False): ("residual_met", 2, 0, 0.09098782819768422, None),
    ("qubit", "linesearch", True): ("residual_met", 2, 0, 0.09098782819768422, None),
    ("qubit", "random", False): ("likelihood_stalled", 19, 0, -37.81243373053271, None),
    ("qubit", "random", True): ("likelihood_stalled", 19, 0, -37.81243373053271, None),
    ("povm2", "rhor", False): ("residual_met", 108, 108, 0.0, None),
    ("povm2", "rhor", True): ("likelihood_stalled", 276, 276, 0.0, None),
    ("povm2", "fixed", False): ("residual_met", 164, 0, 113.67613761183104, None),
    ("povm2", "fixed", True): ("max_iterations", 300, 0, 207.94415416798358, None),
    ("povm2", "adaptive", False): ("residual_met", 108, 108, 0.0, None),
    ("povm2", "adaptive", True): ("likelihood_stalled", 276, 276, 0.0, None),
    ("povm2", "linesearch", False): ("residual_met", 108, 0, 746.0375701300707, None),
    ("povm2", "linesearch", True): ("likelihood_stalled", 277, 0, 1858.5917348614744, None),
    ("povm2", "random", False): ("max_iterations", 300, 0, -848.3865398783514, None),
    ("povm2", "random", True): ("max_iterations", 300, 0, -848.3865398783514, None),
    ("povm3", "rhor", False): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "rhor", True): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "fixed", False): ("max_iterations", 300, 0, 207.94415416798358, None),
    ("povm3", "fixed", True): ("max_iterations", 300, 0, 207.94415416798358, None),
    ("povm3", "adaptive", False): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "adaptive", True): ("max_iterations", 300, 300, 0.0, None),
    ("povm3", "linesearch", False): ("max_iterations", 300, 0, 2061.983434908972, None),
    ("povm3", "linesearch", True): ("max_iterations", 300, 0, 2046.3350108182947, None),
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
        "likelihood_stalled", 205, 205, 0.0,
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
