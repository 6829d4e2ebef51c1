import numpy as np
import pytest
from scipy import stats

from qmaxlik import (
    SimulationSpec,
    ValidationError,
    preset_state,
    projector_from_state,
    sample_counts,
    sample_quadratures,
)
from qmaxlik.simulate import QUAD_GRID_POINTS, _quadrature_grid, quadrature_density_table
from support import random_density


def basis_povm(dim):
    return np.stack([projector_from_state(np.eye(dim)[k]) for k in range(dim)])


class TestSampleCounts:
    def test_pure_state_deterministic_outcome(self):
        spec = SimulationSpec(state=np.diag([1.0, 0.0]).astype(complex), seed=1, count=500)
        d = sample_counts(spec, basis_povm(2))
        np.testing.assert_array_equal(d.counts, [500.0, 0.0])

    def test_frequencies_within_three_sigma(self):
        n = 30000
        spec = SimulationSpec(state=np.diag([1 / 3, 2 / 3]).astype(complex), seed=2, count=n)
        d = sample_counts(spec, basis_povm(2))
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(d.counts[0] / n - 1 / 3) <= 3 * sigma

    def test_deterministic_given_seed(self):
        spec = SimulationSpec(state=np.diag([0.25, 0.75]).astype(complex), seed=7, count=1000)
        a = sample_counts(spec, basis_povm(2))
        b = sample_counts(spec, basis_povm(2))
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_incomplete_povm_rejected(self):
        spec = SimulationSpec(state=np.eye(2, dtype=complex) / 2, seed=0, count=10)
        partial = np.stack([np.diag([1.0, 0j]), np.diag([0j, 0.5])])
        with pytest.raises(ValidationError, match="incomplete"):
            sample_counts(spec, partial)

    @pytest.mark.parametrize(
        "povm, message",
        [(np.eye(2), r"elements must be a \(k, dim, dim\) stack, got \(2, 2\)"),
         (basis_povm(3), "POVM dimension does not match the true state")],
        ids=["not-a-stack", "wrong-dim"],
    )
    def test_malformed_povm_rejected(self, povm, message):
        spec = SimulationSpec(state=np.eye(2, dtype=complex) / 2, seed=0, count=10)
        with pytest.raises(ValidationError, match=message):
            sample_counts(spec, povm)

    def test_chi_square_goodness_of_fit(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim)
            spec = SimulationSpec(state=rho, seed=seed, count=20000)
            d = sample_counts(spec, basis_povm(dim))
            expected = np.diag(rho).real * spec.count
            _, p_value = stats.chisquare(d.counts, expected)
            assert p_value > 0.001


class TestSampleQuadratures:
    def test_vacuum_variance_one_half(self):
        dim = 10
        spec = SimulationSpec(state=preset_state("vacuum", dim), seed=11, count=20000)
        _, xs = sample_quadratures(spec, [0.0, 1.0, 2.0], dim)
        assert xs.var() == pytest.approx(0.5, rel=0.05)

    def test_superposition_mean_at_phase_zero(self):
        # <x> = 1/sqrt(2) for (|0>+|1>)/sqrt(2); sigma of the mean = sqrt(var/n)
        dim = 10
        n = 20000
        spec = SimulationSpec(state=preset_state("superposition01", dim), seed=12, count=n)
        _, xs = sample_quadratures(spec, [0.0], dim)
        sigma_mean = np.sqrt(0.5 / n)  # var(x) = <x^2> - <x>^2 = 1 - 1/2
        assert abs(xs.mean() - 1 / np.sqrt(2)) <= 3 * sigma_mean

    @pytest.mark.parametrize("n", [20, 29])
    def test_high_fock_states_keep_their_tails(self, n):
        """<x^2> = n + 1/2 for Fock n, and var(x^2) = (n^2 + n + 1)/2; Fock 20 has 20% of its mass outside [-6, 6]."""
        state = np.diag(np.eye(n + 1)[n]).astype(complex)
        _, xs = sample_quadratures(SimulationSpec(state=state, seed=1, count=20000), [0.0, 1.0, 2.0], n + 1)
        assert abs(np.mean(xs**2) - (n + 0.5)) <= 5 * np.sqrt((n * n + n + 1) / 2 / xs.size)

    def test_low_fock_states_keep_the_six_unit_grid(self):
        for n in range(5):
            state = np.diag(np.eye(n + 1)[n]).astype(complex)
            np.testing.assert_array_equal(_quadrature_grid(state), np.linspace(-6.0, 6.0, QUAD_GRID_POINTS))
        assert _quadrature_grid(np.diag(np.eye(6)[5]).astype(complex))[-1] > 6.0

    def test_deterministic_given_seed(self):
        dim = 6
        spec = SimulationSpec(state=preset_state("superposition01", dim), seed=5, count=200)
        a = np.stack(sample_quadratures(spec, [0.0, 0.5], dim)).tolist()
        b = np.stack(sample_quadratures(spec, [0.0, 0.5], dim)).tolist()
        assert a == b

    def test_phases_drawn_from_list(self):
        dim = 4
        phases = [0.0, 0.7, 1.9]
        spec = SimulationSpec(state=preset_state("vacuum", dim), seed=6, count=500)
        thetas, _ = sample_quadratures(spec, phases, dim)
        assert set(thetas.tolist()) == set(phases)

    @pytest.mark.parametrize(
        "phases, dim, message",
        [([], 2, "need at least one phase"), ([0.0, np.nan], 2, "phases must be finite"),
         ([0.0], 0, "dimension must be at least 1"), ([0.0], 3, "true state dimension does not match requested dim"),
         ([0.0], 2.5, "dimension must be an integer, got 2.5")],
        ids=["no-phase", "nan-phase", "zero-dim", "wrong-dim", "float-dim"],
    )
    def test_bad_arguments_rejected(self, phases, dim, message):
        spec = SimulationSpec(state=preset_state("vacuum", 2), seed=0, count=10)
        with pytest.raises(ValidationError, match=message):
            sample_quadratures(spec, phases, dim)

    def test_density_table_nonnegative_and_normalized(self):
        rng = np.random.default_rng(4)
        grid = np.linspace(-6.0, 6.0, QUAD_GRID_POINTS)
        for _ in range(5):
            rho = random_density(rng, 6)  # support well below dim - 2 tail threshold
            density = quadrature_density_table(rho, float(rng.uniform(0, np.pi)), grid)
            assert np.all(density >= 0.0)
            mass = np.trapezoid(density, grid)
            assert 0.999 <= mass <= 1.0 + 1e-9


class TestPresets:
    def test_vacuum(self):
        state = preset_state("vacuum", 5)
        assert state[0, 0] == 1.0
        assert state.trace().real == pytest.approx(1.0)

    def test_superposition01(self):
        state = preset_state("superposition01", 5)
        np.testing.assert_allclose(state[:2, :2], np.full((2, 2), 0.5), atol=1e-15)

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            preset_state("cat", 5)

    @pytest.mark.parametrize(
        "name, dim, message",
        [pytest.param("superposition01", 1, "dimension 1 is too small for preset 'superposition01'",
                      id="superposition01-1"),
         pytest.param("vacuum", 0, "dimension must be at least 1", id="vacuum-0")],
    )
    def test_dimension_too_small_rejected(self, name, dim, message):
        with pytest.raises(ValidationError, match=message):
            preset_state(name, dim)

    @pytest.mark.parametrize("dim", [2.5, True])
    def test_non_integer_dimension_rejected(self, dim):
        with pytest.raises(ValidationError, match=f"dimension must be an integer, got {dim!r}"):
            preset_state("vacuum", dim)

    def test_spec_validates_state(self):
        with pytest.raises(ValidationError):
            SimulationSpec(state=np.diag([1.5, -0.5]).astype(complex), seed=0, count=5)

    def test_spec_rejects_zero_count(self):
        with pytest.raises(ValidationError):
            SimulationSpec(state=np.eye(2, dtype=complex) / 2, seed=0, count=0)

    @pytest.mark.parametrize("count", [2.5, True])
    def test_spec_rejects_non_integer_count(self, count):
        with pytest.raises(ValidationError, match=f"sample count must be an integer, got {count!r}"):
            SimulationSpec(state=np.eye(2, dtype=complex) / 2, seed=0, count=count)

    @pytest.mark.parametrize("seed, message", [(-1, "seed must be at least 0"),
                                               (2.5, "seed must be an integer, got 2.5"),
                                               (True, "seed must be an integer, got True")])
    def test_spec_rejects_negative_seed(self, seed, message):
        with pytest.raises(ValidationError, match=message):
            SimulationSpec(state=np.eye(2, dtype=complex) / 2, seed=seed, count=5)
