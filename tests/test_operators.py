import numpy as np
import pytest

from qmaxlik import ValidationError, fidelity, hermitize, normalize, validate_density
from support import random_density


class TestHermitize:
    def test_identity_unchanged(self):
        np.testing.assert_array_equal(hermitize(np.eye(2)), np.eye(2))

    def test_upper_triangular_example(self):
        m = np.array([[1.0, 1j], [0.0, 1.0]])
        expected = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        np.testing.assert_allclose(hermitize(m), expected, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        once = hermitize(m)
        np.testing.assert_array_equal(hermitize(once), once)

    def test_output_exactly_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(1, 10))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = hermitize(m)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-15

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            hermitize(np.ones((2, 3)))


class TestNormalize:
    def test_uniform_scaling(self):
        np.testing.assert_allclose(normalize(np.diag([2.0, 2.0])), np.diag([0.5, 0.5]))

    def test_diluted_step_intermediate(self):
        out = normalize(np.diag([25 / 72, 49 / 72]))
        np.testing.assert_allclose(out, np.diag([25 / 74, 49 / 74]), atol=1e-15)

    def test_already_normalized(self):
        np.testing.assert_allclose(normalize(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))

    def test_trace_one_for_random_positive_trace(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            m = hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            m += np.eye(dim) * (abs(m.trace().real) + 1.0)  # ensure positive trace
            assert abs(normalize(m).trace().real - 1.0) <= 1e-12

    def test_rejects_tiny_trace(self):
        with pytest.raises(ValidationError):
            normalize(np.diag([1e-11, -1e-11]))

    def test_rejects_nan_trace(self):
        with pytest.raises(ValidationError, match="not normalizable"):
            normalize(np.full((2, 2), np.nan))


class TestValidateDensity:
    def test_accepts_uniform(self):
        validate_density(np.diag([0.5, 0.5]))

    def test_accepts_mixed(self):
        validate_density(np.diag([1 / 3, 2 / 3]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            validate_density(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            validate_density(np.diag([0.7, 0.7]))


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_versus_pure(self):
        assert fidelity(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            a, b = random_density(rng, dim), random_density(rng, dim)
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-10

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            f = fidelity(random_density(rng, dim), random_density(rng, dim))
            assert 0.0 <= f <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity(np.eye(2) / 2, np.eye(3) / 3)
