import numpy as np
import pytest

from qmaxlik import (
    Dataset,
    ValidationError,
    counterexample_dataset,
    outcome_probabilities,
    projector_from_state,
    quadrature_dataset,
    quadrature_projector,
    r_operator,
)
from qmaxlik.dataset import wavefunction_table


class TestProjectorFromState:
    def test_basis_vector(self):
        np.testing.assert_array_equal(projector_from_state([1.0, 0.0]), np.diag([1.0, 0.0]))

    def test_symmetric_superposition(self):
        p = projector_from_state(np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(p, np.full((2, 2), 0.5), atol=1e-15)

    def test_complex_vector_normalized(self):
        p = projector_from_state([1.0, 1.0j])
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        np.testing.assert_allclose(p, expected, atol=1e-15)

    def test_idempotent_rank_one(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            dim = int(rng.integers(2, 10))
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            p = projector_from_state(v)
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert p.trace().real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.matrix_rank(p, tol=1e-10) == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            projector_from_state([0.0, 0.0])


class TestCounterexampleDataset:
    def test_total_is_three(self):
        assert counterexample_dataset().total == 3.0

    def test_elements_sum_to_identity_exactly(self):
        d = counterexample_dataset()
        np.testing.assert_array_equal(d.element_sum(), np.eye(2))

    def test_analytic_maximum_from_brute_force(self):
        # the likelihood p (1-p)^2 peaks at p = 1/3 on the diagonal family
        ps = np.linspace(1e-3, 1 - 1e-3, 99_999)
        objective = ps * (1 - ps) ** 2
        assert ps[int(np.argmax(objective))] == pytest.approx(1 / 3, abs=1e-4)


class TestHarmonicWavefunction:
    """The rows of ``wavefunction_table`` are the oscillator eigenfunctions psi_0 .. psi_{dim-1}."""

    def test_ground_state_at_origin(self):
        assert wavefunction_table(1, 0.0)[0, 0] == pytest.approx(np.pi ** -0.25, abs=1e-12)

    def test_first_excited_odd_parity(self):
        assert wavefunction_table(2, 0.0)[1, 0] == 0.0

    def test_normalization_by_quadrature(self):
        xs = np.linspace(-10.0, 10.0, 20001)
        for values in wavefunction_table(15, xs):
            integral = np.trapezoid(values**2, xs)
            assert integral == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality_by_quadrature(self):
        xs = np.linspace(-10.0, 10.0, 20001)
        table = wavefunction_table(8, xs)
        assert abs(np.trapezoid(table[3] * table[7], xs)) <= 1e-8

    @pytest.mark.parametrize(
        "dim, x, message",
        [(0, 0.0, "dimension must be at least 1"), (3, [0.0, np.nan], "quadrature values must be finite"),
         (3, -np.inf, "quadrature values must be finite"), (2.5, 0.0, "dimension must be an integer, got 2.5")],
        ids=["zero-dim", "nan-x", "inf-x", "float-dim"],
    )
    def test_invalid_input_rejected(self, dim, x, message):
        with pytest.raises(ValidationError, match=message):
            wavefunction_table(dim, x)


class TestQuadratureProjector:
    def test_origin_sample(self):
        p = quadrature_projector(0.0, 0.0, 2)
        np.testing.assert_allclose(p, np.diag([np.pi ** -0.5, 0.0]), atol=1e-12)

    def test_trace_completeness_for_small_x(self):
        for x in np.linspace(-2.0, 2.0, 9):
            p = quadrature_projector(0.7, x, 30)
            assert p.trace().real >= 0.999

    def test_phase_pi_flips_off_diagonal_sign(self):
        x = 0.8
        p0 = quadrature_projector(0.0, x, 3)
        ppi = quadrature_projector(np.pi, x, 3)
        assert ppi[0, 1].real == pytest.approx(-p0[0, 1].real, abs=1e-12)

    def test_periodic_in_phase(self):
        s0 = (1.1, -0.4)
        s1 = (1.1 + 2 * np.pi, -0.4)
        a, b = quadrature_projector(*s0, 12), quadrature_projector(*s1, 12)
        assert np.max(np.abs(a - b)) <= 1e-12

    @pytest.mark.parametrize("theta, x", [(np.nan, 0.0), (0.0, np.inf)])
    def test_non_finite_sample_rejected(self, theta, x):
        with pytest.raises(ValidationError, match="phase and quadrature value must be finite"):
            quadrature_projector(theta, x, 3)

    def test_rank_one_psd_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = (float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(-4, 4)))
            p = quadrature_projector(*s, 10)
            assert np.max(np.abs(p - p.conj().T)) <= 1e-14
            values = np.linalg.eigvalsh(p)
            assert values[0] >= -1e-14
            assert np.sum(values > 1e-12) == 1


class TestQuadratureDataset:
    def test_one_record_per_sample(self):
        d = quadrature_dataset([0.0, 1.0, 2.0], [0.1, -0.2, 0.3], 4)
        assert d.n_outcomes == 3
        assert d.total == 3.0
        assert np.all(d.counts == 1.0)

    def test_merging_duplicates_preserves_r_and_probabilities(self):
        rng = np.random.default_rng(2)
        s = (0.3, 0.9)
        others = ([1.2, 2.1], [-0.5, 0.2])
        unmerged = quadrature_dataset([0.3, 0.3, 1.2, 2.1], [0.9, 0.9, -0.5, 0.2], 5)
        merged = Dataset(
            elements=np.concatenate(
                [quadrature_projector(*s, 5)[None], quadrature_dataset(*others, 5).elements]
            ),
            counts=np.array([2.0, 1.0, 1.0]),
        )
        rho = np.eye(5, dtype=complex) / 5
        np.testing.assert_allclose(
            r_operator(rho, unmerged), r_operator(rho, merged), atol=1e-13
        )
        assert np.sum(outcome_probabilities(rho, unmerged) * unmerged.counts) == pytest.approx(
            np.sum(outcome_probabilities(rho, merged) * merged.counts), rel=1e-12
        )

    def test_dim_fifteen_truncation(self):
        d = quadrature_dataset([0.0], [0.0], 15)
        assert d.dim == 15  # photon numbers 0..14

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            quadrature_dataset([], [], 4)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            quadrature_dataset([float("nan")], [0.0], 4)
