import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxlik import (
    Dataset,
    GOperator,
    QuadratureDataset,
    SimulationSpec,
    ValidationError,
    counterexample_dataset,
    hermitize,
    outcome_probabilities,
    preset_state,
    quadrature_dataset,
    quadrature_projector,
    r_operator,
    reconstruct,
    sample_quadratures,
)
from qmaxlik import dataset
from qmaxlik.dataset import POOLED_BELOW, PROBABILITY_FLOOR, product_basis, product_table, wavefunction_table
from support import (CASE_DIMS, homodyne_case, max_difference, phase_layouts, quadrature_record, random_dataset,
                     random_density, sum_tolerance)


class TestDataset:
    def test_counterexample_fields(self):
        d = counterexample_dataset()
        assert d.dim == 2
        assert d.n_outcomes == 2
        assert d.total == 3.0
        np.testing.assert_array_equal(d.counts, [1.0, 2.0])

    def test_total_matches_count_sum(self):
        rng = np.random.default_rng(0)
        d = random_dataset(rng, 3)
        assert d.total == pytest.approx(d.counts.sum(), rel=1e-12)

    def test_kernels_read_the_stack_in_place(self):
        """nbytes counts the stack once, though the kernels read it through a stored view, and no kernel call
        allocates anything near the stack's size: none copies it."""
        rng = np.random.default_rng(4)
        dim, k = 16, 2048  # an 8 MB stack
        vectors = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
        d = Dataset(elements=np.einsum("ki,kj->kij", vectors, vectors.conj()) / k, counts=rng.uniform(0.5, 10.0, k))
        assert d.nbytes == d.elements.nbytes + d.counts.nbytes
        rho = random_density(rng, dim)
        for call in (lambda: d.traces(rho), lambda: d.weighted_sum(d.counts), lambda: d.likelihood_terms(rho),
                     lambda: d.traces(np.asfortranarray(rho)), lambda: d.traces(rho.real), d.element_sum):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < d.elements.nbytes / 64

    def test_rejects_all_zero_counts(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError, match="positive count"):
            Dataset(elements=np.stack([eye / 2, eye / 2]), counts=np.zeros(2))

    def test_rejects_negative_counts(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            Dataset(elements=np.stack([eye, eye]), counts=np.array([1.0, -2.0]))

    def test_rejects_non_hermitian_element(self):
        for skew in (1.0, 1e-10):  # 1e-10: the Hermiticity tolerance is 1e-12
            bad = np.array([[1.0, skew], [0.0, 1.0]], dtype=complex)
            with pytest.raises(ValidationError, match="a measurement element is not Hermitian: skew"):
                Dataset(elements=bad[None], counts=np.array([1.0]))

    def test_rejects_negative_element(self):
        bad = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(ValidationError, match="eigenvalue"):
            Dataset(elements=bad[None], counts=np.array([1.0]))

    def test_rejects_count_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Dataset(elements=np.eye(2, dtype=complex)[None], counts=np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "elements, counts, message",
        [(np.empty((0, 2, 2)), [], "dataset has no measurement records"),
         (np.eye(2), [1.0, 1.0], r"elements must be a \(k, dim, dim\) stack, got \(2, 2\)"),
         (np.ones((1, 2, 3)), [1.0], r"elements must be a \(k, dim, dim\) stack, got \(1, 2, 3\)"),
         (np.zeros((2, 0, 0)), [1.0, 1.0], r"elements must be a \(k, dim, dim\) stack, got \(2, 0, 0\)")],
        ids=["no-outcomes", "one-matrix", "not-square", "zero-dim"],
    )
    def test_rejects_malformed_stack(self, elements, counts, message):
        with pytest.raises(ValidationError, match=message):
            Dataset(elements=elements, counts=np.array(counts))

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_element(self, part, value):
        element = np.eye(2, dtype=complex) / 2
        getattr(element, part)[0, 1] = value
        with pytest.raises(ValidationError, match="must be finite"):
            Dataset(elements=np.stack([element, np.eye(2) / 2]), counts=np.array([1.0, 1.0]))



class TestGOperator:
    def test_complete_povm_gives_identity(self):
        g = GOperator.from_dataset(counterexample_dataset())
        np.testing.assert_array_equal(g.matrix, np.eye(2))
        np.testing.assert_allclose(g.inverse, np.eye(2), atol=1e-14)
        assert g.condition == pytest.approx(1.0)

    def test_matches_element_sum(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 4)
        g = GOperator.from_dataset(d)
        assert np.max(np.abs(g.matrix - d.element_sum())) <= 1e-10

    def test_inverse_within_tolerance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = random_dataset(rng)
            g = GOperator.from_dataset(d)
            assert np.max(np.abs(g.matrix @ g.inverse - np.eye(d.dim))) <= 1e-8

    def test_inverse_and_condition_derived_from_matrix(self):
        g = GOperator(np.diag([1.0, 4.0]))
        assert g.condition == 4.0
        np.testing.assert_array_equal(g.inverse, np.diag([1.0, 0.25]))

    def test_ill_conditioned_matrix_rejected(self):
        with pytest.raises(ValidationError, match="ill-conditioned"):
            GOperator(np.diag([1.0, 1e-14]))

    def test_singular_sum_rejected(self):
        # element supported on |0> only: the sum cannot be inverted on a qubit
        el = np.diag([1.0, 0.0]).astype(complex)
        d = Dataset(elements=el[None], counts=np.array([3.0]))
        with pytest.raises(ValidationError, match="singular"):
            GOperator.from_dataset(d)


class TestQuadratureDataset:
    def test_owns_its_arrays(self):
        thetas, xs, counts = np.zeros(3), np.array([0.0, 0.5, 1.0]), np.ones(3)
        record = QuadratureDataset(thetas=thetas, xs=xs, counts=counts, dim=2)
        thetas[0], xs[0], counts[0] = 1.0, 9.0, 1e9
        np.testing.assert_array_equal(record.thetas, np.zeros(3))
        np.testing.assert_array_equal(record.xs, [0.0, 0.5, 1.0])
        assert record.total == 3.0
        for stored in (record.thetas, record.xs, record.counts):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0

    @pytest.mark.parametrize("layout", ["few", "distinct", "mix", "single", "unequal"])
    def test_kernels_match_element_stack(self, layout):
        """The record's kernels against those of counted Datasets on its per-sample projector stack, the record
        contract's cached one: one Dataset per 256 projectors, so no stack-sized copy is made."""
        rng = np.random.default_rng(11)
        for dim in CASE_DIMS:
            record, stack = homodyne_case(layout, dim)
            grouped, pooled = len(record._slabs) > 0, len(record._chi) > 0
            assert (grouped, pooled) == {"few": (True, False), "distinct": (False, True), "mix": (True, True),
                                         "single": (False, True), "unequal": (True, False)}[layout]
            rho = random_density(rng, dim)
            weights = rng.uniform(0.0, 2.0, size=record.n_outcomes)
            tol = sum_tolerance(record)
            assert max_difference(record.elements, stack) <= 1e-12
            traces, sums = [], np.zeros((3, dim, dim), dtype=complex)  # of the weights, of ones, and R
            for start in range(0, record.n_outcomes, 256):
                part = slice(start, start + 256)
                dense = Dataset(elements=stack[part], counts=record.counts[part])
                traces.append(dense.traces(rho))
                probs = np.maximum(traces[-1], PROBABILITY_FLOOR)
                sums += [dense.weighted_sum(w) for w in (weights[part], np.ones(dense.n_outcomes),
                                                          dense.counts / (record.total * probs))]
            assert np.max(np.abs(record.traces(rho) - np.concatenate(traces))) <= 1e-12
            assert np.max(np.abs(record.weighted_sum(weights) - sums[0])) <= tol
            assert np.max(np.abs(record.element_sum() - sums[1])) <= tol
            assert np.max(np.abs(r_operator(rho, record) - hermitize(sums[2]))) <= tol
            if layout == "single" and dim > 1:  # one rank-1 element: G cannot be inverted
                with pytest.raises(ValidationError, match="singular"):
                    GOperator.from_dataset(record)
            else:
                g, g_dense = GOperator.from_dataset(record), GOperator(sums[1])
                assert np.max(np.abs(g.matrix - g_dense.matrix)) <= tol
                assert np.max(np.abs(g.inverse - g_dense.inverse)) <= tol * g.condition

    @pytest.mark.parametrize("dim", [1, 5, 15, 30])
    def test_slabs_pad_at_most_a_quarter(self, dim):
        """One long phase amid short ones: the runs beside it share slabs, and the padding stays below a quarter
        of the grouped samples' floats, also at dim 1, where a run of 16 phases padded to 4,000 fits RUN_BYTES."""
        record = quadrature_record(np.random.default_rng(3), phase_layouts(np.random.default_rng(3))["unequal"], dim)
        grouped = record.n_outcomes - record._chi.shape[0]
        held = sum(slab.size for slab in record._slabs)
        assert any(slab.shape[0] > 1 for slab in record._slabs) and held > (2 * dim - 1) * grouped
        assert held <= 1.25 * (2 * dim - 1) * grouped

    @pytest.mark.parametrize("layout", ["few", "distinct", "mix", "single", "unequal"])
    def test_padding_is_inert(self, layout):
        """Padding slots have zero counts, so zero weights, and their traces are never gathered: with a large value
        written into every padding slot of every slab, each kernel returns the same bytes."""
        rng = np.random.default_rng(5)
        for dim in CASE_DIMS:
            record = quadrature_record(rng, phase_layouts(rng)[layout], dim)
            rho, weights = random_density(rng, dim), rng.uniform(0.0, 2.0, size=record.n_outcomes)

            def kernels():
                return [record.traces(rho), record.weighted_sum(weights), *record.likelihood_terms(rho),
                        record.element_sum()]

            before, padded = kernels(), 0
            for slab, (rows, _) in zip(record._slabs, record._spans):
                padding = record._flat_counts[rows].reshape(slab.shape[0], 1, -1) == 0  # every count is positive
                np.copyto(slab, 1e30, where=padding)
                padded += int(np.sum(padding))
            assert (padded > 0) == (layout == "unequal")
            for got, expected in zip(kernels(), before):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("run_bytes, runs", [(0, 20), (1 << 40, 1)], ids=["phase-per-run", "one-run"])
    def test_run_layout_leaves_kernels_unchanged(self, monkeypatch, run_bytes, runs):
        """20 phases of 64-80 samples and 30 pooled ones at dim 30: two or more padded runs by default, one run per
        phase, or one run for all."""
        rng = np.random.default_rng(4)
        grouped = np.repeat(np.linspace(0.0, 3.0, 20), POOLED_BELOW + np.arange(20) % 17)
        thetas = rng.permutation(np.concatenate([grouped, rng.uniform(0.0, np.pi, 30)]))
        xs, counts = rng.uniform(-4.0, 4.0, thetas.size), rng.uniform(0.5, 3.0, thetas.size)
        default = QuadratureDataset(thetas=thetas, xs=xs, counts=counts, dim=30)
        monkeypatch.setattr(dataset, "RUN_BYTES", run_bytes)
        record = QuadratureDataset(thetas=thetas, xs=xs, counts=counts, dim=30)
        assert 1 < len(default._slabs) < 20 and len(record._slabs) == runs
        rho, weights = random_density(rng, 30), rng.uniform(0.0, 2.0, thetas.size)
        pairs = [(record.traces(rho), default.traces(rho)),
                 (record.weighted_sum(weights), default.weighted_sum(weights)),
                 *zip(record.likelihood_terms(rho), default.likelihood_terms(rho))]
        for got, expected in pairs:
            assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_outcome_order_follows_input(self):
        rng = np.random.default_rng(12)
        thetas = phase_layouts(rng)["mix"]
        xs = rng.normal(size=thetas.size)
        rho = random_density(rng, 4)
        d = quadrature_dataset(thetas, xs, 4)
        expected = [(quadrature_projector(t, x, 4) @ rho).trace().real for t, x in zip(thetas, xs)]
        np.testing.assert_allclose(outcome_probabilities(rho, d), expected, rtol=0, atol=1e-13)
        perm = rng.permutation(len(xs))
        shuffled = quadrature_dataset(thetas[perm], xs[perm], 4)
        np.testing.assert_allclose(outcome_probabilities(rho, shuffled), np.asarray(expected)[perm],
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(shuffled.elements[3], quadrature_projector(thetas[perm[3]], xs[perm[3]], 4),
                                   atol=1e-14)

    @pytest.mark.parametrize("layout", ["few", "distinct", "mix", "single", "unequal"])
    def test_memory_is_linear_in_samples(self, layout):
        rng = np.random.default_rng(13)
        record = quadrature_record(rng, phase_layouts(rng)[layout], 15)
        m, d = record.n_outcomes, record.dim
        arrays = []
        for value in vars(record).values():
            arrays += value if isinstance(value, list) else [value]
        assert all(a.size < m * d * d for a in arrays if isinstance(a, np.ndarray))

    def test_rejects_inconsistent_phases(self):
        with pytest.raises(ValidationError, match="does not match"):
            QuadratureDataset(thetas=np.array([0.0, 1.0]), xs=np.array([0.5]), counts=np.array([1.0]), dim=2)

    @pytest.mark.parametrize("xs", [np.ones(()), np.ones((3, 1)), np.ones((1, 1, 2))])
    def test_rejects_table_of_wrong_shape(self, xs):
        with pytest.raises(ValidationError, match=r"xs must be a \(samples,\) array"):
            QuadratureDataset(thetas=np.zeros(xs.shape[:1]), xs=xs, counts=np.ones(xs.shape[:1]), dim=2)

    @pytest.mark.parametrize("dim, message", [(True, "dim must be an integer, got True"),
                                              (2.0, "dim must be an integer, got 2.0"), (0, "dim must be at least 1")])
    def test_rejects_dim_that_is_not_a_positive_integer(self, dim, message):
        with pytest.raises(ValidationError, match=message):
            QuadratureDataset(thetas=np.array([0.0]), xs=np.array([0.5]), counts=np.array([1.0]), dim=dim)

    def test_rejects_complex_or_nonfinite_table(self):
        with pytest.raises(ValidationError, match="real"):
            QuadratureDataset(thetas=np.array([0.0]), xs=np.array([1j]), counts=np.array([1.0]), dim=2)
        with pytest.raises(ValidationError, match="finite"):
            QuadratureDataset(thetas=np.array([0.0]), xs=np.array([np.nan]), counts=np.array([1.0]), dim=2)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(1, 8),
        phases=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
        repeats=st.integers(1, 2 * POOLED_BELOW),
        distinct=st.lists(st.floats(-10.0, 10.0), max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_r_has_unit_trace_against_rho(self, dim, phases, repeats, distinct, seed):
        rng = np.random.default_rng(seed)
        thetas = rng.permutation(np.concatenate([np.repeat(phases, repeats), distinct]))
        record = quadrature_record(rng, thetas, dim)
        # mixed with the identity so that no probability reaches the floor
        rho = 0.5 * random_density(rng, dim) + 0.5 * np.eye(dim) / dim
        assert abs((r_operator(rho, record) @ rho).trace().real - 1.0) <= 1e-10


def _extended_traces(record, rho):
    """tr(Pi_k rho) in np.longdouble from the record's phases and quadratures, for a Hermitian rho."""
    x = record.xs.astype(np.longdouble)
    psi = np.empty((record.dim, x.size), dtype=np.longdouble)
    psi[0] = np.arccos(np.longdouble(-1)) ** np.longdouble(-0.25) * np.exp(-x * x / 2)
    if record.dim > 1:
        psi[1] = np.sqrt(np.longdouble(2)) * x * psi[0]
    for n in range(1, record.dim - 1):
        psi[n + 1] = np.sqrt(np.longdouble(2) / (n + 1)) * x * psi[n] - np.sqrt(np.longdouble(n) / (n + 1)) * psi[n - 1]
    n = np.arange(record.dim)
    out = np.empty(x.size, dtype=np.longdouble)
    for theta in np.unique(record.thetas):
        angle = (n[None, :] - n[:, None]) * np.longdouble(theta)  # (b - a) theta
        twisted = rho.real.astype(np.longdouble) * np.cos(angle) - rho.imag.astype(np.longdouble) * np.sin(angle)
        on = record.thetas == theta
        out[on] = np.sum(psi[:, on] * (twisted @ psi[:, on]), axis=0)
    return out


class TestProductBasis:
    def test_table_reproduces_wavefunction_products(self):
        x = np.linspace(-10.0, 10.0, 2001)
        for dim in range(1, 31):
            table = product_table(dim)
            assert table is product_table(dim) and table.shape == (dim * dim, 2 * dim - 1)
            psi = wavefunction_table(dim, x)
            products = (psi[:, None] * psi[None]).reshape(dim * dim, x.size)
            assert np.max(np.abs(table @ product_basis(dim, x) - products)) <= 1e-13

    def test_traces_at_criterion_7_estimate_match_extended_precision(self):
        dim = 15
        spec = SimulationSpec(state=preset_state("superposition01", dim), seed=7, count=20000)
        record = quadrature_dataset(*sample_quadratures(spec, np.linspace(0.0, np.pi, 12, endpoint=False), dim), dim)
        rho = reconstruct(record).estimate
        reference = _extended_traces(record, rho)
        assert np.max(np.abs(record.traces(rho) - reference) / np.abs(reference)) <= 1e-12
