import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxlik import DataFormatError, QuadratureSample, counterexample_dataset, fidelity, preset_state
from qmaxlik import io as qio
from qmaxlik.cli import main


@pytest.fixture
def counterexample_json(tmp_path):
    path = tmp_path / "qubit.json"
    qio.write_counts_dataset(path, counterexample_dataset())
    return path


class TestDatasetRoundTrip:
    def test_counts_json(self, tmp_path, counterexample_json):
        d = qio.parse_dataset(counterexample_json)
        assert d.total == 3.0
        np.testing.assert_array_equal(d.elements, counterexample_dataset().elements)

    def test_quadrature_csv(self, tmp_path):
        path = tmp_path / "quad.csv"
        samples = [QuadratureSample(0.1, -1.23456789012345678), QuadratureSample(2.0, 0.5)]
        qio.write_quadrature_csv(path, samples)
        again = qio.parse_quadrature_csv(path)
        assert again == samples  # 17 significant digits round-trip doubles exactly

    def test_csv_single_row_matches_projector_example(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("theta,x\n0.0,0.0\n")
        d = qio.parse_dataset(path, dim=2)
        np.testing.assert_allclose(d.elements[0], np.diag([np.pi ** -0.5, 0.0]), atol=1e-12)

    def test_csv_needs_dim(self, tmp_path):
        path = tmp_path / "quad.csv"
        path.write_text("theta,x\n0.0,0.0\n")
        with pytest.raises(DataFormatError):
            qio.parse_dataset(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            qio.parse_dataset(path)

    def test_negative_element_rejected_on_load(self, tmp_path):
        path = tmp_path / "neg.json"
        payload = {
            "dim": 2,
            "elements": [
                {"re": [[1.0, 0.0], [0.0, -0.5]], "im": [[0.0, 0.0], [0.0, 0.0]], "count": 1.0}
            ],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(Exception, match="eigenvalue"):
            qio.parse_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phi,value\n0.0,0.0\n")
        with pytest.raises(DataFormatError, match="header"):
            qio.parse_dataset(path, dim=2)

    def test_json_dim_must_match_file(self, counterexample_json):
        assert qio.parse_dataset(counterexample_json, dim=2).dim == 2
        with pytest.raises(DataFormatError, match="dim"):
            qio.parse_dataset(counterexample_json, dim=7)

    @pytest.mark.parametrize("text", ["{trunc", "[]", '{"dim": 2}', '{"dim": 2, "estimate": {"re": []}}'])
    def test_malformed_result_rejected(self, tmp_path, text):
        path = tmp_path / "result.json"
        path.write_text(text)
        with pytest.raises(DataFormatError):
            qio.parse_result_estimate(path)


class TestCliReconstruct:
    def test_fixed_epsilon_reaches_analytic_maximum(self, tmp_path, counterexample_json):
        out = tmp_path / "result.json"
        code = main(
            [
                "reconstruct",
                str(counterexample_json),
                "--out",
                str(out),
                "--strategy",
                "fixed",
                "--epsilon",
                "1",
            ]
        )
        assert code == 0
        estimate = qio.parse_result_estimate(out)
        assert np.max(np.abs(estimate - np.diag([1 / 3, 2 / 3]))) <= 1e-8
        manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
        assert all((tmp_path / p).exists() for p in map(lambda s: s.split("/")[-1], manifest["output_paths"]))
        assert manifest["wall_seconds_per_iteration"] > 0

    def test_rhor_flags_cycle_with_exit_four(self, tmp_path, counterexample_json):
        out = tmp_path / "cycle.json"
        code = main(["reconstruct", str(counterexample_json), "--out", str(out), "--strategy", "rhor"])
        assert code == 4
        payload = json.loads(out.read_text())
        assert payload["termination"] == "cycle_detected"
        assert payload["epsilon_trace"][0] == "inf"

    def test_malformed_input_exit_two_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        out = tmp_path / "never.json"
        code = main(["reconstruct", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_missing_input_exit_two(self, tmp_path):
        code = main(["reconstruct", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_validation_error_exit_three(self, tmp_path):
        path = tmp_path / "neg.json"
        payload = {
            "dim": 2,
            "elements": [
                {"re": [[1.0, 0.0], [0.0, -0.5]], "im": [[0.0, 0.0], [0.0, 0.0]], "count": 1.0}
            ],
        }
        path.write_text(json.dumps(payload))
        code = main(["reconstruct", str(path), "--out", str(tmp_path / "o.json")])
        assert code == 3

    def test_g_correction_flag_debiases(self, tmp_path):
        data = tmp_path / "incomplete.json"
        payload = {
            "dim": 2,
            "elements": [
                {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0] * 2] * 2, "count": 1.0},
                {"re": [[0.0, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2, "count": 1.0},
            ],
        }
        data.write_text(json.dumps(payload))
        out = tmp_path / "g.json"
        code = main(
            ["reconstruct", str(data), "--strategy", "fixed", "--epsilon", "1", "--g-correction",
             "--tol-element", "1e-12", "--out", str(out)]
        )
        assert code in (0, 4)
        estimate = qio.parse_result_estimate(out)
        assert np.max(np.abs(estimate - np.diag([1 / 3, 2 / 3]))) <= 1e-6

    def test_json_dim_mismatch_exit_two(self, tmp_path, counterexample_json):
        out = tmp_path / "o.json"
        assert main(["reconstruct", str(counterexample_json), "--dim", "7", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tol-residual", "--tol-element", "--tol-loglik"])
    def test_nan_tolerance_exit_three(self, tmp_path, counterexample_json, flag):
        out = tmp_path / "o.json"
        assert main(["reconstruct", str(counterexample_json), flag, "nan", "--out", str(out)]) == 3
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, counterexample_json):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["reconstruct", str(counterexample_json), "--strategy", "random", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) in (0, 4)
        assert main(args + ["--out", str(out2)]) in (0, 4)
        assert out1.read_bytes() == out2.read_bytes()


class TestCliSimulate:
    def test_quadrature_csv_contract(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(
            ["simulate", "--preset", "superposition01", "--n", "2000", "--phases", "12", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,x"
        assert len(lines) == 2001
        thetas = {line.split(",")[0] for line in lines[1:]}
        assert len(thetas) == 12

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--preset", "vacuum", "--n", "500", "--phases", "4", "--seed", "3"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_counts_roundtrip_identical(self, tmp_path):
        out = tmp_path / "counts.json"
        code = main(
            ["simulate", "--preset", "vacuum", "--dim", "3", "--n", "1000", "--format", "counts", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        d = qio.parse_dataset(out)
        assert d.total == 1000.0
        rewritten = tmp_path / "again.json"
        qio.write_counts_dataset(rewritten, d)
        assert rewritten.read_bytes() == out.read_bytes()

    def test_simulate_then_reconstruct_vacuum(self, tmp_path):
        data = tmp_path / "vac.csv"
        assert main(["simulate", "--preset", "vacuum", "--dim", "6", "--n", "4000", "--phases", "6", "--seed", "2", "--out", str(data)]) == 0
        out = tmp_path / "vac_result.json"
        code = main(
            ["reconstruct", str(data), "--dim", "6", "--strategy", "rhor", "--tol-residual", "1e-6", "--out", str(out)]
        )
        assert code in (0, 4)
        estimate = qio.parse_result_estimate(out)
        assert fidelity(estimate, preset_state("vacuum", 6)) >= 0.99


class TestCliSweep:
    def test_counterexample_sweep_inf_row_unconverged(self, tmp_path, counterexample_json):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                str(counterexample_json),
                "--epsilons",
                "1,inf",
                "--tolerances",
                "1e-6",
                "--max-iters",
                "500",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epsilon,tolerance,iterations,converged"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["inf"][3] == "false"  # the quadratic update cycles forever
        assert rows["1"][3] == "true"

    def test_reference_failure_aborts_sweep(self, tmp_path, counterexample_json):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", str(counterexample_json), "--epsilons", "1", "--tolerances", "1e-6",
             "--max-iters", "2", "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, code",
        [
            ("--epsilons", "abc", 2),
            ("--epsilons", "1,2x", 2),
            ("--tolerances", "1e-3,oops", 2),
            ("--epsilons", "nan,1", 3),
            ("--epsilons", "0,1", 3),
            ("--epsilons", "-1", 3),
            ("--epsilons", "-inf", 3),
            ("--tolerances", "nan", 3),
            ("--tolerances", "0", 3),
            ("--tolerances", "inf", 3),
            ("--tolerances", ",", 3),
        ],
    )
    def test_bad_list_flag_rejected(self, tmp_path, counterexample_json, flag, value, code):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", str(counterexample_json), f"{flag}={value}", "--max-iters", "50", "--out", str(out)]
        assert main(argv) == code
        assert not out.exists()

    def test_truncated_cache_is_rewritten(self, tmp_path, counterexample_json):
        cache = tmp_path / "cache"
        args = ["sweep", str(counterexample_json), "--epsilons", "0.5,inf", "--tolerances", "1e-4",
                "--cache-dir", str(cache)]
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        assert main(args + ["--out", str(cold)]) == 0
        (cached,) = cache.glob("reference-*.json")
        intact = cached.read_bytes()
        cached.write_bytes(intact[: len(intact) // 2])
        assert main(args + ["--out", str(warm)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        assert cached.read_bytes() == intact

    def test_cache_entry_of_other_max_iters_is_a_miss(self, tmp_path, counterexample_json):
        cache = tmp_path / "cache"
        args = ["sweep", str(counterexample_json), "--epsilons", "1", "--tolerances", "1e-4",
                "--cache-dir", str(cache), "--out", str(tmp_path / "sweep.csv")]
        assert main(args + ["--max-iters", "300"]) == 0
        (first,) = cache.glob("reference-*.json")
        stamp = first.stat().st_mtime_ns
        assert main(args + ["--max-iters", "400"]) == 0
        assert len(list(cache.glob("reference-*.json"))) == 2  # solved again, under its own key
        assert first.stat().st_mtime_ns == stamp

    def test_reference_cache_reused(self, tmp_path, counterexample_json):
        out = tmp_path / "sweep.csv"
        cache = tmp_path / "cache"
        args = [
            "sweep",
            str(counterexample_json),
            "--epsilons",
            "1",
            "--tolerances",
            "1e-4",
            "--cache-dir",
            str(cache),
            "--out",
            str(out),
        ]
        assert main(args) == 0
        cached = list(cache.glob("reference-*.json"))
        assert len(cached) == 1
        stamp = cached[0].stat().st_mtime_ns
        assert main(args) == 0
        assert cached[0].stat().st_mtime_ns == stamp  # untouched on the second run


_NUMBER = st.one_of(
    st.floats(min_value=1e-12, max_value=1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e400", "1e-400", "abc", "", " 1 ", "1,"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_LIST = st.lists(_NUMBER, max_size=3).map(",".join)
_DIM = st.one_of(st.none(), st.just("2"), st.sampled_from(["-1", "0", "3", "x", "2.5", ""]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["reconstruct", "sweep"]),
    lists=st.tuples(_LIST, _LIST),
    tolerances=st.tuples(_NUMBER, _NUMBER, _NUMBER),
    dim=_DIM,
)
def test_cli_flag_fuzz(tmp_path_factory, command, lists, tolerances, dim):
    """Any list, tolerance or --dim value ends in a documented exit code, never a traceback."""
    workdir = tmp_path_factory.mktemp("fuzz")
    data = workdir / "qubit.json"
    qio.write_counts_dataset(data, counterexample_dataset())
    argv = [command, str(data), "--out", str(workdir / "out")]
    if command == "reconstruct":
        flags = ["--tol-residual", "--tol-element", "--tol-loglik"]
        argv += [f"{flag}={value}" for flag, value in zip(flags, tolerances)] + ["--max-iters", "20"]
    else:
        argv += [f"--epsilons={lists[0]}", f"--tolerances={lists[1]}", "--max-iters", "50"]
    if dim is not None:
        argv.append(f"--dim={dim}")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed number itself
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()


class TestStateFiles:
    def test_state_roundtrip(self, tmp_path):
        path = tmp_path / "state.json"
        state = preset_state("superposition01", 4)
        qio.write_state(path, state)
        again = qio.parse_state(path)
        np.testing.assert_array_equal(again, state)

    def test_invalid_state_rejected(self, tmp_path):
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps({"dim": 2, "re": [[2.0, 0.0], [0.0, -1.0]], "im": [[0.0] * 2] * 2}))
        with pytest.raises(Exception, match="semidefinite"):
            qio.parse_state(path)
