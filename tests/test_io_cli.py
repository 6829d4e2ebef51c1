import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmaxlik import DataFormatError, counterexample_dataset, fidelity, preset_state
from qmaxlik import cli, engine
from qmaxlik import io as qio
from qmaxlik.cli import main
from support import random_dataset


_ELEMENT = {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]], "count": 1.0}


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
        samples = [[0.1, 2.0], [-1.23456789012345678, 0.5]]
        qio.write_quadrature_csv(path, *samples)
        again = [values.tolist() for values in qio.parse_quadrature_csv(path)]
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

    @pytest.mark.parametrize(
        "name, payload, message",
        [
            ("data.txt", {}, "unsupported dataset extension '.txt' (use .json or .csv)"),
            ("data.json", {"elements": [_ELEMENT]}, "{path}: need integer 'dim', got None"),
            ("data.json", {"dim": 0, "elements": [_ELEMENT]}, "{path}: dim must be positive"),
            ("data.json", {"dim": 2, "elements": []}, "{path}: 'elements' must be a non-empty list"),
            ("data.json", {"dim": 2, "elements": [3]}, "{path}: element 0: must be an object"),
            ("data.json", {"dim": 2, "elements": [{"re": _ELEMENT["re"], "im": _ELEMENT["im"]}]},
             "{path}: element 0: need 're', 'im', and numeric 'count'"),
            ("data.json", {"dim": 2, "elements": [{**_ELEMENT, "re": [["a", 0.0], [0.0, 1.0]]}]},
             "{path}: element 0: re/im are not numeric arrays"),
            ("data.json", {"dim": 2, "elements": [{**_ELEMENT, "im": [[0.0, 0.0]]}]},
             "{path}: element 0: expected 2x2 re/im arrays, got (2, 2) and (1, 2)"),
        ],
        ids=["extension", "no-dim", "dim-zero", "no-elements", "element-not-object", "no-count", "re-not-numeric",
             "im-wrong-shape"],
    )
    def test_malformed_dataset_file_rejected(self, tmp_path, name, payload, message):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError) as excinfo:
            qio.parse_dataset(path)
        assert str(excinfo.value).startswith(message.format(path=path))

    @pytest.mark.parametrize("text", ["{trunc", "[]", '{"dim": 2}', '{"dim": 2, "estimate": {"re": []}}',
                                      '{"dim": 1e400, "estimate": {"re": [[1.0]], "im": [[0.0]]}}',
                                      '{"dim": true, "estimate": {"re": [[1.0]], "im": [[0.0]]}}'])
    def test_malformed_result_rejected(self, tmp_path, text):
        path = tmp_path / "result.json"
        path.write_text(text)
        with pytest.raises(DataFormatError):
            qio.parse_result_estimate(path)


class TestQuadratureCsvRows:
    """A bad row names its file and line; the CLI turns it into one line on stderr and exit 2."""

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ("theta,x\n0.0,0.1\n0.5,abc\n", ":3", "non-numeric value"),
            ("theta,x\n0.0,0.1,0.2\n", ":2", "expected two columns, got 3"),
            ("theta,x\n0.0,0.1\n0.5\n", ":3", "expected two columns, got 1"),
            ("theta,x\nnan,0.1\n", ":2", "values must be finite"),
            ("theta,x\n0.0,0.1\n0.2,inf\n", ":3", "values must be finite"),
            ("theta,x\n0.0,-inf\n", ":2", "values must be finite"),
            ("theta,x\n\n0.0,0.1\n\n0.5,x\n", ":5", "non-numeric value"),  # blank lines still count
            ("theta,x\r\n0.0,0.1\r\n0.5,1e999\r\n", ":3", "values must be finite"),
            ("theta,x\n", "", "no samples"),
            ("theta,x\n\n\n", "", "no samples"),
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, capsys, text, where, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataFormatError) as excinfo:
            qio.parse_quadrature_csv(path)
        assert str(excinfo.value).startswith(f"{path}{where}: {message}")
        out = tmp_path / "o.json"
        assert main(["reconstruct", str(path), "--dim", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}{where}: {message}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["theta,x\n\n0.0,0.1\n\n1.0,-0.2\n\n", "theta,x\r\n0.0,0.1\r\n1.0,-0.2\r\n", "theta,x\r\n0.0,0.1\r\n\r\n1.0,-0.2"],
    )
    def test_blank_lines_and_crlf_read_like_plain_rows(self, tmp_path, text):
        plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
        plain.write_bytes(b"theta,x\n0.0,0.1\n1.0,-0.2\n")
        other.write_bytes(text.encode())
        a, b = qio.parse_dataset(plain, dim=3), qio.parse_dataset(other, dim=3)
        assert b.n_outcomes == 2
        np.testing.assert_array_equal(b.thetas, a.thetas)
        np.testing.assert_array_equal(b.xs, a.xs)


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

    @pytest.mark.parametrize("part, value", [("re", float("nan")), ("im", float("inf"))])
    def test_non_finite_element_exit_three(self, tmp_path, capsys, part, value):
        path = tmp_path / "nan.json"
        element = {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]], "count": 1.0}
        element[part][0][1] = value
        path.write_text(json.dumps({"dim": 2, "elements": [element]}))
        out = tmp_path / "o.json"
        assert main(["reconstruct", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "validation error: measurement elements must be finite\n"
        assert not out.exists()

    def test_json_dim_mismatch_exit_two(self, tmp_path, counterexample_json):
        out = tmp_path / "o.json"
        assert main(["reconstruct", str(counterexample_json), "--dim", "7", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tol-residual", "--tol-element", "--tol-loglik"])
    def test_nan_tolerance_exit_three(self, tmp_path, counterexample_json, flag):
        out = tmp_path / "o.json"
        for value in ("nan", "inf"):
            assert main(["reconstruct", str(counterexample_json), flag, value, "--out", str(out)]) == 3
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, counterexample_json):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["reconstruct", str(counterexample_json), "--strategy", "random", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) in (0, 4)
        assert main(args + ["--out", str(out2)]) in (0, 4)
        assert out1.read_bytes() == out2.read_bytes()

    def test_exit_code_reads_the_engine_converged_set(self):
        assert cli.CONVERGED is engine.CONVERGED


class TestUnwritableOutput:
    """An output that cannot be written is one line naming it and the reason: exit 3, no temporary file left."""

    @pytest.mark.parametrize(
        "argv, target, reason",
        [
            (["reconstruct", "{data}", "--out", "{tmp}/folder"], "folder", "Is a directory"),
            (["reconstruct", "{data}", "--out", "{tmp}/missing/r.json"], "missing/r.json", "No such file"),
            (["reconstruct", "{data}", "--out", "{tmp}/plain/r.json"], "plain/r.json", "Not a directory"),
            (["simulate", "--n", "10", "--out", "{tmp}/missing/x.csv"], "missing/x.csv", "No such file"),
            (["sweep", "{data}", "--cache-dir", "{tmp}/plain", "--out", "{tmp}/s.csv"], "plain", "File exists"),
            (["sweep", "{data}", "--cache-dir", "{tmp}/plain/sub", "--out", "{tmp}/s.csv"], "plain/sub",
             "Not a directory"),
            (["sweep", "{data}", "--out", "{tmp}/missing/s.csv"], "missing/s.csv", "No such file"),
        ],
    )
    def test_exit_three_with_one_line(self, tmp_path, capsys, counterexample_json, argv, target, reason):
        (tmp_path / "folder").mkdir()
        (tmp_path / "plain").write_text("a regular file\n")
        argv = [arg.format(data=counterexample_json, tmp=tmp_path) for arg in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"write error: {tmp_path / target}: {reason}"), err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    def test_checked_before_the_solve(self, tmp_path, capsys, monkeypatch, counterexample_json, command):
        def refuse(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(cli, "reconstruct", refuse)
        monkeypatch.setattr(cli, "reference_solution", refuse)
        (tmp_path / "folder").mkdir()
        assert main([command, str(counterexample_json), "--out", str(tmp_path / "folder")]) == 3
        assert capsys.readouterr().err == f"write error: {tmp_path / 'folder'}: Is a directory\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["folder", counterexample_json.name]

    @pytest.mark.parametrize("cache_dir, reason", [("plain", "File exists"), ("plain/sub", "Not a directory")])
    def test_cache_dir_checked_before_the_solve(self, tmp_path, capsys, monkeypatch, counterexample_json,
                                                cache_dir, reason):
        def refuse(*args, **kwargs):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr(cli, "reference_solution", refuse)
        (tmp_path / "plain").write_text("a regular file\n")
        argv = ["sweep", str(counterexample_json), "--cache-dir", str(tmp_path / cache_dir),
                "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"write error: {tmp_path / cache_dir}: {reason}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["plain", counterexample_json.name]


class TestStrategyFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reconstruct", "{data}", "--strategy", "random", "--seed", "-1"], "seed must be at least 0"),
            (["reconstruct", "{data}", "--strategy", "random", "--epsilon", "inf"], "epsilon_max must be finite"),
            (["simulate", "--n", "10", "--seed", "-1"], "seed must be at least 0"),
            (["reconstruct", "{data}", "--strategy", "fixed"], "--strategy fixed requires --epsilon"),
            (["reconstruct", "{data}", "--strategy", "fixed", "--epsilon", "0"], "epsilon must be positive"),
            (["reconstruct", "{data}", "--strategy", "fixed", "--epsilon", "nan"], "epsilon must be positive"),
            (["reconstruct", "{data}", "--strategy", "adaptive", "--epsilon", "0.001"],
             "--strategy adaptive takes no --epsilon"),
            (["reconstruct", "{data}", "--strategy", "rhor", "--epsilon", "1"], "--strategy rhor takes no --epsilon"),
            (["reconstruct", "{data}", "--strategy", "linesearch", "--epsilon", "1"],
             "--strategy linesearch takes no --epsilon"),
            (["reconstruct", "{csv}", "--dim", "2", "--g-correction"],
             "G-correction is for counted records: a homodyne record is already normalized"),
            (["simulate", "--state-file", "{state}", "--dim", "9", "--format", "counts"],
             "--state-file takes no --dim"),
            (["simulate", "--format", "counts", "--phases", "7", "--dim", "3"], "--format counts takes no --phases"),
        ],
    )
    def test_exit_three_with_one_line(self, tmp_path, capsys, counterexample_json, argv, message):
        out, csv, state = tmp_path / "out.json", tmp_path / "q.csv", tmp_path / "s.json"
        qio.write_quadrature_csv(csv, np.zeros(3), np.array([0.0, 0.5, 1.0]))
        qio.write_state(state, preset_state("vacuum", 2))
        argv = [arg.format(data=counterexample_json, csv=csv, state=state) for arg in argv]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()

    def test_fixed_infinite_epsilon_writes_the_rhor_result(self, tmp_path, counterexample_json):
        results = []
        for flags in (["--strategy", "rhor"], ["--strategy", "fixed", "--epsilon", "inf"]):
            out = tmp_path / f"{flags[1]}.json"
            assert main(["reconstruct", str(counterexample_json), "--out", str(out)] + flags) == 4
            results.append(out.read_bytes())
        assert results[0] == results[1]

    def test_huge_finite_epsilon_is_the_quadratic_step(self, tmp_path, counterexample_json):
        """No overflow warning (the suite runs with warnings as errors), and the rhor estimate."""

        def run(*flags):
            out = tmp_path / "out.json"
            assert main(["reconstruct", str(counterexample_json), "--out", str(out), *flags]) in (0, 4)
            return qio.parse_result_estimate(out)

        np.testing.assert_array_equal(run("--strategy", "fixed", "--epsilon", "1.7e308"), run("--strategy", "rhor"))
        run("--strategy", "random", "--epsilon", "1e308")


class TestUnreadableInput:
    """A file that cannot be read or decoded is a parse error naming it: exit 2, one line."""

    @staticmethod
    def _inputs(tmp_path):
        for suffix in (".csv", ".json"):
            binary = tmp_path / f"binary{suffix}"
            binary.write_bytes(b"theta,x\n0.0,\xff\xfe\n" if suffix == ".csv" else b'{"dim": 2\xff}')
            folder = tmp_path / f"folder{suffix}"
            folder.mkdir()
            yield binary
            yield folder

    @pytest.mark.parametrize("command", ["reconstruct", "sweep", "simulate"])
    def test_exit_two_with_one_line(self, tmp_path, capsys, command):
        for path in self._inputs(tmp_path):
            out = tmp_path / "out"
            if command == "simulate":
                argv = ["simulate", "--state-file", str(path), "--out", str(out)]
            else:
                argv = [command, str(path), "--dim", "2", "--max-iters", "50", "--out", str(out)]
            assert main(argv) == 2, path
            err = capsys.readouterr().err
            assert err.startswith(f"parse error: {path}: cannot read"), err
            assert err.count("\n") == 1
            assert not out.exists()

    def test_library_readers_raise_data_format_error(self, tmp_path):
        for path in self._inputs(tmp_path):
            readers = [lambda p: qio.parse_dataset(p, dim=2), qio.parse_state, qio.parse_result_estimate]
            if path.suffix == ".csv":
                readers.append(qio.parse_quadrature_csv)
            for reader in readers:
                with pytest.raises(DataFormatError, match="cannot read"):
                    reader(path)


class TestCliSimulate:
    def test_quadrature_csv_contract(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(
            ["simulate", "--preset", "superposition01", "--n", "2000", "--phases", "12", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        assert b"\r" not in out.read_bytes()
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

    @pytest.mark.parametrize("phases", ["0", "-1"])
    def test_bad_phases_exit_three(self, tmp_path, capsys, phases):
        out = tmp_path / "data.csv"
        assert main(["simulate", "--n", "10", "--phases", phases, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("validation error:")
        assert not out.exists()

    @pytest.mark.parametrize("fmt, name", [("counts", "c.csv"), ("quadrature", "q.json"), ("quadrature", "q.JSON"),
                                           ("quadrature", "q.txt"), ("counts", "c.txt"), ("quadrature", "q"),
                                           ("counts", "c")])
    def test_format_contradicting_out_extension_exit_three(self, tmp_path, capsys, fmt, name):
        out = tmp_path / name
        assert main(["simulate", "--n", "10", "--dim", "2", "--format", fmt, "--out", str(out)]) == 3
        suffix = {"quadrature": ".csv", "counts": ".json"}[fmt]
        assert capsys.readouterr().err == f"validation error: --format {fmt} is written to a {suffix} file, not {name}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt, name", [("quadrature", "q.CSV"), ("counts", "c.Json")])
    def test_format_extension_is_case_insensitive(self, tmp_path, fmt, name):
        assert main(["simulate", "--n", "10", "--dim", "2", "--format", fmt, "--out", str(tmp_path / name)]) == 0
        assert main(["reconstruct", str(tmp_path / name), "--dim", "2", "--out", str(tmp_path / "r.json")]) in (0, 4)

    def test_unnormalized_state_file_prints_the_trace_as_a_number(self, tmp_path, capsys):
        state = tmp_path / "s.json"
        qio.write_state(state, np.diag([1.0, 0.4]))
        out = tmp_path / "s.csv"
        assert main(["simulate", "--state-file", str(state), "--dim", "2", "--n", "10", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "validation error: trace 1.4 differs from 1 by more than 1.0e-08\n"
        assert not out.exists()

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
        assert b"\r" not in out.read_bytes()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epsilon,tolerance,iterations,converged"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["inf"][3] == "false"  # the quadratic update cycles forever
        assert rows["1"][3] == "true"

    def test_reference_failure_aborts_sweep(self, tmp_path):
        data = tmp_path / "povm3.json"  # the regression table's povm3: its reference needs more than 2 steps
        qio.write_counts_dataset(data, random_dataset(np.random.default_rng(3), dim=3, n_outcomes=10))
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", str(data), "--epsilons", "1", "--tolerances", "1e-6",
             "--max-iters", "2", "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize("max_iters", ["0", "-3"])
    def test_bad_max_iters_exit_three(self, tmp_path, counterexample_json, capsys, max_iters):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", str(counterexample_json), "--max-iters", max_iters, "--out", str(out)]
        assert main(argv) == 3
        assert "max_iterations must be at least 1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["qubit.json"]  # no output, no cache directory

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

    @pytest.mark.parametrize("tamper", ["dim_one", "nan"])
    def test_tampered_cache_entry_is_rewritten(self, tmp_path, counterexample_json, tamper):
        cache = tmp_path / "cache"
        args = ["sweep", str(counterexample_json), "--epsilons", "0.5,inf", "--tolerances", "1e-4",
                "--max-iters", "500", "--cache-dir", str(cache)]
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        assert main(args + ["--out", str(cold)]) == 0
        (cached,) = cache.glob("reference-*.json")
        intact = cached.read_bytes()
        payload = json.loads(intact)
        if tamper == "dim_one":  # a well-formed result file of the wrong dimension
            payload["dim"], payload["estimate"] = 1, {"re": [[1.0]], "im": [[0.0]]}
        else:
            payload["estimate"]["re"][0][0] = float("nan")
        cached.write_text(json.dumps(payload))
        assert qio.parse_result_estimate(cached).shape in ((1, 1), (2, 2))  # still parses
        assert main(args + ["--out", str(warm)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        assert cached.read_bytes() == intact

    @pytest.mark.parametrize("change", ["max_iters", "solver"])
    def test_cache_entry_of_other_key_is_a_miss(self, tmp_path, counterexample_json, monkeypatch, change):
        cache = tmp_path / "cache"
        args = ["sweep", str(counterexample_json), "--epsilons", "1", "--tolerances", "1e-4",
                "--cache-dir", str(cache), "--out", str(tmp_path / "sweep.csv")]
        assert main(args + ["--max-iters", "300"]) == 0
        (first,) = cache.glob("reference-*.json")
        stamp = first.stat().st_mtime_ns
        if change == "solver":  # as after an edit to the package's sources or another numpy
            monkeypatch.setattr(cli, "SOLVER_DIGEST", "0" * 64)
        assert main(args + ["--max-iters", "400" if change == "max_iters" else "300"]) == 0
        assert len(list(cache.glob("reference-*.json"))) == 2  # solved again, under its own key
        assert first.stat().st_mtime_ns == stamp

    def test_dim_flag_matching_the_file_shares_the_cache_entry(self, tmp_path, counterexample_json):
        cache = tmp_path / "cache"
        args = ["sweep", str(counterexample_json), "--epsilons", "1", "--tolerances", "1e-4",
                "--cache-dir", str(cache), "--out", str(tmp_path / "sweep.csv")]
        assert main(args) == 0
        assert main(args + ["--dim", "2"]) == 0  # the file's own dim: the same reference solve
        assert len(list(cache.glob("reference-*.json"))) == 1

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

    def test_printed_rows_write_inf_as_the_csv_does(self, tmp_path, capsys, counterexample_json):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(counterexample_json), "--epsilons", "1,inf", "--tolerances", "1e-3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ("eps=1 tol=0.001: 2 iterations, converged=True\n"
                                           "eps=inf tol=0.001: 2 iterations, converged=False\n")
        assert out.read_text().splitlines()[1:] == ["1,0.001,2,true", "inf,0.001,2,false"]


_MANIFEST_KEYS = ["command", "input_path", "output_paths", "config", "seed", "rng_algorithm",
                  "wall_seconds_total", "wall_seconds_per_iteration", "extra"]
_TOLERANCES = {"tol_residual": 1e-8, "tol_element": 1e-10, "tol_loglik": 1e-13}


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


class TestManifest:
    """Each command's ``<out>.manifest.json``: its keys in order and every value but the wall times."""

    @staticmethod
    def _read(out):
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text(),
                              parse_constant=_not_json)  # strict JSON: no Infinity or NaN
        assert list(manifest) == _MANIFEST_KEYS
        assert manifest.pop("wall_seconds_total") >= 0
        return manifest, manifest.pop("wall_seconds_per_iteration")

    def test_reconstruct(self, tmp_path, counterexample_json):
        out = tmp_path / "r.json"
        assert main(["reconstruct", str(counterexample_json), "--strategy", "fixed", "--epsilon", "1",
                     "--out", str(out)]) == 0
        manifest, per_iteration = self._read(out)
        assert per_iteration > 0
        assert manifest == {
            "command": "reconstruct", "input_path": str(counterexample_json), "output_paths": [str(out)],
            "config": {"command": "reconstruct", "input": str(counterexample_json), "out": str(out),
                       "strategy": "fixed", "epsilon": 1.0, **_TOLERANCES, "max_iters": 5000, "dim": None,
                       "g_correction": False, "seed": 0},
            "seed": 0, "rng_algorithm": None, "extra": {"termination": "residual_met", "iterations": 3},
        }

    def test_infinite_flags_echoed_as_inf(self, tmp_path, counterexample_json):
        out = tmp_path / "r.json"
        assert main(["reconstruct", str(counterexample_json), "--strategy", "fixed", "--epsilon", "inf",
                     "--out", str(out)]) == 4
        manifest, _ = self._read(out)
        assert manifest["config"]["epsilon"] == "inf"

    def test_reconstruct_random(self, tmp_path, counterexample_json):
        out = tmp_path / "r.json"
        assert main(["reconstruct", str(counterexample_json), "--strategy", "random", "--seed", "4",
                     "--max-iters", "30", "--g-correction", "--out", str(out)]) == 4
        manifest, per_iteration = self._read(out)
        assert per_iteration > 0
        assert manifest == {
            "command": "reconstruct", "input_path": str(counterexample_json), "output_paths": [str(out)],
            "config": {"command": "reconstruct", "input": str(counterexample_json), "out": str(out),
                       "strategy": "random", "epsilon": None, **_TOLERANCES, "max_iters": 30, "dim": None,
                       "g_correction": True, "seed": 4},
            "seed": 4, "rng_algorithm": "numpy.random.PCG64",
            "extra": {"termination": "likelihood_stalled", "iterations": 19},
        }

    def test_sweep(self, tmp_path, counterexample_json):
        out = tmp_path / "s.csv"
        assert main(["sweep", str(counterexample_json), "--epsilons", "1", "--tolerances", "1e-4",
                     "--max-iters", "300", "--out", str(out)]) == 0
        manifest, per_iteration = self._read(out)
        assert per_iteration is None
        (cached,) = (tmp_path / ".sweep-cache").glob("reference-*.json")
        assert manifest == {
            "command": "sweep", "input_path": str(counterexample_json), "output_paths": [str(out)],
            "config": {"command": "sweep", "input": str(counterexample_json), "out": str(out), "epsilons": "1",
                       "tolerances": "1e-4", "max_iters": 300, "dim": None, "cache_dir": None},
            "seed": None, "rng_algorithm": None, "extra": {"rows": 1, "reference_cache": str(cached)},
        }

    @pytest.mark.parametrize(
        "command, flags", [("reconstruct", []), ("sweep", ["--epsilons", "1", "--tolerances", "1e-4"])],
        ids=["reconstruct", "sweep"],
    )
    def test_relative_input_recorded_as_given(self, tmp_path, monkeypatch, counterexample_json, command, flags):
        monkeypatch.chdir(tmp_path)
        given = f"./{counterexample_json.name}"
        assert main([command, given, "--out", "out", *flags]) == 0
        manifest, _ = self._read(tmp_path / "out")
        assert manifest["input_path"] == manifest["config"]["input"] == given

    def test_simulate_quadrature_from_state_file(self, tmp_path):
        state, out = tmp_path / "state.json", tmp_path / "x.csv"
        qio.write_state(state, preset_state("vacuum", 2))
        assert main(["simulate", "--state-file", str(state), "--n", "5", "--phases", "2", "--seed", "3",
                     "--out", str(out)]) == 0
        manifest, per_iteration = self._read(out)
        assert per_iteration is None
        assert manifest == {
            "command": "simulate", "input_path": str(state), "output_paths": [str(out)],
            "config": {"command": "simulate", "preset": None, "state_file": str(state),
                       "out": str(out), "n": 5, "seed": 3, "phases": 2, "dim": None, "format": "quadrature"},
            "seed": 3, "rng_algorithm": "numpy.random.PCG64",
            "extra": {"phases": [0.0, np.pi / 2], "samples": 5},
        }

    def test_simulate_counts(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["simulate", "--n", "10", "--dim", "2", "--format", "counts", "--out", str(out)]) == 0
        manifest, per_iteration = self._read(out)
        assert per_iteration is None
        assert manifest == {
            "command": "simulate", "input_path": None, "output_paths": [str(out)],
            "config": {"command": "simulate", "preset": "superposition01", "state_file": None, "out": str(out),
                       "n": 10, "seed": 0, "phases": None, "dim": 2, "format": "counts"},
            "seed": 0, "rng_algorithm": "numpy.random.PCG64",
            "extra": {"povm": "computational basis projectors, dim 2", "outcomes": 2},
        }


_NUMBER = st.one_of(
    st.floats(min_value=1e-12, max_value=1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e400", "1e-400", "abc", "", " 1 ", "1,"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_LIST = st.lists(_NUMBER, max_size=3).map(",".join)
_DIM = st.one_of(st.none(), st.just("2"), st.sampled_from(["-1", "0", "3", "x", "2.5", ""]))
_COUNT = st.integers(min_value=-3, max_value=4)  # --n, --phases, --max-iters and --seed, including 0 and negatives
_FILE_BYTES = st.one_of(  # None keeps the valid qubit JSON input
    st.none(),
    st.binary(max_size=48),
    st.sampled_from([b"\xff\xfe", b"theta,x\n0.5,\x80\n", b'{"dim": 2, "re": [[1]]\xc3}', b"theta,x\n1,2\n",
                     b"theta,x\r\n0,0\r\n\x00,1\r\n", b'{"dim": 1, "re": [[1]], "im": [[0]]}']),
)


def _decodes(payload: bytes) -> bool:
    try:
        payload.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


# Valid inputs but for one strategy flag; random draws seldom reach these with a readable input file.
_VALID = dict(lists=(None, None), tolerances=("1e-8",) * 3, dim=None, counts=(10, 2, 5), fmt="quadrature",
              payload=None, suffix=".json", out_kind="fresh", epsilon=None, seed=0, solvable=None, extensionless=False)
_POSITIVE = st.floats(min_value=1e-12, max_value=1e-2).map(repr)
# Flags that take the qubit JSON to a solve whatever the strategy; without them few examples would reach one.
_SOLVABLE = st.fixed_dictionaries({
    "tolerances": st.tuples(_POSITIVE, _POSITIVE, _POSITIVE),
    "lists": st.tuples(st.lists(st.sampled_from(["0.5", "1", "10", "inf"]), min_size=1, max_size=3).map(",".join),
                       st.lists(_POSITIVE, min_size=1, max_size=3).map(",".join)),
    "epsilon": st.floats(min_value=1e-3, max_value=1e308).map(repr),
    "seed": st.integers(min_value=0, max_value=4),
    "max_iters": st.integers(min_value=1, max_value=50),
})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(command="reconstruct", strategy="random", **{**_VALID, "seed": -1})
@example(command="reconstruct", strategy="random", **{**_VALID, "epsilon": "inf"})
@example(command="simulate", strategy="random", **{**_VALID, "seed": -1})
@example(command="simulate", strategy="random", **{**_VALID, "extensionless": True})
@example(command="reconstruct", strategy="fixed", **{**_VALID, "epsilon": "1.7e308"})
@example(command="reconstruct", strategy="random", **{**_VALID, "epsilon": "1e308"})
@example(command="reconstruct", strategy="adaptive", **{**_VALID, "epsilon": "0.001"})
@given(
    command=st.sampled_from(["reconstruct", "sweep", "simulate"]),
    lists=st.tuples(st.none() | _LIST, st.none() | _LIST),  # None keeps the flag's default
    tolerances=st.tuples(_NUMBER, _NUMBER, _NUMBER),
    dim=_DIM,
    counts=st.tuples(_COUNT, _COUNT, st.one_of(_COUNT, st.just(50))),
    fmt=st.sampled_from(["quadrature", "counts"]),
    payload=_FILE_BYTES,
    suffix=st.sampled_from([".csv", ".json"]),
    out_kind=st.sampled_from(["fresh", "directory", "missing_parent"]),
    strategy=st.sampled_from(["rhor", "fixed", "adaptive", "linesearch", "random"]),
    epsilon=st.none() | _NUMBER,  # None leaves --epsilon out
    seed=_COUNT,
    # two draws in three replace the input, --out, --dim and every flag but --strategy
    solvable=st.sampled_from([False, True, True]).flatmap(lambda on: _SOLVABLE if on else st.none()),
    extensionless=st.just(False),  # True only in an example: simulate's --out then lacks the format's extension
)
def test_cli_flag_fuzz(tmp_path_factory, command, lists, tolerances, dim, counts, fmt, payload, suffix, out_kind,
                       strategy, epsilon, seed, solvable, extensionless):
    """Any list, tolerance, count, strategy flag, --dim, input file or --out ends in a documented exit code,
    never a traceback or a warning."""
    if solvable is not None:
        payload, out_kind, dim = None, "fresh", None
        tolerances, lists, epsilon, seed = (solvable[key] for key in ("tolerances", "lists", "epsilon", "seed"))
        epsilon = epsilon if strategy in ("fixed", "random") else None  # only these two read --epsilon
        counts = (*counts[:2], solvable["max_iters"])
    workdir = tmp_path_factory.mktemp("fuzz")
    out = workdir / {"fresh": "out", "directory": "folder", "missing_parent": "missing/out"}[out_kind]
    (workdir / "folder").mkdir()
    data = workdir / "qubit.json"
    qio.write_counts_dataset(data, counterexample_dataset())
    if payload is not None:  # random bytes as the input file, or as --state-file for simulate
        data = workdir / f"input{suffix}"
        data.write_bytes(payload)
    n, phases, max_iters = counts
    argv = [command, str(data), "--out", str(out)]
    if command == "reconstruct":
        flags = ["--tol-residual", "--tol-element", "--tol-loglik"]
        argv += [f"{flag}={value}" for flag, value in zip(flags, tolerances)] + ["--max-iters", "20"]
        argv += ["--strategy", strategy, f"--seed={seed}"] + ([f"--epsilon={epsilon}"] if epsilon is not None else [])
    elif command == "sweep":
        argv += [f"{flag}={value}" for flag, value in zip(["--epsilons", "--tolerances"], lists) if value is not None]
        argv.append(f"--max-iters={max_iters}")
    else:
        if out_kind != "directory" and not extensionless:
            out = out.with_name(out.name + {"quadrature": ".csv", "counts": ".json"}[fmt])
        argv = [command, "--out", str(out), f"--n={n}", f"--format={fmt}", f"--seed={seed}"]
        argv += [f"--phases={phases}"] if fmt == "quadrature" else []  # counts runs read no --phases
        if payload is not None:
            argv.append(f"--state-file={data}")
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
    if command == "sweep" and max_iters < 1:
        assert code in (2, 3)  # a bad flag, never a failed solve
    if command == "simulate" and (n < 1 or (fmt == "quadrature" and phases < 1) or seed < 0):
        assert code in (2, 3)
    if command == "simulate" and payload is not None and dim is not None:
        assert code in (2, 3)  # a state file gives its own dim
    if command == "reconstruct" and strategy == "random" and seed < 0:
        assert code in (2, 3)
    if command == "reconstruct" and strategy not in ("fixed", "random") and epsilon is not None:
        assert code == 3 or stderr.getvalue().startswith(("usage:", "parse error:"))  # unless parsing failed first
    if payload is not None and not _decodes(payload):
        assert code == 2
    if solvable is not None and command != "simulate":
        assert code in (0, 4)
    if extensionless:
        assert code == 3 and not out.exists()
    if out_kind != "fresh":
        assert code not in (0, 4)  # the output is checked before any solve or sampling
        assert not (workdir / "missing").exists()
    assert not [p for p in workdir.rglob("*") if p.name.endswith(".tmp")]


class TestStateFiles:
    def test_state_roundtrip(self, tmp_path):
        path = tmp_path / "state.json"
        state = preset_state("superposition01", 4)
        qio.write_state(path, state)
        again = qio.parse_state(path)
        np.testing.assert_array_equal(again, state)

    @pytest.mark.parametrize("dim", [None, "two"])
    def test_state_needs_integer_dim(self, tmp_path, dim):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": dim, "re": [[1.0]], "im": [[0.0]]}))
        with pytest.raises(DataFormatError, match=f"{path}: need integer 'dim'"):
            qio.parse_state(path)

    def test_invalid_state_rejected(self, tmp_path):
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps({"dim": 2, "re": [[2.0, 0.0], [0.0, -1.0]], "im": [[0.0] * 2] * 2}))
        with pytest.raises(Exception, match="semidefinite"):
            qio.parse_state(path)


def _with_dim(payload: dict, dim: str) -> str:
    """``payload`` as JSON text with ``dim`` (JSON source, such as 1e400) as its 'dim'."""
    return json.dumps({"dim": "@", **payload}).replace('"@"', dim, 1)


class TestJsonDim:
    """'dim' is a JSON integer of at least 1 in every JSON reader; anything else is a parse error."""

    BAD = {"1e400": "need integer 'dim', got inf", "2.9": "need integer 'dim', got 2.9",
           "true": "need integer 'dim', got True", '"2"': "need integer 'dim', got '2'",
           "2.0": "need integer 'dim', got 2.0", "0": "dim must be positive"}

    @pytest.mark.parametrize("dim", list(BAD))
    @pytest.mark.parametrize("command", ["reconstruct", "simulate"])
    def test_bad_dim_exits_two_with_one_line(self, tmp_path, capsys, command, dim):
        path, out = tmp_path / "input.json", tmp_path / "out.csv"
        if command == "reconstruct":
            path.write_text(_with_dim({"elements": [_ELEMENT]}, dim))
            argv = ["reconstruct", str(path), "--out", str(out)]
        else:
            path.write_text(_with_dim({"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2}, dim))
            argv = ["simulate", "--state-file", str(path), "--n", "10", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: {path}: {self.BAD[dim]}\n"
        assert not out.exists()

    def test_declared_dim_is_checked_against_the_elements_before_the_stack(self, tmp_path, capsys):
        # 1e5 x 1e5 re/im arrays would take 149 GiB
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 100000, "elements": [{"re": [[1.0]], "im": [[0.0]], "count": 1.0}]}))
        assert main(["reconstruct", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"parse error: {path}: element 0: expected 100000x100000 re/im arrays, got (1, 1) and (1, 1)\n")

    @pytest.mark.parametrize("dim", ["1e400", "2.9"])
    def test_cache_entry_with_bad_dim_is_rewritten(self, tmp_path, counterexample_json, dim):
        cache = tmp_path / "cache"
        args = ["sweep", str(counterexample_json), "--epsilons", "0.5,inf", "--tolerances", "1e-4",
                "--cache-dir", str(cache)]
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        assert main(args + ["--out", str(cold)]) == 0
        (cached,) = cache.glob("reference-*.json")
        intact = cached.read_bytes()
        assert intact.count(b'"dim": 2,') == 1
        cached.write_bytes(intact.replace(b'"dim": 2,', f'"dim": {dim},'.encode()))
        assert main(args + ["--out", str(warm)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        assert cached.read_bytes() == intact


class TestImpossibleOutcome:
    """A positive count on a zero element has probability 0 under every state: exit 3 and one line."""

    @pytest.mark.parametrize("argv", [["reconstruct", "--strategy", "rhor"],
                                      ["reconstruct", "--strategy", "fixed", "--epsilon", "1"],
                                      ["reconstruct", "--strategy", "adaptive"],
                                      ["reconstruct", "--strategy", "linesearch"],
                                      ["reconstruct", "--strategy", "random"], ["sweep"]],
                             ids=["rhor", "fixed", "adaptive", "linesearch", "random", "sweep"])
    def test_exit_three_with_one_line(self, tmp_path, capsys, argv):
        path, out = tmp_path / "zero.json", tmp_path / "out"
        zero = {"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0] * 2] * 2, "count": 3.0}
        ground = {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0] * 2] * 2, "count": 0.0}
        path.write_text(json.dumps({"dim": 2, "elements": [zero, ground]}))
        assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("validation error: outcome 0 has a positive count but a zero element: "
                                           "it has probability 0 under every state\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["zero.json"]


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "quad.csv"
        qio.write_quadrature_csv(path, [0.0], [1.0])
        before = path.read_bytes()

        def xs():
            yield 2.0
            raise RuntimeError("source failed midway")

        with pytest.raises(RuntimeError, match="midway"):
            qio.write_quadrature_csv(path, [0.5, 0.6], xs())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["quad.csv"]

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        qio.write_state(path, preset_state("vacuum", 2))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(qio.os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            qio.write_state(path, preset_state("superposition01", 2))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]
