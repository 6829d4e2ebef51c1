"""Tests kept with the benchmark: reduced-size smoke runs and CLI equivalence.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from qmaxlik import cli  # noqa: E402
from tracing import NullTracer  # noqa: E402

SMALL = wl.Size(reconstruct=(3000, 6), sweep=(2000, 4), povms=1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_its_checks(workload, trace, tmp_path):
    result = harness.measure(workload, seed=11, seconds=0, trace=trace, workdir=tmp_path, size=SMALL)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER_UNITS if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert metric["value"] >= 0.0
        if not trace:
            assert metric["value"] > 0.0
    assert len(result["inputs"]) >= 1 and result["environment"]["seed"] == 11


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_call_sequence_writes_the_same_files_as_the_cli(workload, tmp_path):
    bench_jobs = wl.make_jobs(workload, 5, tmp_path / "bench", SMALL)
    cli_jobs = wl.make_jobs(workload, 5, tmp_path / "cli", SMALL)
    wl.run_op(bench_jobs, NullTracer())
    for job in cli_jobs:
        assert cli.main(job.argv) in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE)
    for ours, theirs in zip(bench_jobs, cli_jobs):
        assert Path(ours.args.input).read_bytes() == Path(theirs.args.input).read_bytes()
        assert Path(ours.args.out).read_bytes() == Path(theirs.args.out).read_bytes()
        if ours.args.command == "sweep":
            (cached,) = Path(theirs.args.cache_dir).glob("reference-*.json")
            assert wl.reference_path(ours.args).read_bytes() == cached.read_bytes()


def test_inputs_follow_the_seed(tmp_path):
    first = wl.make_jobs("counts-batch", 1, tmp_path / "a", SMALL)
    again = wl.make_jobs("counts-batch", 1, tmp_path / "b", SMALL)
    other = wl.make_jobs("counts-batch", 2, tmp_path / "c", SMALL)

    def digest(jobs):
        return [Path(job.args.input).read_bytes() for job in jobs]

    assert digest(first) == digest(again)
    assert digest(first) != digest(other)


def test_refuses_to_run_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "counts-batch", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_fixed_iterations_do_not_follow_the_seed(tmp_path):
    first = harness.measure("counts-batch", seed=1, seconds=0, trace=False, workdir=tmp_path / "a", size=SMALL)
    other = harness.measure("counts-batch", seed=2, seconds=0, trace=False, workdir=tmp_path / "b", size=SMALL)
    assert first["ops"]["iterations_per_op"] != other["ops"]["iterations_per_op"]
    assert first["metrics"]["fixed_iterations"] == other["metrics"]["fixed_iterations"]
