"""The three workloads: their inputs, the CLI's call sequence, and the output checks.

A workload is a list of jobs, each one ``qmaxlik`` command line. One pass over
the jobs (an "op") makes, for every job, the public calls ``qmaxlik.cli``
makes for that command, in the same order: ``io.parse_dataset``, then
``engine.reconstruct`` or ``sweep.reference_solution`` followed by
``sweep.sweep_iteration_counts``, then ``io.write_result_json`` /
``io.write_sweep_csv``. The checks read the written files back.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import qmaxlik
from qmaxlik import cli, engine, io, operators, sweep

CONVERGED = {t.value for t in cli.CONVERGED}  # terminations on which the CLI exits 0
# Largest certified gap N(lambda_max(R) - 1), in nats, allowed for a converged run.
# Half a nat is the one-parameter likelihood-ratio scale; converged runs here stay
# below 0.04.
GAP_LIMIT = 0.5
# Acceptance criterion 7 asks for fidelity >= 0.98 from 20,000 homodyne samples.
# Smaller records get an infidelity limit of 250/N when that is larger: 0.05 at
# the sweep's 5,000 samples, where seeds 0-40 at d = 6 reach 0.969 at worst
# and five of them stay below 0.98.
CRITERION7_INFIDELITY = 0.02
INFIDELITY_TIMES_SAMPLES = 250.0
DENSITY_TOL = 1e-8
LOGLIK_RTOL = 1e-9
SWEEP_EPSILONS = "0.1,1,10,inf"
# 1e-4, not 1e-5: the eps = 0.1 trajectory needs about 5.5 times the iterations
# of eps = 1, and on some seeds it does not reach 1e-5 within the CLI's 20,000.
SWEEP_TOLERANCES = "1e-3,1e-4"
BATCH_STRATEGIES = (
    ("--strategy", "rhor"),
    ("--strategy", "fixed", "--epsilon", "1"),
    ("--strategy", "adaptive"),
    ("--strategy", "linesearch"),
    ("--strategy", "random", "--epsilon", "10"),
)

# The workload's inputs at this seed are solved once in every untraced run,
# whatever --seed is, so that their iteration count can be compared run by run.
FIXED_SEED = 0

# The batch measures per-iteration cost, not time to crawl along the boundary of
# state space, so a lower cap than the CLI's 5000 keeps each op a few seconds long.
BATCH_MAX_ITERS = 1000

_PARSER = cli.build_parser()


@dataclass
class Job:
    """One command line; ``args`` is what ``qmaxlik.cli`` parses from it."""

    argv: list[str]
    args: argparse.Namespace = field(init=False)

    def __post_init__(self):
        self.args = _PARSER.parse_args(self.argv)


@dataclass(frozen=True)
class Size:
    """Input sizes; the defaults are the benchmark's, smaller ones are for the smoke tests."""

    reconstruct: tuple[int, int] = (20000, 15)  # (samples, Fock truncation)
    sweep: tuple[int, int] = (5000, 6)
    povms: int = 14


@dataclass
class JobRun:
    job: Job
    dataset: qmaxlik.Dataset
    groups: dict[str, tuple[float, int]]  # solver kind -> (seconds, iterations)

    def iterations(self, kind: str | None = None) -> int:
        return sum(its for k, (_, its) in self.groups.items() if kind in (None, k))


@dataclass
class OpRecord:
    setup_s: float
    runs: list[JobRun]

    @property
    def iterations(self) -> int:
        return sum(r.iterations() for r in self.runs)

    def ms_per_iteration(self) -> float:
        """Solve time per iteration, pooled within each solver kind, then averaged over kinds.

        Giving every kind (a strategy, the sweep's reference solve, its
        trajectories) the same weight keeps the figure from following how many
        iterations each kind happened to need on this seed's inputs.
        """
        pooled: dict[str, list[float]] = {}
        for run in self.runs:
            for kind, (seconds, its) in run.groups.items():
                acc = pooled.setdefault(kind, [0.0, 0])
                acc[0] += seconds
                acc[1] += its
        return 1e3 * float(np.mean([seconds / max(its, 1) for seconds, its in pooled.values()]))


# ---------------------------------------------------------------------------
# inputs


def _homodyne_jobs(seed: int, workdir: Path, command: str, samples: int, dim: int) -> list[Job]:
    rng = np.random.default_rng([seed, samples])
    path = workdir / f"quadratures-{samples}.csv"
    inputs.write_quadrature_csv(path, *inputs.sample_homodyne(rng, samples))
    out = workdir / ("result.json" if command == "reconstruct" else "sweep.csv")
    argv = [command, str(path), "--dim", str(dim), "--out", str(out)]
    if command == "sweep":
        argv += ["--epsilons", SWEEP_EPSILONS, "--tolerances", SWEEP_TOLERANCES,
                 "--cache-dir", str(workdir / "sweep-cache")]
    return [Job(argv)]


def _counts_jobs(seed: int, workdir: Path, povms: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []

    def add(name, elements, counts, flag_sets):
        path = workdir / f"{name}.json"
        inputs.write_counts_json(path, elements, counts)
        for k, flags in enumerate(flag_sets):
            out = workdir / f"{name}-{k}.result.json"
            argv = ["reconstruct", str(path), "--out", str(out), "--seed", str(seed),
                    "--max-iters", str(BATCH_MAX_ITERS), *flags]
            jobs.append(Job(argv))

    for i in range(povms):
        # Each dimension 2..8 appears with d and with 2d outcomes, so the batch's
        # shape is the same for every seed; the seed draws the elements and counts.
        dim = 2 + i % 7
        n_outcomes = dim * (1 + (i // 7) % 2)
        elements = inputs.random_complete_povm(rng, dim, n_outcomes)
        counts = rng.uniform(0.5, 10.0, size=n_outcomes)
        add(f"povm-{i:02d}", elements, counts, BATCH_STRATEGIES)
        add(f"povm-{i:02d}-incomplete", elements[:-1], counts[:-1],
            [("--strategy", "adaptive", "--g-correction")])
    add("counterexample", *inputs.counterexample(), BATCH_STRATEGIES)
    return jobs


def homodyne_size(workload: str, size: Size) -> tuple[int, int] | None:
    """(samples, Fock truncation) of a homodyne workload; None for counts-batch."""
    return {"homodyne-reconstruct": size.reconstruct, "homodyne-sweep": size.sweep}.get(workload)


def make_jobs(workload: str, seed: int, workdir: Path, size: Size = Size()) -> list[Job]:
    """Write the workload's input files for ``seed`` into ``workdir`` and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "counts-batch":
        return _counts_jobs(seed, workdir, size.povms)
    homodyne = homodyne_size(workload, size)
    if homodyne is None:
        raise ValueError(f"unknown workload {workload!r}")
    return _homodyne_jobs(seed, workdir, workload.removeprefix("homodyne-"), *homodyne)


# ---------------------------------------------------------------------------
# the CLI's call sequence


def reference_path(args: argparse.Namespace) -> Path:
    return Path(args.cache_dir) / "reference.json"


def parse(job: Job, tracer) -> qmaxlik.Dataset:
    return tracer.call("io.parse_dataset", io.parse_dataset, job.args.input, dim=job.args.dim)


def solve(job: Job, dataset: qmaxlik.Dataset, tracer) -> JobRun:
    """Everything the CLI does between the loaded dataset and the written result file."""
    args = job.args
    t0 = time.perf_counter()
    if args.command == "reconstruct":
        result = tracer.call("engine.reconstruct", engine.reconstruct, dataset,
                             cli._build_config(args))
        tracer.call("io.write_result_json", io.write_result_json, args.out, result)
        kind = args.strategy + ("+g-correction" if args.g_correction else "")
        return JobRun(job, dataset, {kind: (time.perf_counter() - t0, result.iterations)})
    Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
    reference = tracer.call("sweep.reference_solution", sweep.reference_solution, dataset,
                            max_iterations=args.max_iters)
    tracer.call("io.write_result_json", io.write_result_json, reference_path(args), reference)
    t1 = time.perf_counter()
    rows = tracer.call("sweep.sweep_iteration_counts", sweep.sweep_iteration_counts, dataset,
                       reference.estimate, cli._parse_float_list(args.epsilons, allow_inf=True),
                       cli._parse_float_list(args.tolerances, allow_inf=False),
                       max_iterations=args.max_iters)
    tracer.call("io.write_sweep_csv", io.write_sweep_csv, args.out, rows)
    t2 = time.perf_counter()
    per_eps: dict[float, int] = {}  # a trajectory runs until its tightest tolerance is crossed
    for row in rows:
        per_eps[row.epsilon] = max(per_eps.get(row.epsilon, 0), row.iterations)
    return JobRun(job, dataset, {"sweep-reference": (t1 - t0, reference.iterations),
                                 "sweep-trajectories": (t2 - t1, sum(per_eps.values()))})


def clear_outputs(jobs: list[Job]) -> None:
    """Remove earlier outputs, so every sweep starts with a cold reference cache."""
    for job in jobs:
        Path(job.args.out).unlink(missing_ok=True)
        if job.args.command == "sweep":
            shutil.rmtree(job.args.cache_dir, ignore_errors=True)


def run_op(jobs: list[Job], tracer) -> OpRecord:
    clear_outputs(jobs)
    setup = 0.0
    runs = []
    for job in jobs:
        t0 = time.perf_counter()
        dataset = parse(job, tracer)
        setup += time.perf_counter() - t0
        runs.append(solve(job, dataset, tracer))
    return OpRecord(setup, runs)


def run_setup(jobs: list[Job], tracer) -> float:
    t0 = time.perf_counter()
    for job in jobs:
        parse(job, tracer)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Verdict:
    """Outcome of the checks on one op's files."""

    attempted: int = 0
    failed: int = 0
    converged: int = 0
    gaps: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def certified_gap(estimate: np.ndarray, dataset: qmaxlik.Dataset) -> float:
    """N (lambda_max(R(rho)) - 1), an upper bound on L* - L(rho) for the plain likelihood."""
    r = engine.r_operator(estimate, dataset)
    return dataset.total * (float(np.linalg.eigvalsh(r)[-1]) - 1.0)


def _check_estimate(path: Path, dataset, g_correction: bool, homodyne: bool, verdict: Verdict,
                    always_gap: bool = False) -> None:
    """Check one written estimate; homodyne data also gets the fidelity check."""
    payload = json.loads(path.read_text())
    estimate = io.parse_result_estimate(path)
    problems = []
    if not np.all(np.isfinite(estimate)):
        problems.append("non-finite estimate")
    else:
        try:
            operators.validate_density(estimate, tol=DENSITY_TOL)
        except qmaxlik.ValidationError as exc:
            problems.append(f"not a density matrix ({exc})")
    converged = payload["termination"] in CONVERGED
    verdict.converged += converged
    if not problems and not g_correction:
        recorded = float(payload["log_likelihood_trace"][-1])
        recomputed = engine.log_likelihood(estimate, dataset)
        if not abs(recorded - recomputed) <= LOGLIK_RTOL * max(1.0, abs(recomputed)):
            problems.append(f"log-likelihood {recorded!r} != recomputed {recomputed!r}")
        gap = certified_gap(estimate, dataset)
        if converged or always_gap:
            verdict.gaps.append(gap)
        if converged and not gap < GAP_LIMIT:
            problems.append(f"converged with certified gap {gap:.3e} >= {GAP_LIMIT}")
    if not problems and homodyne:
        fid = operators.fidelity(estimate, inputs.superposition01(estimate.shape[0]))
        limit = 1.0 - max(CRITERION7_INFIDELITY, INFIDELITY_TIMES_SAMPLES / dataset.total)
        if not fid >= limit:
            problems.append(f"fidelity {fid:.4f} < {limit:.4f}")
    verdict.record(not problems, f"{path.name}: {'; '.join(problems)}")


def _check_sweep(path: Path, verdict: Verdict) -> None:
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    by_tol: dict[str, dict[float, int]] = {}
    for row in rows:
        by_tol.setdefault(row["tolerance"], {})[float(row["epsilon"])] = int(row["iterations"])
    for row in rows:
        its = [by_tol[row["tolerance"]].get(e) for e in (0.1, 1.0, 10.0, math.inf)]
        falls = None not in its and its[0] > its[1] > its[2] >= its[3]
        converged = row["converged"] == "true"
        verdict.converged += converged
        verdict.record(converged and falls, f"{path.name}: eps={row['epsilon']} tol={row['tolerance']} "
                       f"converged={row['converged']}, iterations by eps {its}")


def check_op(op: OpRecord) -> Verdict:
    verdict = Verdict()
    for run in op.runs:
        args = run.job.args
        if args.command == "reconstruct":
            homodyne = Path(args.input).suffix == ".csv"
            _check_estimate(Path(args.out), run.dataset, args.g_correction, homodyne, verdict)
        else:
            _check_estimate(reference_path(args), run.dataset, False, True, verdict, always_gap=True)
            _check_sweep(Path(args.out), verdict)
    return verdict


# ---------------------------------------------------------------------------
# per-call kernel timings at the estimate (traced run only)


def _per_call_s(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def kernel_metrics(op: OpRecord) -> dict[str, float]:
    """Per-call times and computed bytes, summed over the op's distinct input files."""
    totals = dict.fromkeys(
        ["dataset.validate_s", "dataset.bytes", "engine.traces_ms", "engine.r_operator_ms",
         "engine.step_ms", "engine.traces_bytes"], 0.0)
    seen = set()
    for run in op.runs:
        args = run.job.args
        if args.input in seen:
            continue
        seen.add(args.input)
        d = run.dataset
        out = Path(args.out) if args.command == "reconstruct" else reference_path(args)
        rho = io.parse_result_estimate(out)
        totals["dataset.validate_s"] += _per_call_s(lambda: dataclasses.replace(d), 3)
        totals["dataset.bytes"] += sum(v.nbytes for v in vars(d).values() if isinstance(v, np.ndarray))
        totals["engine.traces_ms"] += 1e3 * _per_call_s(lambda: engine.outcome_probabilities(rho, d))
        totals["engine.r_operator_ms"] += 1e3 * _per_call_s(lambda: engine.r_operator(rho, d))
        totals["engine.step_ms"] += 1e3 * _per_call_s(lambda: engine.diluted_step(rho, d, 1.0))
        vectors = getattr(d, "vectors", None)
        totals["engine.traces_bytes"] += 2 * vectors.nbytes if vectors is not None else d.elements.nbytes
    return totals
