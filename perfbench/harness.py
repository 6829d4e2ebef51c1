"""Measurement loop, metrics and environment block of the benchmark.

``measure`` runs one workload for a given time and returns the results record
that ``run.py`` prints and stores; see README.md for the metric definitions.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import inputs
import qmaxlik
import workloads as wl
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
# Parse-only passes before the ops, until both limits are reached; each op adds
# one more set-up sample. Two seconds give a steady median on every workload.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
END_TO_END = {"setup_s": "s", "solve_ms_per_iteration": "ms", "fixed_iterations": "count",
              "peak_rss_mb": "MB"}


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# environment block


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            size: wl.Size = wl.Size()) -> dict:
    """Run ``workload`` for about ``seconds`` and return the results record."""
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = wl.make_jobs(workload, seed, workdir, size)
    fixed_jobs = [] if trace else wl.make_jobs(workload, wl.FIXED_SEED, workdir / "fixed", size)
    input_files = sorted({Path(job.args.input) for job in jobs + fixed_jobs})
    null, tracer = NullTracer(), Tracer()

    start = time.perf_counter()
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        setups.append(wl.run_setup(jobs, null))
    attempted = failed = 0
    problems: list[str] = []
    fixed_iterations = 0
    solve_ms = []  # per untraced op, the one on the fixed inputs first
    if fixed_jobs:
        # One op on the fixed inputs: its iteration count is the same for every
        # --seed, so a change that makes the solver need more iterations shows.
        fixed = wl.run_op(fixed_jobs, null)
        verdict = wl.check_op(fixed)
        attempted, failed, problems = verdict.attempted, verdict.failed, list(verdict.problems)
        fixed_iterations = fixed.iterations
        solve_ms.append(fixed.ms_per_iteration())
        fixed = None
    untraced, traced = [], []  # per op: wall seconds, then its figures
    op = verdict = None
    while True:
        op = None  # release the previous op's datasets before loading the next
        use_trace = trace and len(untraced) > len(traced)
        t0 = time.perf_counter()
        if use_trace:
            lo = len(tracer.spans)
            with tracer.patched(qmaxlik):
                op = wl.run_op(jobs, tracer)
            traced.append((time.perf_counter() - t0, _op_counts(op), (lo, len(tracer.spans))))
        else:
            op = wl.run_op(jobs, null)
            untraced.append((time.perf_counter() - t0, op.iterations))
            solve_ms.append(op.ms_per_iteration())
            setups.append(op.setup_s)
        verdict = wl.check_op(op)
        attempted += verdict.attempted
        failed += verdict.failed
        problems += verdict.problems
        last_wall = time.perf_counter() - t0
        enough = len(untraced) >= 1 and (not trace or len(traced) >= 1)
        if enough and time.perf_counter() - start + last_wall > seconds:
            break

    gaps = verdict.gaps
    quality = {
        "converged_ratio": verdict.converged / verdict.attempted,
        "gap_bound": max(gaps) if gaps else 0.0,
        "error_rate": failed / attempted,
    }
    if trace:
        metrics = _per_layer(tracer, op, traced, untraced, quality, workload, seed, size)
        (workdir / "spans.json").write_text(json.dumps(tracer.records()) + "\n")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": _median(setups),
            "solve_ms_per_iteration": _median(solve_ms),
            "fixed_iterations": fixed_iterations,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "workload": workload,
        "environment": environment(seed),
        "inputs": {path.name: inputs.sha256(path) for path in input_files},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "quality": quality,
        "ops": {"untraced": len(untraced), "traced": len(traced), "setups": len(setups),
                "iterations_per_op": untraced[0][1], "fixed_seed": wl.FIXED_SEED,
                "solve_ms_per_iteration": solve_ms, "setup_s": setups},
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }


PER_LAYER_UNITS = {
    "io.parse_s": "s", "io.write_s": "s", "io.bytes_read": "B", "io.bytes_written": "B",
    "io.self_s": "s", "io.calls": "count",
    "povm.build_s": "s", "povm.self_s": "s", "povm.calls": "count",
    "dataset.validate_s": "s", "dataset.bytes": "B", "dataset.self_s": "s", "dataset.calls": "count",
    "engine.traces_ms": "ms", "engine.r_operator_ms": "ms", "engine.step_ms": "ms",
    "engine.traces_bytes": "B", "engine.reconstruct_s": "s", "engine.iterations": "count",
    "engine.ms_per_iteration": "ms", "engine.line_search_ms": "ms", "engine.line_search_calls": "count",
    "engine.self_s": "s", "engine.calls": "count",
    "sweep.reference_s": "s", "sweep.reference_iterations": "count", "sweep.trajectories_s": "s",
    "sweep.trajectory_iterations": "count", "sweep.ms_per_iteration": "ms",
    "sweep.self_s": "s", "sweep.calls": "count",
    "simulate.sample_s": "s", "simulate.self_s": "s", "simulate.calls": "count",
    "converged_ratio": "ratio", "gap_bound": "nats",
    "trace.overhead_ratio": "ratio", "trace.spans": "count",
}


def _op_counts(op: wl.OpRecord) -> dict[str, int]:
    """The counts of an op that its spans do not hold."""
    trajectories = sum(r.iterations("sweep-trajectories") for r in op.runs)
    written = [Path(r.job.args.out) for r in op.runs]
    written += [wl.reference_path(r.job.args) for r in op.runs if r.job.args.command == "sweep"]
    return {
        "engine.iterations": op.iterations - trajectories,
        "sweep.reference_iterations": sum(r.iterations("sweep-reference") for r in op.runs),
        "sweep.trajectory_iterations": trajectories,
        "io.bytes_read": sum(Path(r.job.args.input).stat().st_size for r in op.runs),
        "io.bytes_written": sum(path.stat().st_size for path in written),
    }


def _per_layer(tracer, op, traced, untraced, quality, workload, seed, size) -> dict:
    per_op = []
    for wall, counts, (lo, hi) in traced:
        by_name, by_layer = tracer.stats(lo, hi)

        def total(name, k=0):
            return by_name.get(name, (0.0, 0.0, 0))[k]

        line_search = by_name.get("engine.choose_epsilon_line_search", (0.0, 0.0, 0))
        reconstruct_s = total("engine.reconstruct")
        trajectories_s = total("sweep.sweep_iteration_counts")
        iterations, trajectory_its = counts["engine.iterations"], counts["sweep.trajectory_iterations"]
        m = {
            **counts,
            "io.parse_s": total("io.parse_dataset", 1),
            "io.write_s": sum(v[0] for k, v in by_name.items() if k.startswith("io.write_")),
            "povm.build_s": total("povm.quadrature_dataset", 1),
            "engine.reconstruct_s": reconstruct_s,
            "engine.ms_per_iteration": 1e3 * reconstruct_s / iterations if iterations else 0.0,
            "engine.line_search_ms": 1e3 * line_search[0] / line_search[2] if line_search[2] else 0.0,
            "engine.line_search_calls": line_search[2],
            "sweep.reference_s": total("sweep.reference_solution"),
            "sweep.trajectories_s": trajectories_s,
            "sweep.ms_per_iteration": 1e3 * trajectories_s / trajectory_its if trajectory_its else 0.0,
            "trace.spans": hi - lo,
            "wall": wall,
        }
        for layer, (self_s, calls) in by_layer.items():
            if layer != "simulate":
                m[f"{layer}.self_s"], m[f"{layer}.calls"] = self_s, calls
        per_op.append(m)
    metrics = {name: _median(m[name] for m in per_op) for name in per_op[0]}
    metrics["trace.overhead_ratio"] = metrics.pop("wall") / _median(w for w, *_ in untraced)
    metrics.update(wl.kernel_metrics(op))
    metrics.update(quality)
    metrics.pop("error_rate")

    metrics["simulate.sample_s"] = metrics["simulate.self_s"] = metrics["simulate.calls"] = 0.0
    homodyne = wl.homodyne_size(workload, size)
    if homodyne is not None:
        samples, dim = homodyne
        spec = qmaxlik.SimulationSpec(state=inputs.superposition01(dim), seed=seed, count=samples)
        phases = np.linspace(0.0, np.pi, inputs.HOMODYNE_PHASES, endpoint=False)
        lo = len(tracer.spans)
        with tracer.patched(qmaxlik):
            tracer.call("simulate.sample_quadratures", qmaxlik.simulate.sample_quadratures, spec, phases, dim)
        by_name, by_layer = tracer.stats(lo)
        metrics["simulate.sample_s"] = by_name["simulate.sample_quadratures"][0]
        metrics["simulate.self_s"], metrics["simulate.calls"] = by_layer["simulate"]
    return metrics


