"""Command-line front end: reconstruct, sweep, simulate.

Exit codes: 0 success, 2 input parse error, 3 validation error,
4 non-convergence (outputs are still written, flagged in the result).
All configuration is explicit on the command line; no environment variables
are consulted.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .engine import (
    PROBABILITY_FLOOR,
    AdaptiveBackoff,
    FixedEpsilon,
    InfiniteRhoR,
    LineSearchEpsilon,
    RandomEpsilon,
    ReconstructionConfig,
    Termination,
    reconstruct,
)
from .errors import ConvergenceError, DataFormatError, ValidationError
from .povm import projector_from_state
from .simulate import RNG_ALGORITHM, SimulationSpec, preset_state, sample_counts, sample_quadratures
from .sweep import REFERENCE_TOLERANCE, reference_solution, sweep_iteration_counts

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4

CONVERGED = (Termination.RESIDUAL_MET, Termination.ELEMENT_CHANGE_MET)
# Part of the sweep's cache key; bump it whenever a change to the solver alters
# the reference solutions it writes, even in their last bits.
REFERENCE_CACHE_FORMAT = 2


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.name + ".manifest.json")


def _build_strategy(args):
    if args.strategy == "rhor":
        return InfiniteRhoR()
    if args.strategy == "fixed":
        if args.epsilon is None:
            raise ValidationError("--strategy fixed requires --epsilon")
        return FixedEpsilon(epsilon=args.epsilon)
    if args.strategy == "adaptive":
        return AdaptiveBackoff()
    if args.strategy == "linesearch":
        return LineSearchEpsilon()
    if args.strategy == "random":
        return RandomEpsilon(
            epsilon_max=args.epsilon if args.epsilon is not None else 10.0, seed=args.seed
        )
    raise ValidationError(f"unknown strategy {args.strategy!r}")


def _build_config(args) -> ReconstructionConfig:
    return ReconstructionConfig(
        strategy=_build_strategy(args),
        tol_residual=args.tol_residual,
        tol_element=args.tol_element,
        tol_loglik=args.tol_loglik,
        max_iterations=args.max_iters,
        g_correction=args.g_correction,
    )


def _config_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def cmd_reconstruct(args) -> int:
    dataset = io.parse_dataset(args.input, dim=args.dim)
    config = _build_config(args)
    out = Path(args.out)

    start = time.perf_counter()
    result = reconstruct(dataset, config)
    elapsed = time.perf_counter() - start

    io.write_result_json(out, result)
    manifest = io.RunManifest(
        command="reconstruct",
        input_path=str(args.input),
        output_paths=[str(out)],
        config=_config_echo(args),
        seed=args.seed,
        rng_algorithm=RNG_ALGORITHM if args.strategy == "random" else None,
        wall_seconds_total=elapsed,
        wall_seconds_per_iteration=elapsed / result.iterations if result.iterations else None,
        extra={"termination": result.termination.value, "iterations": result.iterations},
    )
    manifest.write(_manifest_path(out))

    converged = result.termination in CONVERGED
    print(
        f"{result.termination.value}: {result.iterations} iterations, "
        f"residual {result.final_residual:.3e}, "
        f"log-likelihood {result.log_likelihood_trace[-1]:.12g}"
    )
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def _parse_float_list(text: str, allow_inf: bool) -> list[float]:
    """Comma-separated positive numbers; a non-numeric token is a parse error."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise DataFormatError(f"{token!r} is not a number") from None
        if not value > 0:
            raise ValidationError(f"{token!r}: values must be positive")
        if math.isinf(value) and not allow_inf:
            raise ValidationError("inf is not allowed here")
        values.append(value)
    if not values:
        raise ValidationError("empty list")
    return values


def _cached_reference(dataset_path: Path, dim, max_iters: int, cache_dir: Path):
    """The cached reference solution for this input and solve, if any, and its cache file."""
    key = (f"|dim={dim}|max_iters={max_iters}|floor={PROBABILITY_FLOOR!r}"
           f"|tolerance={REFERENCE_TOLERANCE!r}|format={REFERENCE_CACHE_FORMAT}")
    digest = hashlib.sha256(dataset_path.read_bytes() + key.encode()).hexdigest()
    cache_file = cache_dir / f"reference-{digest[:24]}.json"
    if cache_file.exists():
        try:
            return io.parse_result_estimate(cache_file), cache_file
        except DataFormatError:
            pass  # a damaged entry is a miss; the fresh solve overwrites it
    return None, cache_file


def cmd_sweep(args) -> int:
    dataset_path = Path(args.input)
    dataset = io.parse_dataset(dataset_path, dim=args.dim)
    epsilons = _parse_float_list(args.epsilons, allow_inf=True)
    tolerances = _parse_float_list(args.tolerances, allow_inf=False)
    out = Path(args.out)
    cache_dir = Path(args.cache_dir) if args.cache_dir else out.parent / ".sweep-cache"

    start = time.perf_counter()
    reference, cache_file = _cached_reference(dataset_path, args.dim, args.max_iters, cache_dir)
    if reference is None:
        try:
            ref_result = reference_solution(dataset, max_iterations=args.max_iters)
        except ConvergenceError as exc:
            print(f"sweep aborted: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        reference = ref_result.estimate
        cache_dir.mkdir(parents=True, exist_ok=True)  # only now: a rejected flag leaves no directory
        io.write_result_json(cache_file, ref_result)
    rows = sweep_iteration_counts(
        dataset, reference, epsilons, tolerances, max_iterations=args.max_iters
    )
    elapsed = time.perf_counter() - start

    io.write_sweep_csv(out, rows)
    manifest = io.RunManifest(
        command="sweep",
        input_path=str(dataset_path),
        output_paths=[str(out)],
        config=_config_echo(args),
        wall_seconds_total=elapsed,
        extra={"rows": len(rows), "reference_cache": str(cache_file)},
    )
    manifest.write(_manifest_path(out))

    for row in rows:
        eps = "inf" if math.isinf(row.epsilon) else f"{row.epsilon:g}"
        print(f"eps={eps} tol={row.tolerance:g}: {row.iterations} iterations, converged={row.converged}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    dim = args.dim
    if args.state_file:
        state = io.parse_state(args.state_file)
        dim = state.shape[0]
    else:
        state = preset_state(args.preset, dim)
    spec = SimulationSpec(state=state, seed=args.seed, count=args.n)
    out = Path(args.out)

    start = time.perf_counter()
    if args.format == "quadrature":
        if args.phases < 1:
            raise ValidationError("--phases must be at least 1")
        phases = np.linspace(0.0, np.pi, args.phases, endpoint=False)
        samples = sample_quadratures(spec, phases, dim)
        io.write_quadrature_csv(out, samples)
        extra = {"phases": [float(p) for p in phases], "samples": len(samples)}
    else:
        basis = np.stack([projector_from_state(np.eye(dim)[k]) for k in range(dim)])
        dataset = sample_counts(spec, basis)
        io.write_counts_dataset(out, dataset)
        extra = {"povm": f"computational basis projectors, dim {dim}", "outcomes": dataset.n_outcomes}
    elapsed = time.perf_counter() - start

    manifest = io.RunManifest(
        command="simulate",
        input_path=args.state_file,
        output_paths=[str(out)],
        config=_config_echo(args),
        seed=args.seed,
        rng_algorithm=RNG_ALGORITHM,
        wall_seconds_total=elapsed,
        extra=extra,
    )
    manifest.write(_manifest_path(out))
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaxlik",
        description="Iterative maximum-likelihood quantum state reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("reconstruct", help="estimate a state from a dataset file")
    rec.add_argument("input", help="dataset file (.json counts or .csv quadratures)")
    rec.add_argument("--out", required=True, help="result JSON path")
    rec.add_argument(
        "--strategy",
        choices=["rhor", "fixed", "adaptive", "linesearch", "random"],
        default="adaptive",
    )
    rec.add_argument("--epsilon", type=float, default=None, help="step size (fixed) or cap (random)")
    rec.add_argument("--tol-residual", type=float, default=1e-8)
    rec.add_argument("--tol-element", type=float, default=1e-10)
    rec.add_argument("--tol-loglik", type=float, default=1e-13)
    rec.add_argument("--max-iters", type=int, default=5000)
    rec.add_argument("--dim", type=int, default=None, help="truncation for quadrature CSV input")
    rec.add_argument("--g-correction", action="store_true", help="debias incomplete POVMs")
    rec.add_argument("--seed", type=int, default=0, help="seed for the random strategy")
    rec.set_defaults(func=cmd_reconstruct)

    sw = sub.add_parser("sweep", help="iterations-to-convergence versus step size")
    sw.add_argument("input", help="dataset file (.json counts or .csv quadratures)")
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.add_argument("--epsilons", default="0.1,1,10,100,inf", help="comma list; 'inf' = plain update")
    sw.add_argument("--tolerances", default="1e-3,1e-5,1e-7", help="comma list of tolerances")
    sw.add_argument("--max-iters", type=int, default=20000)
    sw.add_argument("--dim", type=int, default=None, help="truncation for quadrature CSV input")
    sw.add_argument("--cache-dir", default=None, help="reference-solution cache (default: beside --out)")
    sw.set_defaults(func=cmd_sweep)

    sim = sub.add_parser("simulate", help="draw synthetic data from a known state")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=["vacuum", "superposition01"], default="superposition01")
    group.add_argument("--state-file", default=None, help="density-matrix JSON {dim, re, im}")
    sim.add_argument("--out", required=True, help="output path (.csv quadratures, .json counts)")
    sim.add_argument("--n", type=int, default=20000, help="number of samples")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--phases", type=int, default=12, help="number of equally spaced phases in [0, pi)")
    sim.add_argument("--dim", type=int, default=15, help="Fock truncation of the preset state")
    sim.add_argument("--format", choices=["quadrature", "counts"], default="quadrature")
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
