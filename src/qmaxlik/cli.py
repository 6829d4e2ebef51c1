"""Command-line front end: reconstruct, sweep, simulate.

Exit codes: 0 success, 2 input parse error, 3 validation error or an output
that cannot be written, 4 non-convergence (outputs are still written, flagged in the result).
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
    CONVERGED,
    AdaptiveBackoff,
    FixedEpsilon,
    LineSearchEpsilon,
    RandomEpsilon,
    ReconstructionConfig,
    reconstruct,
)
from .errors import ConvergenceError, DataFormatError, ValidationError, check_int
from .operators import validate_density
from .povm import projector_from_state
from .simulate import PRESETS, RNG_ALGORITHM, SimulationSpec, preset_state, sample_counts, sample_quadratures
from .sweep import DEFAULT_MAX_ITERATIONS, reference_solution, sweep_iteration_counts

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4

# Part of the sweep's cache key: the package's sources and the numpy version that solve a reference.
SOLVER_DIGEST = hashlib.sha256(b"".join(path.read_bytes() for path in sorted(Path(__file__).parent.glob("*.py")))
                               + np.__version__.encode()).hexdigest()


# The --strategy choices, each with the step-size strategy it builds from the parsed flags.
STRATEGIES = {
    "rhor": lambda args: FixedEpsilon(math.inf),
    "fixed": lambda args: FixedEpsilon(epsilon=args.epsilon),
    "adaptive": lambda args: AdaptiveBackoff(),
    "linesearch": lambda args: LineSearchEpsilon(),
    "random": lambda args: RandomEpsilon(seed=args.seed,
                                         **({} if args.epsilon is None else {"epsilon_max": args.epsilon})),
}


def _build_config(args) -> ReconstructionConfig:
    if args.strategy == "fixed" and args.epsilon is None:
        raise ValidationError("--strategy fixed requires --epsilon")
    if args.strategy not in ("fixed", "random") and args.epsilon is not None:
        raise ValidationError(f"--strategy {args.strategy} takes no --epsilon")
    return ReconstructionConfig(
        strategy=STRATEGIES[args.strategy](args),
        tol_residual=args.tol_residual,
        tol_element=args.tol_element,
        tol_loglik=args.tol_loglik,
        max_iterations=args.max_iters,
        g_correction=args.g_correction,
    )


def cmd_reconstruct(args) -> int:
    dataset = io.parse_dataset(args.input, dim=args.dim)
    config = _build_config(args)
    out = io.writable_path(args.out)

    start = time.perf_counter()
    result = reconstruct(dataset, config)
    elapsed = time.perf_counter() - start

    io.write_result_json(out, result)
    io.write_manifest(out, args, elapsed,
                      {"termination": result.termination.value, "iterations": result.iterations},
                      rng_algorithm=RNG_ALGORITHM if args.strategy == "random" else None,
                      wall_seconds_per_iteration=elapsed / result.iterations if result.iterations else None)

    print(
        f"{result.termination.value}: {result.iterations} iterations, "
        f"residual {result.final_residual:.3e}, "
        f"log-likelihood {result.log_likelihood_trace[-1]:.12g}"
    )
    return EXIT_OK if result.termination in CONVERGED else EXIT_NO_CONVERGENCE


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


def _cached_reference(dataset_path: Path, dataset, max_iters: int, cache_dir: Path):
    """The cached reference solution for this input and solve, if any, and its cache file.

    An entry that is not a density matrix of the dataset's dimension is a miss.
    """
    key = f"|dim={dataset.dim}|max_iters={max_iters}|solver={SOLVER_DIGEST}"
    digest = hashlib.sha256(dataset_path.read_bytes() + key.encode()).hexdigest()
    cache_file = cache_dir / f"reference-{digest[:24]}.json"
    if cache_file.exists():
        try:
            estimate = io.parse_result_estimate(cache_file)
            if estimate.shape == (dataset.dim, dataset.dim):
                return validate_density(estimate), cache_file
        except (DataFormatError, ValidationError):
            pass  # a damaged entry is a miss; the fresh solve overwrites it
    return None, cache_file


def cmd_sweep(args) -> int:
    dataset_path = Path(args.input)
    dataset = io.parse_dataset(dataset_path, dim=args.dim)
    epsilons = _parse_float_list(args.epsilons, allow_inf=True)
    tolerances = _parse_float_list(args.tolerances, allow_inf=False)
    out = io.writable_path(args.out)
    cache_dir = io.writable_directory(args.cache_dir or out.parent / ".sweep-cache")

    start = time.perf_counter()
    reference, cache_file = _cached_reference(dataset_path, dataset, args.max_iters, cache_dir)
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
    io.write_manifest(out, args, elapsed, {"rows": len(rows), "reference_cache": str(cache_file)})

    for row in rows:
        print(f"eps={row.epsilon:g} tol={row.tolerance:g}: {row.iterations} iterations, converged={row.converged}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.state_file:
        state = io.parse_state(args.state_file)
        if args.dim is not None:
            raise ValidationError("--state-file takes no --dim")
        args.preset = None  # a flag the run does not read is echoed as null, one it reads with its default
    else:
        args.dim = 15 if args.dim is None else args.dim
        state = preset_state(args.preset, args.dim)
    dim = state.shape[0]
    spec = SimulationSpec(state=state, seed=args.seed, count=args.n)
    if args.format == "quadrature":
        args.phases = 12 if args.phases is None else check_int(args.phases, "--phases")
    elif args.phases is not None:
        raise ValidationError("--format counts takes no --phases")
    out = io.writable_path(args.out)
    suffix = {"quadrature": ".csv", "counts": ".json"}[args.format]
    if out.suffix.lower() != suffix:  # reconstruct reads a dataset by its extension
        raise ValidationError(f"--format {args.format} is written to a {suffix} file, not {out.name}")

    start = time.perf_counter()
    if args.format == "quadrature":
        phases = np.linspace(0.0, np.pi, args.phases, endpoint=False)
        thetas, xs = sample_quadratures(spec, phases, dim)
        io.write_quadrature_csv(out, thetas, xs)
        extra = {"phases": [float(p) for p in phases], "samples": len(xs)}
    else:
        basis = np.stack([projector_from_state(np.eye(dim)[k]) for k in range(dim)])
        dataset = sample_counts(spec, basis)
        io.write_counts_dataset(out, dataset)
        extra = {"povm": f"computational basis projectors, dim {dim}", "outcomes": dataset.n_outcomes}
    elapsed = time.perf_counter() - start

    io.write_manifest(out, args, elapsed, extra, rng_algorithm=RNG_ALGORITHM)
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
    rec.add_argument("--strategy", choices=list(STRATEGIES), default="adaptive")
    rec.add_argument("--epsilon", type=float, default=None, help="step size (fixed) or cap (random)")
    rec.add_argument("--tol-residual", type=float, default=ReconstructionConfig.tol_residual)
    rec.add_argument("--tol-element", type=float, default=ReconstructionConfig.tol_element)
    rec.add_argument("--tol-loglik", type=float, default=ReconstructionConfig.tol_loglik)
    rec.add_argument("--max-iters", type=int, default=ReconstructionConfig.max_iterations)
    rec.add_argument("--dim", type=int, default=None, help="truncation for quadrature CSV input")
    rec.add_argument("--g-correction", action="store_true", help="debias incomplete counted POVMs (JSON input only)")
    rec.add_argument("--seed", type=int, default=0, help="seed for the random strategy")
    rec.set_defaults(func=cmd_reconstruct)

    sw = sub.add_parser("sweep", help="iterations-to-convergence versus step size")
    sw.add_argument("input", help="dataset file (.json counts or .csv quadratures)")
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.add_argument("--epsilons", default="0.1,1,10,100,inf", help="comma list; 'inf' = plain update")
    sw.add_argument("--tolerances", default="1e-3,1e-5,1e-7", help="comma list of tolerances")
    sw.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERATIONS)
    sw.add_argument("--dim", type=int, default=None, help="truncation for quadrature CSV input")
    sw.add_argument("--cache-dir", default=None, help="reference-solution cache (default: beside --out)")
    sw.set_defaults(func=cmd_sweep)

    sim = sub.add_parser("simulate", help="draw synthetic data from a known state")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=list(PRESETS), default="superposition01")
    group.add_argument("--state-file", default=None, help="density-matrix JSON {dim, re, im}")
    sim.add_argument("--out", required=True, help="output path (.csv quadratures, .json counts)")
    sim.add_argument("--n", type=int, default=20000, help="number of samples")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--phases", type=int, default=None, help="equally spaced phases in [0, pi) (default 12)")
    sim.add_argument("--dim", type=int, default=None, help="Fock truncation of the preset state (default 15)")
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
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # readers raise DataFormatError, so this is an output that cannot be written
        print(f"write error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
