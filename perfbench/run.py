"""Benchmark of qmaxlik along the command line's call path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is homodyne-reconstruct, homodyne-sweep, counts-batch, or ``all`` (each
workload in its own process, one after the other). The run writes the seeded
inputs, then repeats one pass over the workload's command lines ("op") until
about S seconds are spent, checks every output file, and prints a summary
followed, on the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` untraced and traced ops alternate and the metrics are the
per-layer ones plus the tracing overhead. Inputs, outputs, a results file with
the environment block and the span dump go to ``.perfbench/`` under the
repository root. See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("homodyne-reconstruct", "homodyne-sweep", "counts-batch")
# One BLAS thread: on a shared two-core machine a second thread makes every small
# matrix product wait for the other core, which spreads the timings much wider.
# Set before numpy loads, and inherited by the processes of ``--workload all``.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# ---------------------------------------------------------------------------
# command line


def _summary(result: dict, seed: int) -> list[str]:
    ops = result["ops"]
    lines = [f"{result['workload']} seed {seed}: {ops['untraced']} untraced and {ops['traced']} traced ops, "
             f"{ops['setups']} set-ups, {ops['iterations_per_op']} iterations per op"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    q = result["quality"]
    if "gap_bound" not in result["metrics"]:
        lines.append(f"  {'converged_ratio':<28} {q['converged_ratio']:.6g} ratio")
        lines.append(f"  {'gap_bound':<28} {q['gap_bound']:.6g} nats")
    lines.append(f"  {'error_rate':<28} {q['error_rate']:.6g} ratio ({result['failed']}/{result['attempted']})")
    lines += [f"  check failed: {p}" for p in result["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmaxlik" / "__init__.py").is_file():
        print(f"no qmaxlik sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)

    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status

    sys.path.insert(0, str(ROOT / "src"))
    import harness

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    (workdir / "results.json").write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(_summary(result, args.seed)))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
