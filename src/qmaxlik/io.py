"""File formats for datasets, states, results, and run manifests.

Counted datasets are JSON objects ``{dim, elements: [{re, im, count}, ...]}``
with re/im as dim x dim row-major arrays. Quadrature records are CSV files
with header ``theta,x`` and one sample per row, loaded as a factored
``QuadratureDataset`` (the truncation dimension comes from the caller).
Floats are written with 17 significant digits so a load/store round trip is
lossless. Every writer replaces its target atomically: the text goes to a
temporary file in the target's directory, which is then renamed over it, so a
failed write leaves any previous file intact.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

from .dataset import Dataset, MeasurementRecord
from .engine import ReconstructionResult
from .errors import DataFormatError
from .operators import validate_density
from .povm import QuadratureSample, quadrature_dataset
from .sweep import SweepRow


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it and ``os.replace``."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", newline="") as handle:
            handle.write(text)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _csv_text(header: list[str], rows) -> str:
    buffer = StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_parts(m: np.ndarray) -> tuple[list[list[float]], list[list[float]]]:
    return m.real.tolist(), m.imag.tolist()


def _matrix_from_parts(re, im, dim: int, where: str) -> np.ndarray:
    try:
        real = np.asarray(re, dtype=np.float64)
        imag = np.asarray(im, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: re/im are not numeric arrays ({exc})") from exc
    if real.shape != (dim, dim) or imag.shape != (dim, dim):
        raise DataFormatError(
            f"{where}: expected {dim}x{dim} re/im arrays, got {real.shape} and {imag.shape}"
        )
    return real + 1j * imag


# ---------------------------------------------------------------------------
# datasets


def parse_dataset(path, dim: int | None = None) -> MeasurementRecord:
    """Load a dataset file; ``.json`` holds counted elements, ``.csv`` quadrature samples.

    For CSV input ``dim`` selects the Fock-space truncation of the per-sample
    projectors and is required; for JSON input it is optional and must match
    the file's dim. Invariants (Hermiticity, positivity, counts) are validated
    on load.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        dataset = _parse_counts_json(path)
        if dim is not None and dim != dataset.dim:
            raise DataFormatError(f"{path}: file has dim {dataset.dim}, but dim {dim} was given")
        return dataset
    if path.suffix.lower() == ".csv":
        if dim is None:
            raise DataFormatError("quadrature CSV input needs an explicit dimension")
        return quadrature_dataset(parse_quadrature_csv(path), dim)
    raise DataFormatError(f"unsupported dataset extension {path.suffix!r} (use .json or .csv)")


def _parse_counts_json(path: Path) -> Dataset:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: top level must be an object")
    try:
        dim = int(payload["dim"])
        records = payload["elements"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: need integer 'dim' and list 'elements' ({exc})") from exc
    if dim < 1:
        raise DataFormatError(f"{path}: dim must be positive")
    if not isinstance(records, list) or not records:
        raise DataFormatError(f"{path}: 'elements' must be a non-empty list")
    elements = np.empty((len(records), dim, dim), dtype=np.complex128)
    counts = np.empty(len(records))
    for k, record in enumerate(records):
        where = f"{path}: element {k}"
        if not isinstance(record, dict):
            raise DataFormatError(f"{where}: must be an object")
        try:
            counts[k] = float(record["count"])
            re, im = record["re"], record["im"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{where}: need 're', 'im', and numeric 'count' ({exc})") from exc
        elements[k] = _matrix_from_parts(re, im, dim, where)
    return Dataset(elements=elements, counts=counts)


def write_counts_dataset(path, dataset: MeasurementRecord) -> None:
    records = []
    for element, count in zip(dataset.elements, dataset.counts):
        re, im = _matrix_parts(element)
        records.append({"re": re, "im": im, "count": float(count)})
    payload = {"dim": dataset.dim, "elements": records}
    _write_atomic(path, json.dumps(payload, indent=1) + "\n")


def parse_quadrature_csv(path) -> list[QuadratureSample]:
    path = Path(path)
    samples = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["theta", "x"]:
            raise DataFormatError(f"{path}: expected header 'theta,x', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected two columns, got {len(row)}")
            try:
                theta, x = float(row[0]), float(row[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
            if not (math.isfinite(theta) and math.isfinite(x)):
                raise DataFormatError(f"{path}:{lineno}: values must be finite")
            samples.append(QuadratureSample(theta, x))
    if not samples:
        raise DataFormatError(f"{path}: no samples")
    return samples


def write_quadrature_csv(path, samples) -> None:
    _write_atomic(path, _csv_text(["theta", "x"], ([_fmt(theta), _fmt(x)] for theta, x in samples)))


# ---------------------------------------------------------------------------
# states


def parse_state(path) -> np.ndarray:
    """Load a density matrix from JSON ``{dim, re, im}`` and validate it."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        dim = int(payload["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: need integer 'dim' ({exc})") from exc
    matrix = _matrix_from_parts(payload.get("re"), payload.get("im"), dim, str(path))
    return validate_density(matrix)


def write_state(path, state: np.ndarray) -> None:
    re, im = _matrix_parts(np.asarray(state, dtype=np.complex128))
    payload = {"dim": int(state.shape[0]), "re": re, "im": im}
    _write_atomic(path, json.dumps(payload, indent=1) + "\n")


# ---------------------------------------------------------------------------
# results and manifests


def _epsilon_token(eps: float):
    return float(eps) if math.isfinite(eps) else "inf"


def write_result_json(path, result: ReconstructionResult) -> None:
    re, im = _matrix_parts(result.estimate)
    payload = {
        "dim": int(result.estimate.shape[0]),
        "estimate": {"re": re, "im": im},
        "log_likelihood_trace": [float(v) for v in result.log_likelihood_trace],
        "epsilon_trace": [_epsilon_token(e) for e in result.epsilon_trace],
        "final_residual": float(result.final_residual),
        "iterations": int(result.iterations),
        "termination": result.termination.value,
        "diagnostics": result.diagnostics,
    }
    _write_atomic(path, json.dumps(payload, indent=1) + "\n")


def parse_result_estimate(path) -> np.ndarray:
    try:
        payload = json.loads(Path(path).read_text())
        dim = int(payload["dim"])
        re, im = payload["estimate"]["re"], payload["estimate"]["im"]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers invalid JSON
        raise DataFormatError(f"{path}: not a result file ({exc!r})") from exc
    return _matrix_from_parts(re, im, dim, str(path))


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    lines = (["inf" if math.isinf(row.epsilon) else _fmt(row.epsilon), _fmt(row.tolerance), row.iterations,
              str(row.converged).lower()] for row in rows)
    _write_atomic(path, _csv_text(["epsilon", "tolerance", "iterations", "converged"], lines))


@dataclass
class RunManifest:
    """Provenance record written next to every command's outputs."""

    command: str
    input_path: str | None
    output_paths: list[str]
    config: dict
    seed: int | None = None
    rng_algorithm: str | None = None
    wall_seconds_total: float = 0.0
    wall_seconds_per_iteration: float | None = None
    extra: dict = field(default_factory=dict)

    def write(self, path) -> None:
        _write_atomic(path, json.dumps(asdict(self), indent=1, default=str) + "\n")
