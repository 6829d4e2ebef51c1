"""File formats for datasets, states, results, and run manifests.

Counted datasets are JSON objects ``{dim, elements: [{re, im, count}, ...]}``
with re/im as dim x dim row-major arrays. Quadrature records are CSV files
with header ``theta,x`` and one sample per row, loaded as a factored
``QuadratureDataset`` (the truncation dimension comes from the caller).
Floats are written with 17 significant digits so a load/store round trip is
lossless. Every reader decodes its file as UTF-8 and reports a file it cannot
read or decode as a ``DataFormatError`` naming the path. Every writer replaces
its target atomically: the text goes to a temporary file in the target's
directory, which is then renamed over it, so a failed write leaves any
previous file intact and raises an ``OSError`` whose ``filename`` is the target.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import json
import math
import os
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np

from .dataset import Dataset, MeasurementRecord
from .engine import ReconstructionResult, Termination
from .errors import DataFormatError, check_int
from .operators import validate_density
from .povm import quadrature_dataset
from .sweep import SweepRow


def _read_text(path: Path) -> str:
    """The file's text as UTF-8; an unreadable or undecodable file is a ``DataFormatError``."""
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from exc


def _read_json(path: Path) -> tuple[dict, int]:
    """The file's top-level JSON object and its 'dim', a JSON integer (not a bool) of at least 1.

    Anything else is a ``DataFormatError`` naming the path.
    """
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: top level must be an object")
    dim = payload.get("dim")
    if type(dim) is not int:  # JSON's 2.9, 1e400 (inf), true and "2" are not
        raise DataFormatError(f"{path}: need integer 'dim', got {dim!r}")
    if dim < 1:
        raise DataFormatError(f"{path}: dim must be positive")
    return payload, dim


@contextlib.contextmanager
def _naming(path: Path):
    """Re-raise an ``OSError`` as one whose ``filename`` is ``path``, the target the user named."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc


def writable_path(path) -> Path:
    """``path`` as a ``Path``, after raising now the ``OSError`` that writing it would raise.

    Commands call this before they start work. The probe is a temporary file
    beside the target that is removed on close, so it leaves nothing behind.
    """
    path = Path(path)
    with _naming(path):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        tempfile.TemporaryFile(dir=path.parent).close()
    return path


def writable_directory(path) -> Path:
    """``path`` as a ``Path``, after raising now the ``OSError`` that making it a directory would raise.

    That is the error of ``mkdir(parents=True, exist_ok=True)`` or of writing
    in the directory. Nothing is created: the probe is a temporary file in the
    nearest existing ancestor, removed on close.
    """
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    with _naming(path):
        if not existing.is_dir():
            code = errno.EEXIST if existing == path else errno.ENOTDIR
            raise OSError(code, os.strerror(code))
        tempfile.TemporaryFile(dir=existing).close()
    return path


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it and ``os.replace``."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with _naming(path):  # the target, not the temporary file
            with temp.open("w", newline="") as handle:
                handle.write(text)
            os.replace(temp, path)
    finally:
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # no temporary file was made
            temp.unlink()


def _write_json(path, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, indent=1) + "\n")


def _csv_text(header: list[str], rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_parts(m: np.ndarray) -> tuple[list[list[float]], list[list[float]]]:
    return m.real.tolist(), m.imag.tolist()


def _checked_parts(re, im, dim: int, where: str) -> tuple[np.ndarray, np.ndarray]:
    """re/im as (dim, dim) float arrays. One that numpy does not read as numbers is refused: strings, booleans
    and null, which a float conversion would take as numbers or NaN, and ragged rows."""
    try:
        real, imag = np.asarray(re), np.asarray(im)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: re/im are not numeric arrays ({exc})") from exc
    if real.dtype.kind not in "iuf" or imag.dtype.kind not in "iuf":
        raise DataFormatError(f"{where}: re/im are not numeric arrays (numpy reads {real.dtype} and {imag.dtype})")
    real, imag = real.astype(np.float64, copy=False), imag.astype(np.float64, copy=False)
    if real.shape != (dim, dim) or imag.shape != (dim, dim):
        raise DataFormatError(
            f"{where}: expected {dim}x{dim} re/im arrays, got {real.shape} and {imag.shape}"
        )
    return real, imag


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # 1j * inf has a NaN real part, which the element and state checks reject
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
        return quadrature_dataset(*parse_quadrature_csv(path), dim)
    raise DataFormatError(f"unsupported dataset extension {path.suffix!r} (use .json or .csv)")


def _parse_counts_json(path: Path) -> Dataset:
    payload, dim = _read_json(path)
    records = payload.get("elements")
    if not isinstance(records, list) or not records:
        raise DataFormatError(f"{path}: 'elements' must be a non-empty list")
    parts, counts = [], np.empty(len(records))  # the stack is built once every element has its declared shape
    for k, record in enumerate(records):
        where = f"{path}: element {k}"
        if not isinstance(record, dict):
            raise DataFormatError(f"{where}: must be an object")
        try:
            if type(count := record["count"]) not in (int, float):  # JSON's "3" and true are not numbers
                raise TypeError(f"count {count!r}")
            counts[k], re, im = count, record["re"], record["im"]
        except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: an integer beyond a float
            raise DataFormatError(f"{where}: need 're', 'im', and numeric 'count' ({exc})") from exc
        parts.append(_checked_parts(re, im, dim, where))
    stack = np.array(parts)  # (k, 2, dim, dim)
    return Dataset(elements=_complex(stack[:, 0], stack[:, 1]), counts=counts)


def write_counts_dataset(path, dataset: MeasurementRecord) -> None:
    records = []
    for element, count in zip(dataset.elements, dataset.counts):
        re, im = _matrix_parts(element)
        records.append({"re": re, "im": im, "count": float(count)})
    _write_json(path, {"dim": dataset.dim, "elements": records})


# np.loadtxt strips these ASCII separators around a number as whitespace; float() refuses them.
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def parse_quadrature_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Phases and quadrature values of a ``theta,x`` CSV file, as two float arrays.

    A file whose first line is exactly ``theta,x`` is read in bulk, by one
    ``np.loadtxt`` pass over its lines, kept if it gives an (n, 2) table of
    finite values. Every other file, and every file that pass refuses, is read
    row by row by ``_quadrature_rows``, which alone decides what is refused and
    which line the error names. The bulk read accepts no file the row loop
    refuses and gives the same values, so the two read the same files to the
    same arrays.
    """
    path = Path(path)
    text = _read_text(path)
    header, _, body = text.partition("\n")
    if (header == "theta,x" and body and not body.isspace()  # np.loadtxt warns on a body without data
            and not any(c in body for c in _LOADTXT_ONLY_SPACES)):
        with contextlib.suppress(ValueError):  # a row np.loadtxt refuses: the row loop names it or reads it
            # a list of lines: a StringIO's 4-byte-per-character copy raised peak RSS by 2 MB at 20,000 samples
            table = np.loadtxt(body.split("\n"), delimiter=",", comments=None, ndmin=2)
            if table.shape[1] == 2 and np.isfinite(table).all():
                return table[:, 0], table[:, 1]
    return _quadrature_rows(path, text)


def _quadrature_rows(path: Path, text: str) -> tuple[np.ndarray, np.ndarray]:
    """``parse_quadrature_csv`` one row at a time, naming the line of the first bad row."""
    values: list[float] = []  # theta, x, theta, x, ...
    reader = csv.reader(StringIO(text, newline=""))
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
        values.append(theta)
        values.append(x)
    if not values:
        raise DataFormatError(f"{path}: no samples")
    return np.array(values[0::2]), np.array(values[1::2])


def write_quadrature_csv(path, thetas, xs) -> None:
    _write_atomic(path, _csv_text(["theta", "x"], ([_fmt(theta), _fmt(x)] for theta, x in zip(thetas, xs))))


# ---------------------------------------------------------------------------
# states


def parse_state(path) -> np.ndarray:
    """Load a density matrix from JSON ``{dim, re, im}`` and validate it."""
    path = Path(path)
    payload, dim = _read_json(path)
    return validate_density(_complex(*_checked_parts(payload.get("re"), payload.get("im"), dim, str(path))))


def write_state(path, state: np.ndarray) -> None:
    re, im = _matrix_parts(np.asarray(state, dtype=np.complex128))
    _write_json(path, {"dim": int(state.shape[0]), "re": re, "im": im})


# ---------------------------------------------------------------------------
# results and manifests


def write_result_json(path, result: ReconstructionResult) -> None:
    re, im = _matrix_parts(result.estimate)
    _write_json(path, {
        "dim": int(result.estimate.shape[0]),
        "estimate": {"re": re, "im": im},
        "log_likelihood_trace": [float(v) for v in result.log_likelihood_trace],
        "epsilon_trace": [float(e) if math.isfinite(e) else "inf" for e in result.epsilon_trace],
        "final_residual": float(result.final_residual),
        "iterations": int(result.iterations),
        "termination": result.termination.value,
        "diagnostics": result.diagnostics,
    })


def parse_result_estimate(path) -> np.ndarray:
    return parse_result(path)[0]


def parse_result(path) -> tuple[np.ndarray, dict]:
    """A result file's estimate, and its stop: ``{"termination", "iterations"}``."""
    payload, dim = _read_json(Path(path))
    try:
        re, im = payload["estimate"]["re"], payload["estimate"]["im"]
        stop = {"termination": Termination(payload["termination"]).value,
                "iterations": check_int(payload["iterations"], "iterations", minimum=0)}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: not a result file ({exc!r})") from exc
    return _complex(*_checked_parts(re, im, dim, str(path))), stop


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    lines = ([_fmt(row.epsilon), _fmt(row.tolerance), row.iterations, str(row.converged).lower()] for row in rows)
    _write_atomic(path, _csv_text(["epsilon", "tolerance", "iterations", "converged"], lines))


def write_manifest(out, args, wall_seconds_total: float, extra: dict,
                   rng_algorithm: str | None = None, wall_seconds_per_iteration: float | None = None,
                   wall_seconds_parse: float | None = None) -> None:
    """Write ``<out>.manifest.json``, the provenance record of a command that wrote ``out``.

    ``args`` is the command's ``argparse.Namespace``. Its fields but ``func`` are the config echo; it
    also gives the command, the input path as given (``input`` or ``state_file``) and the seed.
    ``wall_seconds_parse`` is the time spent reading the input dataset, null for a command that reads none.
    """
    out = Path(out)
    _write_json(out.with_name(out.name + ".manifest.json"), {
        "command": args.command,
        "input_path": getattr(args, "input", getattr(args, "state_file", None)),
        "output_paths": [str(out)],
        "config": {k: "inf" if v == math.inf else v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "rng_algorithm": rng_algorithm,
        "wall_seconds_total": wall_seconds_total,
        "wall_seconds_per_iteration": wall_seconds_per_iteration,
        "wall_seconds_parse": wall_seconds_parse,
        "extra": extra,
    })
