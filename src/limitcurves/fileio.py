"""File formats: CSV schemas, JSON payloads, atomic writes.

Outputs are byte-stable across reruns and locales: every CSV is written by
``write_columns`` and every JSON file by ``write_json``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import warnings

import numpy as np

from .data import LabeledPool, TargetCovariates, TrialDataset

SCHEMA_VERSION = 1

# rows converted to text at a time by ``write_columns``
_BLOCK_ROWS = 4096


@contextlib.contextmanager
def atomic_output(path):
    """A text handle on a temp file in ``path``'s directory, renamed to
    ``path`` when the block ends; an exception in the block, or a failed
    rename, removes the temp file and leaves ``path`` as it was. The file is
    created with mode 0o666 less the umask, as ``open(path, "w")`` creates
    it (``tempfile.mkstemp``'s 0o600 would survive the rename)."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # name the requested path, not the temp file that could not be made
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict) -> None:
    """Refuses NaN and infinities, which are not JSON. The text is streamed
    to the file, never held whole in memory."""
    with atomic_output(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _column_text(column) -> list[str]:
    values = np.asarray(column)
    if values.dtype == np.bool_:
        return ["true" if v else "false" for v in values.tolist()]
    if np.issubdtype(values.dtype, np.integer):
        return list(map(str, values.tolist()))
    return list(map(repr, values.astype(np.float64).tolist()))


def write_columns(path, header, columns) -> None:
    """Write one CSV line per row of equal-length ``columns`` under ``header``,
    with LF line ends. Each column is converted to text by its dtype: bool as
    ``true``/``false``, integers as digits, anything else as the ``repr`` of
    its float64 value, the shortest text that parses back to the same float.
    Rows are converted and written ``_BLOCK_ROWS`` at a time, so the text in
    memory does not grow with the file. Columns of unequal length raise
    ``ValueError`` before any file is made."""
    arrays = [np.asarray(c) for c in columns]
    rows = len(arrays[0]) if arrays else 0
    if any(len(a) != rows for a in arrays):
        raise ValueError("columns must have equal lengths")
    with atomic_output(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            cells = [_column_text(a[start : start + _BLOCK_ROWS]) for a in arrays]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


@contextlib.contextmanager
def open_input(path, newline=None):
    """A text handle on the input file ``path``, in the locale's encoding
    (as ``np.loadtxt`` reads it), past the byte-order mark (U+FEFF) a file
    may start with. A byte the encoding cannot decode, or malformed JSON,
    read through the handle raises one ``ValueError`` that names ``path``."""
    try:
        with open(path, newline=newline) as fh:
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"{path}: cannot decode byte {byte:#04x} as {exc.encoding}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_header(reader) -> list[str] | None:
    """The stripped cells of ``reader``'s first row, or None for an empty file."""
    row = next(reader, None)
    return None if row is None else [h.strip() for h in row]


def _covariate_header(dim: int) -> list[str]:
    return [f"x{j}" for j in range(dim)]


def _row_error(path, fields_for) -> None:
    """Re-read ``path`` row by row with ``csv`` and ``float``/``int`` and
    raise the first defect found, with its message: an empty file, a
    nonempty row whose width differs from the header's, no data rows, a
    wrong header, or a cell that does not parse (fields in order, row by row
    within one). The file is read once, keeping only the failure that
    decides the message, so memory does not grow with the file."""
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader)
        if header is None:
            raise ValueError(f"{path}: empty file")
        try:
            fields, header_error = fields_for(header), None
        except ValueError as exc:
            fields, header_error = [], exc
        spans, stop = [], 0
        for _, parse, shape in fields:
            start, stop = stop, stop + math.prod(shape)
            spans.append((parse, start, stop))
        rows, limit, failure = 0, len(spans), None
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(header)} columns, got {len(row)}"
                )
            rows += 1
            # only the fields before the first failed one can still decide the message
            for i, (parse, start, stop) in enumerate(spans[:limit]):
                try:
                    for cell in row[start:stop]:
                        parse(cell)
                except ValueError as exc:
                    limit, failure = i, exc
                    break
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if header_error is not None:
        raise header_error
    if failure is not None:
        raise ValueError(f"{path}: parse failure: {failure}") from None


def read_table(path, fields_for) -> np.ndarray:
    """The data rows of a CSV file as one structured array, in one
    ``np.loadtxt`` pass.

    ``fields_for(header)`` gets the header cells (``_read_header``) and
    returns the fields as ``(name, parse, shape)`` triples, ``parse`` being
    ``int`` (read as int64) or ``float`` (float64) and ``shape`` ``()`` for
    one column or ``(d,)`` for a block of d; it raises ``ValueError`` for a
    wrong header. Any bad input is read again row by row only to name the
    defect (``_row_error``); what that pass accepts but ``loadtxt`` does not,
    such as ``1_0`` or an integer outside int64, is reported with
    ``loadtxt``'s message.
    """
    with open_input(path, newline="") as fh:
        header = _read_header(csv.reader(fh)) or []
    try:
        dtype = [
            (name, np.int64 if parse is int else np.float64, shape)
            for name, parse, shape in fields_for(header)
        ]
        with warnings.catch_warnings():
            # fail on any warning: a file without data rows only warns, and
            # numpy 1.x casts a non-integer int64 cell (``1.5``) after a
            # DeprecationWarning instead of refusing it
            warnings.simplefilter("error")
            return np.loadtxt(
                path,
                dtype=dtype,
                delimiter=",",
                skiprows=1,
                ndmin=1,
                comments=None,
                quotechar='"',
                encoding=None,  # open()'s locale encoding, as for the header
            )
    except (ValueError, Warning) as exc:
        _row_error(path, fields_for)
        raise ValueError(f"{path}: parse failure: {exc}") from None


def read_columns(path, prefix: str, tail=()) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read a CSV whose header is ``prefix0,...,prefix{d-1}`` (d >= 1)
    followed by the ``tail`` columns, given as ``(name, parse)`` pairs with
    ``parse`` ``int`` or ``float``.

    Returns the prefix block as an (n, d) float64 matrix and one int64 or
    float64 array per tail column (see ``read_table``).
    """
    names = [name for name, _ in tail]

    def fields_for(header):
        dim = len(header) - len(names)
        if dim < 1 or header != [f"{prefix}{j}" for j in range(dim)] + names:
            last = dim - 1 if dim >= 1 else "{d-1}"
            expected = ",".join([f"{prefix}0,...,{prefix}{last}", *names])
            raise ValueError(f"{path}: expected header {expected}")
        return [("x", float, (dim,)), *((name, parse, ()) for name, parse in tail)]

    data = read_table(path, fields_for)
    # a field of ``data`` is a strided view that keeps every column alive
    return np.ascontiguousarray(data["x"]), [np.ascontiguousarray(data[n]) for n in names]


def write_target_csv(path, target) -> None:
    write_columns(path, _covariate_header(target.dim), target.x.T)


def read_target_csv(path):
    x, _ = read_columns(path, "x")
    return TargetCovariates(x)


def write_trial_csv(path, trial) -> None:
    header = _covariate_header(trial.dim) + ["a", "l"]
    write_columns(path, header, [*trial.x.T, trial.actions, trial.losses])


def read_trial_csv(path, k_actions: int):
    x, (actions, losses) = read_columns(path, "x", (("a", int), ("l", float)))
    return TrialDataset(x, actions, losses, k_actions)


def write_pool_csv(path, pool) -> None:
    write_columns(path, _covariate_header(pool.dim) + ["s"], [*pool.x.T, pool.labels])


def read_pool_csv(path):
    x, (labels,) = read_columns(path, "x", (("s", int),))
    return LabeledPool(x, labels)


def write_limit_curve_csv(path, curve) -> None:
    write_columns(path, list(curve.columns), curve.columns.values())


def write_reliability_csv(path, bins) -> None:
    header = ["bin_lower", "bin_upper", "mean_nominal", "observed", "n_target", "n_trial"]
    rows = ((b.lower, b.upper, b.mean_nominal, b.observed, b.n_target, b.n_trial) for b in bins)
    write_columns(path, header, zip(*rows))


def read_config_file(path) -> dict[str, str]:
    """Line-oriented ``key=value`` settings; '#' starts a comment line. Keys
    are returned with '-' for '_', and a key set twice is refused."""
    entries: dict[str, str] = {}
    with open_input(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key in entries:
                raise ValueError(f"{path}:{lineno}: {key!r} is set twice")
            entries[key] = value.strip()
    return entries
