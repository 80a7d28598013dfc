"""File formats: CSV schemas, JSON payloads, atomic writes.

Numbers are written with ``repr``, the shortest decimal text that parses back
to the same float, so outputs are byte-stable across reruns and locales.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np

SCHEMA_VERSION = 1


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:
        # name the requested path, not the temp file that could not be made
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict) -> None:
    """Refuses NaN and infinities, which are not JSON (``jsonable`` maps NaN to null)."""
    atomic_write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """The stripped header cells and the nonempty data rows of a CSV file.

    An empty file, a file with a header but no data rows, and a data row
    whose cell count differs from the header's are rejected with
    ``ValueError``; callers check the header themselves.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        width = len(header)
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, rows


def _covariate_header(dim: int) -> list[str]:
    return [f"x{j}" for j in range(dim)]


def _row_error(path, fields_for) -> None:
    """Re-read ``path`` row by row with ``csv`` and ``float``/``int`` and
    raise the first defect found, with its message: an empty file, a row
    whose width differs from the header's, no data rows, a wrong header, or
    a cell that does not parse (fields in order, row by row within one)."""
    header, rows = read_csv_rows(path)
    fields = fields_for(header)
    start = 0
    try:
        for _, parse, shape in fields:
            stop = start + math.prod(shape)
            for row in rows:
                for cell in row[start:stop]:
                    parse(cell)
            start = stop
    except ValueError as exc:
        raise ValueError(f"{path}: parse failure: {exc}") from None


def read_table(path, fields_for) -> np.ndarray:
    """The data rows of a CSV file as one structured array, in one
    ``np.loadtxt`` pass.

    ``fields_for(header)`` gets the stripped header cells and returns the
    fields as ``(name, parse, shape)`` triples, ``parse`` being ``int``
    (read as int64) or ``float`` (float64) and ``shape`` ``()`` for one
    column or ``(d,)`` for a block of d; it raises ``ValueError`` for a
    wrong header. Any bad input is read again row by row only to name the
    defect (``_row_error``); what that pass accepts but ``loadtxt`` does not,
    such as ``1_0`` or an integer outside int64, is reported with
    ``loadtxt``'s message.
    """
    with open(path, newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh), [])]
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
    header = _covariate_header(target.dim)
    rows = [[fmt(v) for v in row] for row in target.x]
    atomic_write_text(path, _csv_text(header, rows))


def read_target_csv(path):
    from .data import TargetCovariates

    x, _ = read_columns(path, "x")
    return TargetCovariates(x)


def write_trial_csv(path, trial) -> None:
    header = _covariate_header(trial.dim) + ["a", "l"]
    rows = [
        [fmt(v) for v in trial.x[i]] + [str(int(trial.actions[i])), fmt(trial.losses[i])]
        for i in range(trial.m)
    ]
    atomic_write_text(path, _csv_text(header, rows))


def read_trial_csv(path, k_actions: int | None = None):
    from .data import TrialDataset

    x, (actions, losses) = read_columns(path, "x", (("a", int), ("l", float)))
    k = int(actions.max()) + 1 if k_actions is None else k_actions
    return TrialDataset(x, actions, losses, k)


def write_pool_csv(path, pool) -> None:
    header = _covariate_header(pool.dim) + ["s"]
    rows = [
        [fmt(v) for v in pool.x[i]] + [str(int(pool.labels[i]))] for i in range(pool.n)
    ]
    atomic_write_text(path, _csv_text(header, rows))


def read_pool_csv(path):
    from .propensity import LabeledPool

    x, (labels,) = read_columns(path, "x", (("s", int),))
    return LabeledPool(x, labels)


def write_limit_curve_csv(path, curve) -> None:
    header = ["gamma", "alpha", "limit", "trivial"]
    rows = [[fmt(p.gamma), fmt(p.alpha), fmt(p.limit), fmt(p.trivial)] for p in curve.points]
    atomic_write_text(path, _csv_text(header, rows))


def write_reliability_csv(path, bins) -> None:
    header = ["bin_lower", "bin_upper", "mean_nominal", "observed", "n_target", "n_trial"]
    rows = [
        [fmt(b.lower), fmt(b.upper), fmt(b.mean_nominal), fmt(b.observed), str(b.n_target), str(b.n_trial)]
        for b in bins
    ]
    atomic_write_text(path, _csv_text(header, rows))


def jsonable(value):
    """Recursively convert numpy scalars/arrays and NaN to JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if math.isnan(v) else v
    return value


def read_config_file(path) -> dict[str, str]:
    """Line-oriented ``key=value`` settings; '#' starts a comment line. Keys
    are returned with '-' for '_', and a key set twice is refused."""
    entries: dict[str, str] = {}
    with open(path) as fh:
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
