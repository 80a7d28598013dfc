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
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


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


def write_target_csv(path, target) -> None:
    header = _covariate_header(target.dim)
    rows = [[fmt(v) for v in row] for row in target.x]
    atomic_write_text(path, _csv_text(header, rows))


def read_target_csv(path):
    from .data import TargetCovariates

    header, rows = read_csv_rows(path)
    dim = len(header)
    if header != _covariate_header(dim):
        raise ValueError(f"{path}: expected header x0,...,x{dim - 1}")
    try:
        x = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: parse failure: {exc}") from None
    return TargetCovariates(x, strict=False)


def write_trial_csv(path, trial) -> None:
    header = _covariate_header(trial.dim) + ["a", "l"]
    rows = [
        [fmt(v) for v in trial.x[i]] + [str(int(trial.actions[i])), fmt(trial.losses[i])]
        for i in range(trial.m)
    ]
    atomic_write_text(path, _csv_text(header, rows))


def read_trial_csv(path, k_actions: int | None = None):
    from .data import TrialDataset

    header, rows = read_csv_rows(path)
    if len(header) < 3 or header[-2:] != ["a", "l"]:
        raise ValueError(f"{path}: expected header x0,...,x{{d-1}},a,l")
    dim = len(header) - 2
    if header[:dim] != _covariate_header(dim):
        raise ValueError(f"{path}: expected header x0,...,x{dim - 1},a,l")
    try:
        x = np.array([[float(v) for v in row[:dim]] for row in rows])
        actions = np.array([int(row[dim]) for row in rows])
        losses = np.array([float(row[dim + 1]) for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: parse failure: {exc}") from None
    k = int(actions.max()) + 1 if k_actions is None else k_actions
    return TrialDataset(x, actions, losses, k, strict=False)


def write_pool_csv(path, pool) -> None:
    header = _covariate_header(pool.dim) + ["s"]
    rows = [
        [fmt(v) for v in pool.x[i]] + [str(int(pool.labels[i]))] for i in range(pool.n)
    ]
    atomic_write_text(path, _csv_text(header, rows))


def read_pool_csv(path):
    from .propensity import LabeledPool

    header, rows = read_csv_rows(path)
    if len(header) < 2 or header[-1] != "s":
        raise ValueError(f"{path}: expected header x0,...,x{{d-1}},s")
    dim = len(header) - 1
    if header[:dim] != _covariate_header(dim):
        raise ValueError(f"{path}: expected header x0,...,x{dim - 1},s")
    try:
        x = np.array([[float(v) for v in row[:dim]] for row in rows])
        labels = np.array([int(row[dim]) for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: parse failure: {exc}") from None
    return LabeledPool(x, labels, strict=False)


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
    """Line-oriented ``key=value`` settings; '#' starts a comment line."""
    entries: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries
