"""Boundary fuzz of the command line: byte-level mutations of valid inputs of
every kind, run in process through ``cli.main``.

Whatever the mutation, a run either fails cleanly (exit 1, exactly one
``error:`` line, no output file) or succeeds with outputs that parse and whose
limits keep the construction's orders: finite, nonincreasing in alpha and
nondecreasing in gamma.
"""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from limitcurves.cli import main
from limitcurves.propensity import load_model

ROWS = 40
L_MAX = 100.0


def csv_text(header, columns) -> bytes:
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return (",".join(header) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)).encode()


def fixture_files() -> dict[str, bytes]:
    """One small valid file of every input kind; the model is fitted on the pool."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((ROWS, 2))
    actions = rng.integers(0, 2, ROWS)
    losses = actions * x[:, 0] ** 2 + x[:, 1] + rng.standard_normal(ROWS)
    target = 0.5 + rng.standard_normal((ROWS, 2))
    pool_x = np.vstack([target, rng.standard_normal((ROWS, 2))])
    labels = np.repeat([0, 1], ROWS)
    files = {
        "trial.csv": csv_text(["x0", "x1", "a", "l"], [x[:, 0], x[:, 1], actions, losses]),
        "target.csv": csv_text(["x0", "x1"], [target[:, 0], target[:, 1]]),
        "pool.csv": csv_text(["x0", "x1", "s"], [pool_x[:, 0], pool_x[:, 1], labels]),
        "scores.csv": csv_text(["id", "odds"], [np.arange(ROWS), np.exp(0.3 * x[:, 0])]),
        "policy.csv": csv_text(["p0", "p1"], [np.full(ROWS, 0.25), np.full(ROWS, 0.75)]),
        "run.cfg": b"# evaluate settings\ngammas=1,2\nsplit=random\nfrac=0.5\nseed=3\n",
    }
    with tempfile.TemporaryDirectory() as tmp:
        pool, model = Path(tmp, "pool.csv"), Path(tmp, "model.json")
        pool.write_bytes(files["pool.csv"])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fit", "--pool", str(pool), "--out", str(model)]) == 0
        files["model.json"] = model.read_bytes()
    return files


FILES = fixture_files()


def commands(kind: str, d: Path) -> list[tuple[str, list[str]]]:
    """``(command, argv)`` of every run that reads the file of ``kind`` in ``d``."""
    p = {name: str(d / name) for name in FILES}
    curve = ["--alpha-grid", "0.1:0.9:0.1", "--gammas", "1,2", "--l-max", repr(L_MAX),
             "--out-json", str(d / "out.json"), "--out-csv", str(d / "out.csv")]
    evaluate = ["evaluate", "--trial", p["trial.csv"], *curve]
    ipsw = ["ipsw", "--trial", p["trial.csv"], "--target", p["target.csv"], "--out", str(d / "out.json")]
    with_model = ["--model", p["model.json"], "--policy", "constant:1"]
    reliability = ["reliability", "--pool", p["pool.csv"], "--model", p["model.json"],
                   "--out", str(d / "out.csv")]
    runs = {
        "trial.csv": [("evaluate", evaluate + with_model), ("ipsw", ipsw + with_model)],
        "target.csv": [("ipsw", ipsw + with_model)],
        "pool.csv": [
            ("fit", ["fit", "--pool", p["pool.csv"], "--out", str(d / "out.json")]),
            ("benchmark-gamma", ["benchmark-gamma", "--pool", p["pool.csv"], "--out", str(d / "out.json")]),
            ("reliability", reliability),
        ],
        "scores.csv": [
            ("evaluate", evaluate + ["--scores", p["scores.csv"], "--policy", "uniform"]),
            ("ipsw", ipsw + ["--scores", p["scores.csv"], "--policy", "uniform"]),
        ],
        "policy.csv": [
            ("evaluate", evaluate + ["--model", p["model.json"], "--policy", f"table:{p['policy.csv']}"]),
            ("ipsw", ipsw + ["--model", p["model.json"], "--policy", f"table:{p['policy.csv']}"]),
        ],
        "model.json": [("evaluate", evaluate + with_model), ("ipsw", ipsw + with_model),
                       ("reliability", reliability)],
        "run.cfg": [("evaluate", [evaluate[0], "--config", p["run.cfg"], *evaluate[1:], *with_model])],
    }
    return runs[kind]


# ---------------------------------------------------------------------------
# mutations

# replacements for one number: non-finite, overflowing, hex and empty values,
# Python's underscore form and a lone non-UTF-8 byte
WORDS = (b"nan", b"inf", b"-inf", b"1e400", b"0x10", b"0x1p3", b"", b"1_0", b"\xc3")
BAD_BYTES = (b"\0", b"\xff", b"\xc3", b"\x80", b'"', b"\r")
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def mutate(data: bytes, op: str, i: int, j: int, word: bytes) -> bytes:
    """Apply one mutation; ``i`` and ``j`` pick a position, line or cell."""
    lines = data.split(b"\n")
    row = i % len(lines)
    cells = lines[row].split(b",")
    cell = j % len(cells)
    if op == "bom":
        return b"\xef\xbb\xbf" + data
    if op == "crlf":
        return data.replace(b"\n", b"\r\n")
    if op == "insert":
        pos = i % (len(data) + 1)
        return data[:pos] + BAD_BYTES[j % len(BAD_BYTES)] + data[pos:]
    if op == "truncate":
        return data[: i % (len(data) + 1)]
    if op in ("drop row", "dup row"):
        lines[row:row + 1] = [] if op == "drop row" else [lines[row]] * 2
        return b"\n".join(lines)
    if op in ("drop cell", "dup cell", "quote cell"):
        new = {"drop cell": [], "dup cell": [cells[cell]] * 2,
               "quote cell": [b'"' + cells[cell] + b'"']}[op]
        cells[cell:cell + 1] = new
        lines[row] = b",".join(cells)
        return b"\n".join(lines)
    if op == "number":
        found = list(NUMBER.finditer(data))
        if not found:
            return data
        m = found[i % len(found)]
        return data[: m.start()] + word + data[m.end():]
    raise AssertionError(op)


OPS = ("bom", "crlf", "insert", "truncate", "drop row", "dup row", "drop cell",
       "dup cell", "quote cell", "number")
mutations = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(WORDS)),
    min_size=1,
    max_size=2,
)


# ---------------------------------------------------------------------------
# output checks


def finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def nonincreasing(values) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def read_csv(path: Path) -> list[list[str]]:
    """The rows of a CSV output below its header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_evaluate(d: Path) -> None:
    payload = json.loads((d / "out.json").read_text())
    curves = payload["curves"]
    assert all(finite(p["limit"]) for p in curves)
    by_gamma = {}
    for p in curves:
        by_gamma.setdefault(p["gamma"], {})[p["alpha"]] = p["limit"]
    gammas = sorted(by_gamma)
    alphas = sorted(by_gamma[gammas[0]])
    for g in gammas:
        assert nonincreasing([by_gamma[g][a] for a in alphas]), "limit rises with alpha"
    for lo, hi in zip(gammas, gammas[1:]):
        assert all(by_gamma[lo][a] <= by_gamma[hi][a] for a in alphas), "limit falls as gamma rises"
    rows = [(float(g), float(a), float(v), t) for g, a, v, t in read_csv(d / "out.csv")]
    assert rows == [(p["gamma"], p["alpha"], p["limit"], str(p["trivial"]).lower()) for p in curves]


def check_ipsw(d: Path) -> None:
    payload = json.loads((d / "out.json").read_text())
    assert finite(payload["value"])
    quantiles = sorted(payload["quantiles"], key=lambda q: q["alpha"])
    limits = [q["limit"] for q in quantiles if q["limit"] is not None]
    assert all(finite(v) for v in limits)
    assert nonincreasing(limits)


def check_fit(d: Path) -> None:
    load_model(d / "out.json")


def check_benchmark(d: Path) -> None:
    for report in json.loads((d / "out.json").read_text())["reports"]:
        assert all(finite(g) and g >= 1.0 for g in report["suggested_gamma"].values())


def check_reliability(d: Path) -> None:
    rows = read_csv(d / "out.csv")
    assert rows
    for lower, upper, nominal, observed, n_target, n_trial in rows:
        assert all(math.isfinite(float(v)) for v in (lower, upper, nominal, n_target))
        # the observed odds are NaN exactly when the bin holds no trial rows
        assert math.isnan(float(observed)) == (int(n_trial) == 0)


CHECKS = {"evaluate": check_evaluate, "ipsw": check_ipsw, "fit": check_fit,
          "benchmark-gamma": check_benchmark, "reliability": check_reliability}


@pytest.mark.parametrize("kind", sorted(FILES))
def test_fixtures_are_valid(tmp_path, kind):
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    for command, argv in commands(kind, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0, argv
        CHECKS[command](tmp_path)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(FILES)), ops=mutations)
def test_mutated_input_fails_cleanly_or_gives_sound_outputs(kind, ops):
    data = FILES[kind]
    for op in ops:
        data = mutate(data, *op)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, original in FILES.items():
            (d / name).write_bytes(data if name == kind else original)
        for command, argv in commands(kind, d):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), (command, code)
            event(f"{kind} {command} exit {code}")
            lines = err.getvalue().splitlines()
            if code == 1:
                assert [ln for ln in lines if not ln.startswith("warning:")] == lines[-1:], lines
                assert lines[-1].startswith("error: "), lines
                assert not (d / "out.json").exists() and not (d / "out.csv").exists()
            else:
                CHECKS[command](d)
                for out in ("out.json", "out.csv"):
                    (d / out).unlink(missing_ok=True)
