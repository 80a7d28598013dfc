"""Tests for CSV/JSON formats and atomic writes."""

import csv
import json
import math
import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitcurves import fileio
from limitcurves.conformal import LimitCurve
from limitcurves.data import TargetCovariates, TrialDataset
from limitcurves.propensity import LabeledPool, ReliabilityBin, load_external_scores


def read_trial_csv(path):
    """``fileio.read_trial_csv`` for a two-arm trial file."""
    return fileio.read_trial_csv(path, k_actions=2)


def written_cells(tmp_path, column):
    path = tmp_path / "cells.csv"
    fileio.write_columns(path, ["v"], [column])
    return path.read_text().splitlines()[1:]


class TestNumberFormatting:
    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, 200)
        for v, text in zip(values, written_cells(tmp_path, values), strict=True):
            assert float(text) == float(v)

    def test_integers_and_bools(self, tmp_path):
        assert written_cells(tmp_path, [3]) == ["3"]
        assert written_cells(tmp_path, [True, False]) == ["true", "false"]
        assert written_cells(tmp_path, np.array([3], dtype=np.int32)) == ["3"]
        assert written_cells(tmp_path, np.array([3], dtype=np.float32)) == ["3.0"]

    def test_nan_text(self, tmp_path):
        assert written_cells(tmp_path, [float("nan")]) == ["nan"]
        assert math.isnan(float(written_cells(tmp_path, [float("nan")])[0]))


EXTREME_ROWS = [
    (-0.0, -(2**63)),
    (5e-324, 2**63 - 1),
    (2.225073858507201e-308, 0),  # largest subnormal
    (1.7976931348623157e308, -1),
    (-1.7976931348623157e308, 1),
]


class TestWriteColumns:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.integers(-(2**63), 2**63 - 1))))
    def test_round_trip_is_bit_identical(self, tmp_path_factory, rows):
        rows = EXTREME_ROWS + rows
        floats = np.array([f for f, _ in rows], dtype=np.float64)
        ints = np.array([i for _, i in rows], dtype=np.int64)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        fileio.write_columns(path, ["f", "i"], [floats, ints])
        back = fileio.read_table(path, lambda header: [("f", float, ()), ("i", int, ())])
        assert back["f"].tobytes() == floats.tobytes()
        assert back["i"].tobytes() == ints.tobytes()

    def test_unequal_columns_raise(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            fileio.write_columns(path, ["a", "b"], [[1.0, 2.0], [1.0]])
        assert list(tmp_path.iterdir()) == []  # neither the output nor a temp file

    def test_streamed_text_is_the_joined_text(self, tmp_path):
        """The lines written block by block are the bytes of the whole file
        built as one string, also one row short of, at and past a block."""
        rng = np.random.default_rng(5)
        block = fileio._BLOCK_ROWS
        for rows in (300, block - 1, block, block + 1):
            columns = [rng.normal(size=rows), rng.integers(-9, 9, rows), rng.random(rows) < 0.5]
            cells = [fileio._column_text(c) for c in columns]
            joined = "\n".join(["f,i,b", *map(",".join, zip(*cells))]) + "\n"
            path = tmp_path / f"{rows}.csv"
            fileio.write_columns(path, ["f", "i", "b"], columns)
            assert path.read_bytes() == joined.encode()

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        """Text is made one block of rows at a time: converting whole
        columns first peaked about four times higher at 1e5 rows than at 2.5e4."""
        rng = np.random.default_rng(7)
        peaks = []
        for rows in (25_000, 100_000):
            columns = [rng.normal(size=rows), rng.integers(-9, 9, rows)]
            tracemalloc.start()
            try:
                fileio.write_columns(tmp_path / f"{rows}.csv", ["f", "i"], columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0]


class TestGoldenBytes:
    """Each writer's exact output on a tiny fixture."""

    def test_target(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_target_csv(path, TargetCovariates([[0.1, -2.0], [1e-05, 3.0]]))
        assert path.read_bytes() == b"x0,x1\n0.1,-2.0\n1e-05,3.0\n"

    def test_trial(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_trial_csv(path, TrialDataset([[0.5], [-0.25]], [1, 0], [2.0, 0.1], 2))
        assert path.read_bytes() == b"x0,a,l\n0.5,1,2.0\n-0.25,0,0.1\n"

    def test_pool(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_pool_csv(path, LabeledPool([[1.5, 1e20], [-0.0, 2.0]], [0, 1]))
        assert path.read_bytes() == b"x0,x1,s\n1.5,1e+20,0\n-0.0,2.0,1\n"

    def test_limit_curve(self, tmp_path):
        columns = {
            "gamma": np.array([1.0, 2.0]),
            "alpha": np.array([0.1, 0.1]),
            "limit": np.array([3.5, 10.0]),
            "trivial": np.array([False, True]),
        }
        curve = LimitCurve(columns, {1.0: 0.9, 2.0: 0.0}, (1.0, 2.0), 10.0)
        path = tmp_path / "t.csv"
        fileio.write_limit_curve_csv(path, curve)
        assert path.read_bytes() == b"gamma,alpha,limit,trivial\n1.0,0.1,3.5,false\n2.0,0.1,10.0,true\n"

    def test_reliability(self, tmp_path):
        bins = [ReliabilityBin(0.5, 1.25, 0.75, 1.0, 3, 3), ReliabilityBin(1.25, 2.0, 1.5, math.nan, 2, 0)]
        path = tmp_path / "t.csv"
        fileio.write_reliability_csv(path, bins)
        assert path.read_bytes() == (
            b"bin_lower,bin_upper,mean_nominal,observed,n_target,n_trial\n"
            b"0.5,1.25,0.75,1.0,3,3\n1.25,2.0,1.5,nan,2,0\n"
        )


class TestCsvRoundTrips:
    def test_target(self, tmp_path):
        rng = np.random.default_rng(1)
        target = TargetCovariates(rng.normal(size=(7, 3)))
        path = tmp_path / "target.csv"
        fileio.write_target_csv(path, target)
        back = fileio.read_target_csv(path)
        assert np.array_equal(back.x, target.x)

    def test_trial(self, tmp_path):
        rng = np.random.default_rng(2)
        trial = TrialDataset(
            rng.normal(size=(9, 2)), rng.integers(0, 3, 9), rng.normal(size=9), 3
        )
        path = tmp_path / "trial.csv"
        fileio.write_trial_csv(path, trial)
        back = fileio.read_trial_csv(path, k_actions=3)
        assert np.array_equal(back.x, trial.x)
        assert np.array_equal(back.actions, trial.actions)
        assert np.array_equal(back.losses, trial.losses)

    def test_pool(self, tmp_path):
        rng = np.random.default_rng(3)
        pool = LabeledPool(rng.normal(size=(8, 2)), rng.integers(0, 2, 8))
        path = tmp_path / "pool.csv"
        fileio.write_pool_csv(path, pool)
        back = fileio.read_pool_csv(path)
        assert np.array_equal(back.x, pool.x)
        assert np.array_equal(back.labels, pool.labels)

    @pytest.mark.parametrize(
        "read, text, arrays",
        [
            (read_trial_csv, "x0,x1,a,l\n1.5,2,0,3.5\n4,5,1,6\n", lambda t: [t.x, t.actions, t.losses]),
            (fileio.read_pool_csv, "x0,s\n1.5,0\n4,1\n", lambda p: [p.x, p.labels]),
            (load_external_scores, "id,odds\n1,2.5\n0,1\n", lambda odds: [odds]),
        ],
    )
    def test_byte_order_mark_is_ignored(self, tmp_path, read, text, arrays):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        got, want = arrays(read(marked)), arrays(read(plain))
        assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want, strict=True))

    def test_byte_order_mark_before_a_bad_cell(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_text("x0,a,l\n0.5,1,oops\n", encoding="utf-8-sig")
        with pytest.raises(ValueError, match="parse failure: could not convert string to float: 'oops'"):
            fileio.read_trial_csv(path, k_actions=2)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            fileio.read_target_csv(path)
        with pytest.raises(ValueError):
            fileio.read_trial_csv(path, k_actions=2)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x0\n")
        with pytest.raises(ValueError):
            fileio.read_target_csv(path)


TRIAL_TAIL = (("a", int), ("l", float))


def per_row_reference(path, tail):
    """The CSV read cell by cell with ``csv`` and ``float``/``int``."""
    with open(path, newline="") as fh:
        rows = [row for row in list(csv.reader(fh))[1:] if row]
    dim = len(rows[0]) - len(tail)
    x = np.array([[float(v) for v in row[:dim]] for row in rows])
    return x, [np.array([parse(row[j]) for row in rows]) for j, (_, parse) in enumerate(tail, dim)]


SPECIAL_FLOATS = ("nan", "NaN", "-nan", "inf", "+inf", "-inf", "Infinity", "-Infinity", "INF")


@st.composite
def float_tokens(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(SPECIAL_FLOATS))
    v = draw(st.floats(allow_nan=False, allow_infinity=False))
    text = draw(st.sampled_from((repr, "{:.6e}".format, "{:.17g}".format, "{:E}".format)))(v)
    return text if text.startswith("-") or not draw(st.booleans()) else "+" + text


@st.composite
def int_tokens(draw):
    v = draw(st.integers(-(2**63), 2**63 - 1))
    text = draw(st.sampled_from(("{}", "{:03d}"))).format(v)
    return text if v < 0 or not draw(st.booleans()) else "+" + text


@st.composite
def cells(draw, token):
    pad = st.text(st.sampled_from(" \t"), max_size=2)
    cell = draw(pad) + draw(token) + draw(pad)
    return f'"{cell}"' if draw(st.booleans()) else cell


@st.composite
def csv_files(draw):
    """Valid CSV text: padded, signed, quoted and special cells, CRLF or LF
    line ends, blank lines, and files of one row."""
    dim = draw(st.integers(1, 3))
    tail = draw(st.sampled_from(((), TRIAL_TAIL, (("s", int),))))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    lines = [",".join([f"x{j}" for j in range(dim)] + [name for name, _ in tail])]
    parses = [float] * dim + [parse for _, parse in tail]
    for _ in range(draw(st.integers(1, 6))):
        lines += [""] * draw(st.integers(0, 2))
        lines.append(
            ",".join(draw(cells(int_tokens() if p is int else float_tokens())) for p in parses)
        )
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, tail


class TestReadColumns:
    @settings(max_examples=200, deadline=None, database=None)
    @given(csv_files())
    def test_matches_per_row_reference(self, tmp_path_factory, case):
        text, tail = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode())
        x, columns = fileio.read_columns(path, "x", tail)
        ref_x, ref_columns = per_row_reference(path, tail)
        assert x.flags.c_contiguous
        for got, ref in zip([x, *columns], [ref_x, *ref_columns], strict=True):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "text, tail, message",
        [
            ("", TRIAL_TAIL, ": empty file"),
            ("x0,a,l\n", TRIAL_TAIL, ": no data rows"),
            ("x0,a,l\n\n\r\n", TRIAL_TAIL, ": no data rows"),
            ("y0,a,l\n", TRIAL_TAIL, ": no data rows"),
            ("x0,a,l\n1,0,2\n1,0\n", TRIAL_TAIL, ":3: expected 3 columns, got 2"),
            ("x0,a,l\n1,0,2,3\n", TRIAL_TAIL, ":2: expected 3 columns, got 4"),
            ("x0,a,l\n1,0,2\n  \n", TRIAL_TAIL, ":3: expected 3 columns, got 1"),
            ("y0,a,l\n1,0\n", TRIAL_TAIL, ":2: expected 3 columns, got 2"),
            ("x0,b,l\n1,0,2\n", TRIAL_TAIL, ": expected header x0,...,x0,a,l"),
            ("a,l\n0,2\n", TRIAL_TAIL, ": expected header x0,...,x{d-1},a,l"),
            ("x0,x1\n1.0,\n", (), ": parse failure: could not convert string to float: ''"),
            (
                "x0,a,l\n1.0,1,abc\n",
                TRIAL_TAIL,
                ": parse failure: could not convert string to float: 'abc'",
            ),
            (
                "x0,a,l\n1.0,1.0,2\n",
                TRIAL_TAIL,
                ": parse failure: invalid literal for int() with base 10: '1.0'",
            ),
            # the covariates are checked before the tail, one tail column at a time
            (
                "x0,a,l\n1.0,1,bad-l\nbad-x,1,2\n",
                TRIAL_TAIL,
                ": parse failure: could not convert string to float: 'bad-x'",
            ),
            (
                "x0,a,l\n1.0,1,bad-l\n1.0,bad-a,2\n",
                TRIAL_TAIL,
                ": parse failure: invalid literal for int() with base 10: 'bad-a'",
            ),
            # accepted by float()/int() but not by the int64/float64 parse
            (
                "x0,a,l\n1.0,99999999999999999999,2\n",
                TRIAL_TAIL,
                ": parse failure: could not convert string '99999999999999999999' "
                "to int64 at row 0, column 2.",
            ),
            (
                "x0\n1_0\n",
                (),
                ": parse failure: could not convert string '1_0' to float64 at row 0, column 1.",
            ),
        ],
    )
    def test_error_messages(self, tmp_path, text, tail, message):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as info:
            fileio.read_columns(path, "x", tail)
        assert str(info.value) == f"{path}{message}"

    def test_diagnosis_memory_does_not_grow_with_rows(self, tmp_path):
        """A rejected file is diagnosed in one pass that keeps only each
        field's first failure: holding every row first peaked about four
        times higher at 2e4 rows than at 5e3."""

        def fields_for(header):
            return [("x", float, (2,)), ("a", int, ())]

        peaks = []
        for rows in (5_000, 20_000):
            path = tmp_path / f"{rows}.csv"
            path.write_text("x0,x1,a\n" + "0.25,-1.5,1\n" * (rows - 1) + "0.25,-1.5,bad\n")
            tracemalloc.start()
            try:
                with pytest.raises(ValueError) as info:
                    fileio._row_error(path, fields_for)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert str(info.value) == f"{path}: parse failure: invalid literal for int() with base 10: 'bad'"
        assert peaks[1] < 1.2 * peaks[0]

    @pytest.mark.filterwarnings("default")
    def test_cast_warning_is_a_parse_failure(self, tmp_path, monkeypatch):
        """numpy 1.x reads an int64 cell ``1.5`` as 1 after a
        DeprecationWarning; the reader refuses it whatever the warning filters."""

        def casting_loadtxt(fname, dtype, **kwargs):
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return np.ones(1, dtype=dtype)

        monkeypatch.setattr(np, "loadtxt", casting_loadtxt)
        path = tmp_path / "t.csv"
        path.write_text("x0,a,l\n0.5,1.5,2\n")
        with pytest.raises(ValueError) as info:
            fileio.read_columns(path, "x", TRIAL_TAIL)
        assert str(info.value) == (
            f"{path}: parse failure: invalid literal for int() with base 10: '1.5'"
        )

    def test_header_only_file_does_not_warn(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x0,x1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                fileio.read_columns(path, "x")
        assert caught == []


def atomic_write(path, text):
    with fileio.atomic_output(path) as fh:
        fh.write(text)


class TestAtomicWrite:
    def test_no_temp_residue_and_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_overwrite_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write(path, "new")
        assert path.read_text() == "new"

    def test_missing_directory_names_the_path(self, tmp_path):
        path = tmp_path / "nodir" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            atomic_write(path, "x")
        assert info.value.filename == str(path)

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        # the error names the requested path only, not the removed temp file
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write(target, "x")
        assert (info.value.filename, info.value.filename2) == (str(target), None)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(target.iterdir()) == []

    def test_error_in_the_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(KeyError):
            with fileio.atomic_output(path) as fh:
                fh.write("half")
                raise KeyError("stop")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def write_csv_output(path):
    fileio.write_target_csv(path, TargetCovariates(np.ones((2, 2))))


def write_json_output(path):
    fileio.write_json(path, {"v": 1})


class TestOutputMode:
    """Outputs get the mode ``open(path, "w")`` would give a new file."""

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    @pytest.mark.parametrize("write", [write_csv_output, write_json_output], ids=["csv", "json"])
    def test_mode_follows_the_umask(self, tmp_path, write, umask, mode):
        path = tmp_path / "out"
        old = os.umask(umask)
        try:
            write(path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


def curve_payload(points):
    """An ``evaluate``-shaped payload with ``points`` curve rows."""
    rng = np.random.default_rng(3)
    alphas, limits = rng.random(points).tolist(), (10.0 * rng.random(points)).tolist()
    return {
        "schema_version": 1,
        "config": {"trial": "trial.csv", "gammas": "1,2", "seed": 0, "target": None},
        "curves": [
            {"gamma": 1.0, "alpha": a, "limit": q, "trivial": q > 9.0}
            for a, q in zip(alphas, limits)
        ],
    }


class TestJson:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_infinity_refused(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            fileio.write_json(path, {"v": value})
        assert not path.exists()

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_infinity_late_in_the_payload_leaves_no_file(self, tmp_path, value):
        """The streamed text stops at the bad value; the part already
        written goes with the temp file."""
        payload = curve_payload(1000)
        payload["curves"][-1]["limit"] = value
        with pytest.raises(ValueError, match="not JSON compliant"):
            fileio.write_json(tmp_path / "x.json", payload)
        assert list(tmp_path.iterdir()) == []

    def test_streamed_text_is_the_dumped_text(self, tmp_path):
        payload = curve_payload(500)
        path = tmp_path / "x.json"
        fileio.write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()

    def test_peak_memory_stays_below_the_text(self, tmp_path):
        """At 2e4 curve points the text is about 2.3 MB; building it as one
        string peaked near 17 MB, streaming it stays under 1 MB."""
        payload = curve_payload(20_000)
        path = tmp_path / "x.json"
        tracemalloc.start()
        try:
            fileio.write_json(path, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2 * 10**6
        assert peak < 10**6


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nn=20\n\npop = B\n")
        assert fileio.read_config_file(path) == {"n": "20", "pop": "B"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just-a-token\n")
        with pytest.raises(ValueError):
            fileio.read_config_file(path)
