"""Tests for CSV/JSON formats and atomic writes."""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitcurves import fileio
from limitcurves.data import TargetCovariates, TrialDataset
from limitcurves.propensity import LabeledPool


class TestNumberFormatting:
    def test_round_trip_precision(self):
        rng = np.random.default_rng(0)
        for v in rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, 200):
            assert float(fileio.fmt(float(v))) == float(v)

    def test_integers_and_bools(self):
        assert fileio.fmt(3) == "3"
        assert fileio.fmt(True) == "true"
        assert fileio.fmt(False) == "false"

    def test_nan_text(self):
        assert fileio.fmt(float("nan")) == "nan"
        assert math.isnan(float(fileio.fmt(float("nan"))))


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

    def test_trial_infers_action_count(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("x0,a,l\n0.0,0,1.0\n0.0,2,2.0\n")
        assert fileio.read_trial_csv(path).k_actions == 3

    def test_pool(self, tmp_path):
        rng = np.random.default_rng(3)
        pool = LabeledPool(rng.normal(size=(8, 2)), rng.integers(0, 2, 8))
        path = tmp_path / "pool.csv"
        fileio.write_pool_csv(path, pool)
        back = fileio.read_pool_csv(path)
        assert np.array_equal(back.x, pool.x)
        assert np.array_equal(back.labels, pool.labels)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            fileio.read_target_csv(path)
        with pytest.raises(ValueError):
            fileio.read_trial_csv(path)

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


class TestAtomicWrite:
    def test_no_temp_residue_and_content(self, tmp_path):
        path = tmp_path / "out.txt"
        fileio.atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_overwrite_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        fileio.atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_missing_directory_names_the_path(self, tmp_path):
        path = tmp_path / "nodir" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            fileio.atomic_write_text(path, "x")
        assert info.value.filename == str(path)


class TestJson:
    def test_nan_becomes_null(self, tmp_path):
        path = tmp_path / "x.json"
        fileio.write_json(path, fileio.jsonable({"v": float("nan"), "w": np.float64(2.0)}))
        payload = json.loads(path.read_text())
        assert payload["v"] is None
        assert payload["w"] == 2.0

    def test_infinity_refused(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            fileio.write_json(path, fileio.jsonable({"v": math.inf}))
        assert not path.exists()


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
