"""Golden outputs: fixed command lines over the small committed study in
``tests/golden/`` must write the committed curve CSVs and JSON payloads byte
for byte.

The odds come from ``--scores``, never from a fitted model, so every output
rests on sorts, cumulative sums and single IEEE operations rather than on
BLAS or SIMD math that may round differently on another host. Each command
runs in a temporary directory on relative paths, so the ``config`` recorded
in each JSON is the same wherever the suite runs.

A change that moves a cell on purpose rewrites the expected files with
``PYTHONPATH=src python tests/test_golden.py`` and names every moved cell in
CHANGES.md.
"""

import contextlib
import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest

from limitcurves.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
INPUTS = ("trial.csv", "scores.csv", "policy.csv", "target.csv", "ties.csv", "ties-scores.csv")

EVALUATE = ["evaluate", "--trial", "trial.csv", "--scores", "scores.csv", "--l-max", "10", "--gammas", "1,1.5,4"]
IPSW = ["ipsw", "--trial", "trial.csv", "--target", "target.csv", "--scores", "scores.csv", "--alphas", "0.05,0.1,0.2,0.5"]

# name -> argv without its output flags; evaluate writes <name>.json and
# <name>.csv, ipsw writes <name>.json
CASES = {
    # alphas down to 1e-15, where every weight bound is infinite
    "evaluate-random-constant": EVALUATE
    + ["--policy", "constant:1", "--split", "random", "--alpha-grid", "1e-15:0.99:0.01"],
    "evaluate-matched-constant": EVALUATE + ["--policy", "constant:1", "--split", "matched"],
    "evaluate-random-uniform": EVALUATE + ["--policy", "uniform", "--split", "random", "--seed", "5"],
    # small alphas: trivial cells below the first nontrivial one at each gamma
    "evaluate-matched-uniform": EVALUATE
    + ["--policy", "uniform", "--split", "matched", "--seed", "4", "--alpha-grid", "0.001:0.06:0.001"],
    "evaluate-random-table": EVALUATE + ["--policy", "table:policy.csv", "--split", "random", "--frac", "0.3", "--seed", "5"],
    "evaluate-matched-table": EVALUATE + ["--policy", "table:policy.csv", "--split", "matched", "--seed", "5"],
    # integer losses, odds 1 or 2 and alphas in 64ths: some stand-in CDF
    # values equal their level exactly, so a level off by 1e-12 moves a cell
    "evaluate-matched-ties": ["evaluate", "--trial", "ties.csv", "--scores", "ties-scores.csv", "--l-max", "8"]
    + ["--gammas", "1,1.5,4", "--policy", "constant:1", "--split", "matched", "--alpha-grid", "0.015625:0.984375:0.015625"],
    "ipsw-plain": IPSW + ["--policy", "uniform"],
    "ipsw-normalized": IPSW + ["--policy", "table:policy.csv", "--normalized"],
}


def run_case(name: str, workdir: Path) -> list[Path]:
    """Run case ``name`` in ``workdir`` on copies of the inputs; returns its
    output paths, the JSON payload first."""
    for input_name in INPUTS:
        shutil.copyfile(GOLDEN / input_name, workdir / input_name)
    argv = CASES[name]
    outputs = [f"{name}.json"]
    if argv[0] == "evaluate":
        outputs.append(f"{name}.csv")
        argv = argv + ["--out-json", outputs[0], "--out-csv", outputs[1]]
    else:
        argv = argv + ["--out", outputs[0]]
    with contextlib.chdir(workdir):
        assert main(argv) == 0
    return [workdir / out for out in outputs]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_json_digests() -> dict[str, str]:
    lines = (EXPECTED / "SHA256SUMS").read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ") for line in lines)}


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_golden_files(name, tmp_path):
    payload, *curves = run_case(name, tmp_path)
    assert sha256(payload) == expected_json_digests()[payload.name]
    for curve in curves:
        assert curve.read_text() == (EXPECTED / curve.name).read_text()


def test_every_expected_file_belongs_to_a_case():
    assert set(expected_json_digests()) == {f"{name}.json" for name in CASES}
    curves = {f"{name}.csv" for name, argv in CASES.items() if argv[0] == "evaluate"}
    assert {path.name for path in EXPECTED.glob("*.csv")} == curves


def regenerate(workdir: Path) -> None:
    """Rewrite the expected curve CSVs and JSON digests from this tree."""
    for old in EXPECTED.glob("*.csv"):
        old.unlink()
    digests = []
    for name in CASES:
        case_dir = workdir / name
        case_dir.mkdir()
        payload, *curves = run_case(name, case_dir)
        digests.append(f"{sha256(payload)}  {payload.name}\n")
        for curve in curves:
            shutil.copyfile(curve, EXPECTED / curve.name)
    (EXPECTED / "SHA256SUMS").write_text("".join(digests))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
