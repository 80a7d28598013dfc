"""Self-tests of the benchmark's output checkers.

Each checker must pass a real CLI output, made here at a small size through
the same subprocess path the benchmark uses, and must flag a corrupted copy.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
"""

import json

import numpy as np
import pytest

import checks
from harness import cli_args, invoke
from workloads import (FIT_L2, FIT_TOL, FIXED_MODEL, GAMMAS, L_MAX, EvaluateLarge, FitLarge,
                       MiscoverageSmall)


def run_small(workload, workdir, seed=3):
    data = workload.generate(seed)
    for name, text in workload.files(data).items():
        (workdir / name).write_text(text)
    done = invoke(cli_args(workload.argv(workdir, seed)), workdir, timeout=120.0)
    assert checks.check_process(done.returncode, done.stderr) == [], done.stderr
    return data, done


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    workload = EvaluateLarge(n_target=2000, m_trial=2000)
    workdir = tmp_path_factory.mktemp("evaluate")
    data, done = run_small(workload, workdir)
    return workload, workdir, data, done


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    workload = FitLarge(n_target=1500, n_trial=500)
    workdir = tmp_path_factory.mktemp("fit")
    data, done = run_small(workload, workdir)
    return workload, workdir, data, done


def check_curves(data, payload):
    return checks.check_evaluate(payload, data["trial_x"], data["actions"], data["losses"],
                                 FIXED_MODEL, GAMMAS, L_MAX)


def test_same_seed_gives_byte_identical_inputs():
    workload = EvaluateLarge(n_target=300, m_trial=200)
    first = workload.files(workload.generate(5))
    assert first == workload.files(workload.generate(5))
    assert first["trial.csv"] != workload.files(workload.generate(6))["trial.csv"]


def test_evaluate_output_passes(evaluated):
    workload, workdir, data, done = evaluated
    assert workload.check(workdir, data, done.stdout) == []


@pytest.mark.parametrize("shift", [1, -1])
def test_limit_moved_by_one_loss_group_fails(evaluated, shift):
    workload, workdir, data, _ = evaluated
    payload = json.loads((workdir / "curves.json").read_text())
    cells = [p for p in payload["curves"] if p["gamma"] == 1.0]
    cell = cells[checks.SAMPLED_ALPHAS[6]]
    assert not cell["trivial"]
    groups = np.unique(data["losses"][data["actions"] == 1])
    k = int(np.searchsorted(groups, cell["limit"]))
    cell["limit"] = float(groups[k + shift])
    problems = check_curves(data, payload)
    expected = "already crosses" if shift > 0 else "no beta crosses"
    assert any(expected in p for p in problems), problems


def test_non_monotone_curve_fails(evaluated):
    workload, workdir, data, _ = evaluated
    payload = json.loads((workdir / "curves.json").read_text())
    cells = [p for p in payload["curves"] if p["gamma"] == 1.0]
    i = next(i for i in range(40, 98) if cells[i]["limit"] > cells[i + 1]["limit"])
    cells[i]["limit"], cells[i + 1]["limit"] = cells[i + 1]["limit"], cells[i]["limit"]
    problems = check_curves(data, payload)
    assert any("limit rises" in p for p in problems), problems


def test_fit_output_passes(fitted):
    workload, workdir, data, done = fitted
    assert workload.check(workdir, data, done.stdout) == []


def test_non_converged_model_fails(fitted):
    workload, workdir, data, done = fitted
    model = json.loads((workdir / "model.json").read_text())
    model["converged"] = False
    stdout = done.stdout.replace("converged=True", "converged=False")
    problems = checks.check_fit(stdout, model, data["pool_x"], data["labels"], FIT_L2, FIT_TOL)
    assert len(problems) == 2, problems


def test_model_away_from_the_optimum_fails(fitted):
    workload, workdir, data, done = fitted
    model = json.loads((workdir / "model.json").read_text())
    model["coefficients"] = [c * 1.01 for c in model["coefficients"]]
    problems = checks.check_fit(done.stdout, model, data["pool_x"], data["labels"], FIT_L2, FIT_TOL)
    assert any("penalized gradient" in p for p in problems), problems


def test_miscoverage_gap_check(tmp_path):
    workload = MiscoverageSmall(runs=40)
    _, done = run_small(workload, tmp_path)
    assert workload.check(tmp_path, {}, done.stdout) == []
    payload = json.loads((tmp_path / "gap.json").read_text())
    payload["rows"][1]["gap"] = -0.05
    assert len(checks.check_miscoverage(payload)) == 1


def test_traceback_on_stderr_fails():
    assert checks.check_process(0, "") == []
    stderr = 'Traceback (most recent call last):\n  File "x.py", line 1\nStopIteration\n'
    assert checks.check_process(0, stderr) == ["traceback on stderr"]
    assert checks.check_process(1, "error: bad input\n") == ["exit code 1"]
