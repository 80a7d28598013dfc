"""The three benchmark workloads: deterministic inputs, CLI arguments, checks.

Inputs are drawn here with numpy from the run's seed, never through
``limitcurves simulate``, so a change to the library's simulator or fitter
cannot change what ``evaluate-large`` and ``fit-large`` receive.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

import checks

L_MAX = 1000.0  # declared loss-support bound; every generated loss lies far below it
FIT_L2 = 1e-4
FIT_TOL = 1e-6
GAMMAS = (1.0, 2.0)  # evaluate-large's sensitivity levels
STUDY_N, STUDY_M = 2000, 500  # miscoverage-small's study size: the CLI defaults
PER_RUN = 500  # target draws per study for the empirical coverage

# Fixed selection-odds model for evaluate-large: odds = exp(0.5 * (x0 + x1)),
# the shape of the density ratio between the generated target and trial rows.
FIXED_MODEL = {
    "schema_version": 1,
    "kind": "logistic-odds-model",
    "coefficients": [-0.5, -0.5],
    "intercept": 0.0,
    "feature_mean": [0.0, 0.0],
    "feature_scale": [1.0, 1.0],
    "converged": True,
    "iterations": 0,
    "grad_max": 0.0,
}


def csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV in the README's formats; ``repr`` gives shortest round-trip numbers."""
    rows = zip(*(c.tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)


def _trial_rows(rng: np.random.Generator, m: int):
    """Standard-normal trial covariates, uniform two-arm actions, and losses
    ``a * x0^2 + x1 + a * u + (1 - a) + noise`` with a hidden factor ``u``."""
    x = rng.standard_normal((m, 2))
    u = rng.standard_normal(m)
    a = rng.integers(0, 2, m)
    losses = a * x[:, 0] ** 2 + x[:, 1] + a * u + (1 - a) + rng.standard_normal(m)
    return x, a, losses


def _target_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    return 0.5 + rng.standard_normal((n, 2))


def files_digest(files: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class EvaluateLarge:
    """``evaluate`` over a large target file and trial file with a fixed model."""

    n_target: int = 200_000
    m_trial: int = 50_000

    name = "evaluate-large"
    work_unit = "trial rows"
    outputs = ("curves.json", "curves.csv")

    @property
    def work(self) -> int:
        return self.m_trial

    def sizes(self) -> dict:
        return {"n_target": self.n_target, "m_trial": self.m_trial, "dim": 2,
                "gammas": list(GAMMAS), "alphas": 99, "betas": 49}

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        target = _target_rows(rng, self.n_target)
        x, a, losses = _trial_rows(rng, self.m_trial)
        return {"target_x": target, "trial_x": x, "actions": a, "losses": losses}

    def files(self, data: dict) -> dict[str, str]:
        x = data["trial_x"]
        t = data["target_x"]
        return {
            "target.csv": csv_text(["x0", "x1"], [t[:, 0], t[:, 1]]),
            "trial.csv": csv_text(["x0", "x1", "a", "l"],
                                  [x[:, 0], x[:, 1], data["actions"], data["losses"]]),
            "model.json": json.dumps(FIXED_MODEL, indent=2) + "\n",
        }

    def argv(self, workdir: Path, seed: int) -> list[str]:
        return [
            "evaluate", "--trial", str(workdir / "trial.csv"),
            "--target", str(workdir / "target.csv"), "--model", str(workdir / "model.json"),
            "--policy", "constant:1", "--design", "uniform:2",
            "--gammas", ",".join(repr(g) for g in GAMMAS), "--split", "matched",
            "--seed", str(seed), "--l-max", repr(L_MAX),
            "--out-json", str(workdir / "curves.json"), "--out-csv", str(workdir / "curves.csv"),
        ]

    def check(self, workdir: Path, data: dict, stdout: str) -> list[str]:
        payload = json.loads((workdir / "curves.json").read_text())
        return checks.check_evaluate(
            payload, data["trial_x"], data["actions"], data["losses"],
            FIXED_MODEL, GAMMAS, L_MAX,
        )


@dataclasses.dataclass(frozen=True)
class FitLarge:
    """``fit`` on a large labeled pool: CSV parsing plus one large logistic fit."""

    n_target: int = 200_000
    n_trial: int = 50_000

    name = "fit-large"
    work_unit = "pool rows"
    outputs = ("model.json",)

    @property
    def work(self) -> int:
        return self.n_target + self.n_trial

    def sizes(self) -> dict:
        return {"pool_rows": self.work, "s0_rows": self.n_target, "s1_rows": self.n_trial,
                "dim": 2, "l2": FIT_L2, "tol": FIT_TOL}

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        x = np.vstack([_target_rows(rng, self.n_target), rng.standard_normal((self.n_trial, 2))])
        s = np.concatenate([np.zeros(self.n_target, dtype=np.int64),
                            np.ones(self.n_trial, dtype=np.int64)])
        order = rng.permutation(x.shape[0])
        return {"pool_x": x[order], "labels": s[order]}

    def files(self, data: dict) -> dict[str, str]:
        x = data["pool_x"]
        return {"pool.csv": csv_text(["x0", "x1", "s"], [x[:, 0], x[:, 1], data["labels"]])}

    def argv(self, workdir: Path, seed: int) -> list[str]:
        return ["fit", "--pool", str(workdir / "pool.csv"), "--l2", repr(FIT_L2),
                "--tol", repr(FIT_TOL), "--out", str(workdir / "model.json")]

    def check(self, workdir: Path, data: dict, stdout: str) -> list[str]:
        model = json.loads((workdir / "model.json").read_text())
        return checks.check_fit(stdout, model, data["pool_x"], data["labels"], FIT_L2, FIT_TOL)


@dataclasses.dataclass(frozen=True)
class MiscoverageSmall:
    """``miscoverage`` at the default study size: many small fits and limits."""

    runs: int = 250

    name = "miscoverage-small"
    work_unit = "studies"
    outputs = ("gap.json",)

    @property
    def work(self) -> int:
        return self.runs

    def sizes(self) -> dict:
        return {"runs": self.runs, "n": STUDY_N, "m": STUDY_M, "per_run": PER_RUN,
                "pop": "B", "gamma": 2.0, "alphas": [0.05, 0.1, 0.2]}

    def generate(self, seed: int) -> dict:
        return {}

    def files(self, data: dict) -> dict[str, str]:
        return {}

    def argv(self, workdir: Path, seed: int) -> list[str]:
        return [
            "miscoverage", "--pop", "B", "--method", "certified", "--gamma", "2",
            "--odds", "fitted", "--n", str(STUDY_N), "--m", str(STUDY_M),
            "--runs", str(self.runs), "--per-run", str(PER_RUN),
            "--alphas", "0.05,0.1,0.2", "--seed", str(seed), "--out", str(workdir / "gap.json"),
        ]

    def check(self, workdir: Path, data: dict, stdout: str) -> list[str]:
        return checks.check_miscoverage(json.loads((workdir / "gap.json").read_text()))


WORKLOADS = {w.name: w for w in (EvaluateLarge(), FitLarge(), MiscoverageSmall())}
