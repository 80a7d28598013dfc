"""Synthetic lab: two-covariate Gaussian populations with a hidden selection
factor, an analytic true-odds oracle, and the Monte Carlo miscoverage harness.

The generator never needs an explicit sampling mechanism: covariates are drawn
per population and the true selection odds follow from Bayes' rule on the two
Gaussian families, with the prior ratio exposed as a parameter (it cancels in
the certified limits but matters for the reweighting baseline).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import pickle
import signal
import threading
import warnings

import numpy as np

from .conformal import _default_blocks, _limits, certify
from .data import LabeledPool, PolicySpec, TargetCovariates, TrialDataset, TrialDesign
from .data import check_distinct, check_gamma, check_odds, check_open_unit
from .data import sample_actions
from .ipsw import _ipsw_quantiles
from .propensity import LogisticConfig, fit_logistic, predict_odds
from .weights import shift_weights

LOSS_NOISE_SD = 1.0
MAX_STUDY_ROWS = 10**7  # per sample size of one study, checked before any draw
# Rows of one study with n, m, m_train and per_run all at MAX_STUDY_ROWS (2.7 GiB
# peak RSS). miscoverage_gap forks no more workers than keep the rows of the
# studies they hold at once within this bound.
MAX_ROWS_IN_FLIGHT = 4 * MAX_STUDY_ROWS


@dataclasses.dataclass(frozen=True)
class PopulationParams:
    """Means and variances of the two covariates and the hidden factor."""

    mean_x0: float
    mean_x1: float
    mean_u: float
    var_x0: float
    var_x1: float
    var_u: float

    def __post_init__(self):
        if min(self.var_x0, self.var_x1, self.var_u) <= 0:
            raise ValueError("variances must be positive")


POPULATIONS = {
    "A": PopulationParams(0.5, 0.5, 0.5, 1.0, 1.0, 1.0),
    "B": PopulationParams(0.0, 0.5, 0.0, 1.25, 1.5, 1.25),
    "C": PopulationParams(0.0, 0.0, 0.0, 1.5, 1.5, 1.5),
    "D": PopulationParams(0.25, 0.25, 0.25, 1.0, 0.25, 0.5),
    "trial": PopulationParams(0.0, 0.0, 0.0, 1.0, 1.0, 1.0),
}


@dataclasses.dataclass(frozen=True)
class SimScenario:
    """Target/trial populations, trial design, and sample sizes for one study."""

    target: PopulationParams
    trial: PopulationParams = POPULATIONS["trial"]
    design: TrialDesign = TrialDesign.uniform(2)
    n: int = 2000
    m: int = 500
    m_train: int = 500

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.m_train < 1:
            raise ValueError("sample sizes must be at least 1")
        if max(self.n, self.m, self.m_train) > MAX_STUDY_ROWS:
            raise ValueError(f"sample sizes must be at most {MAX_STUDY_ROWS}")


def scenario(name: str, **overrides) -> SimScenario:
    """Scenario with a named built-in target population: A, B, C or D. The
    trial population is not a target."""
    if name not in POPULATIONS or name == "trial":
        raise ValueError(f"unknown population {name!r}; choose from A, B, C, D")
    return SimScenario(target=POPULATIONS[name], **overrides)


def _draw_population(
    params: PopulationParams, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Covariate rows (x0, x1) and the hidden factor u, from one (n, 3)
    standard-normal draw."""
    draws = rng.standard_normal((n, 3))
    x0 = params.mean_x0 + math.sqrt(params.var_x0) * draws[:, 0]
    x1 = params.mean_x1 + math.sqrt(params.var_x1) * draws[:, 1]
    u = params.mean_u + math.sqrt(params.var_u) * draws[:, 2]
    return np.column_stack([x0, x1]), u


def sample_target(
    params: PopulationParams, n: int, seed
) -> tuple[TargetCovariates, np.ndarray]:
    """Draw covariate-only target rows; the hidden factor is returned separately
    and only for oracle use. ``seed`` goes to ``np.random.default_rng``, so a
    ``Generator`` continues its own stream."""
    if n < 1:
        raise ValueError("n must be at least 1")
    x, u = _draw_population(params, n, np.random.default_rng(seed))
    return TargetCovariates(x), u


def loss_mean(actions, x, u) -> np.ndarray:
    """Conditional mean loss: a * x0^2 + x1 + a * u + (1 - a)."""
    a = np.asarray(actions, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return a * x[..., 0] ** 2 + x[..., 1] + a * np.asarray(u) + (1.0 - a)


def sample_losses(actions, x, u, rng: np.random.Generator) -> np.ndarray:
    mean = loss_mean(actions, x, u)
    return mean + LOSS_NOISE_SD * rng.standard_normal(mean.shape[0])


def sample_trial(
    params: PopulationParams, m: int, design: TrialDesign, seed
) -> tuple[TrialDataset, np.ndarray]:
    """Draw trial records with design-randomized actions and model losses."""
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = np.random.default_rng(seed)
    x, u = _draw_population(params, m, rng)
    actions = sample_actions(
        np.broadcast_to(design.probs, (m, design.k_actions)), rng
    )
    losses = sample_losses(actions, x, u, rng)
    return TrialDataset(x, actions, losses, design.k_actions), u


def _gaussian_log_density(v, mean: float, var: float) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return -0.5 * (np.log(2.0 * math.pi * var) + (v - mean) ** 2 / var)


def true_odds(
    x, target: PopulationParams, trial: PopulationParams, prior_ratio: float = 1.0
) -> np.ndarray:
    """Exact covariate selection odds per row of the 2-d ``x``, via Bayes on
    the two Gaussian families, with the hidden factor marginalized out (it is
    independent of x)."""
    if prior_ratio <= 0:
        raise ValueError("prior_ratio must be positive")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("x must be a 2-d array of rows with two covariates")
    log_ratio = (
        _gaussian_log_density(arr[:, 0], target.mean_x0, target.var_x0)
        - _gaussian_log_density(arr[:, 0], trial.mean_x0, trial.var_x0)
        + _gaussian_log_density(arr[:, 1], target.mean_x1, target.var_x1)
        - _gaussian_log_density(arr[:, 1], trial.mean_x1, trial.var_x1)
    )
    return prior_ratio * np.exp(log_ratio)


def true_odds_with_u(
    x, u, target: PopulationParams, trial: PopulationParams, prior_ratio: float = 1.0
) -> np.ndarray:
    """Selection odds per row of ``x`` given the hidden factor ``u`` of each row."""
    factor = np.exp(
        _gaussian_log_density(u, target.mean_u, target.var_u)
        - _gaussian_log_density(u, trial.mean_u, trial.var_u)
    )
    return true_odds(x, target, trial, prior_ratio) * factor


def true_miscalibration(
    x, u, model_odds, scenario: SimScenario, prior_ratio: float = 1.0
) -> np.ndarray:
    """Ratio of the exact selection odds (with the hidden factor) to the
    model's nominal odds, per row; 1 everywhere means a perfectly calibrated
    model."""
    check_odds(model_odds, "model odds")
    exact = true_odds_with_u(x, u, scenario.target, scenario.trial, prior_ratio)
    return exact / model_odds


@dataclasses.dataclass(frozen=True)
class CertifiedMethod:
    """Certified limit configuration for the miscoverage harness, checked when built."""

    gamma: float
    split: str = "matched"
    split_frac: float = 0.5
    odds_source: str = "fitted"
    fit: LogisticConfig = LogisticConfig()

    def __post_init__(self):
        if self.split not in ("matched", "random"):
            raise ValueError("split must be 'matched' or 'random'")
        if self.odds_source not in ("fitted", "oracle"):
            raise ValueError("odds_source must be 'fitted' or 'oracle'")
        check_gamma(self.gamma)
        if self.split == "random":
            check_open_unit(self.split_frac, "frac")
        elif self.split_frac != 0.5:
            raise ValueError("split_frac applies to the random split only")

    def _study_limits(self, scn, trial, odds, policy, alphas, rng) -> np.ndarray:
        """Per-alpha certified limits of one study, split with a seed drawn
        from ``rng``."""
        split_seed = int(rng.integers(0, 2**63 - 1))
        cal, ws, _ = certify(trial, odds, policy, scn.design, self.split, self.split_frac, split_seed)
        return _limits(cal, ws, [self.gamma], _default_blocks(alphas))[0]


@dataclasses.dataclass(frozen=True)
class IpswMethod:
    """Reweighting-baseline configuration for the miscoverage harness."""

    odds_source: str = "fitted"
    normalized: bool = False
    fit: LogisticConfig = LogisticConfig()

    def __post_init__(self):
        if self.odds_source not in ("fitted", "oracle"):
            raise ValueError("odds_source must be 'fitted' or 'oracle'")

    def _study_limits(self, scn, trial, odds, policy, alphas, rng) -> np.ndarray:
        """Per-alpha reweighting-baseline quantiles of one study; draws nothing."""
        weights = shift_weights(trial, odds, policy, scn.design)
        return _ipsw_quantiles(trial.losses, weights, scn.n, alphas, self.normalized)


@dataclasses.dataclass(frozen=True)
class MiscoverageRow:
    alpha: float
    exceed_rate: float
    gap: float
    se: float


@dataclasses.dataclass(frozen=True)
class MiscoverageReport:
    """Empirical exceed rates per alpha; gap = alpha - exceed rate, with
    se = sqrt(rate * (1 - rate) / (runs * per_run)). The fields are the
    keys, in order, of the ``miscoverage`` payload after its config."""

    runs: int
    per_run: int
    method: dict
    rows: list[MiscoverageRow]


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator derived from (master seed, run index); reproducible
    independently of execution order."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,))
    )


def sample_pool(
    target_x: np.ndarray, trial: PopulationParams, m_train: int, seed
) -> LabeledPool:
    """Labeled pool for the odds fit: the target rows (label 0) stacked over
    ``m_train`` fresh rows drawn from the trial population (label 1)."""
    train, _ = sample_target(trial, m_train, seed)
    labels = np.repeat(np.array([0, 1], dtype=np.int64), [target_x.shape[0], m_train])
    return LabeledPool(np.vstack([target_x, train.x]), labels)


def _exceed_counts(scn, method, alphas, per_run, seed, policy, run_indices) -> list[int]:
    """Exceed counts per alpha, summed over the studies ``run_indices``."""
    exceed = [0] * len(alphas)
    for run_index in run_indices:
        rng = run_rng(seed, run_index)
        target_covs, _ = sample_target(scn.target, scn.n, rng)
        trial, _ = sample_trial(scn.trial, scn.m, scn.design, rng)
        if method.odds_source == "oracle":
            odds = true_odds(trial.x, scn.target, scn.trial, prior_ratio=scn.n / scn.m_train)
        else:
            pool = sample_pool(target_covs.x, scn.trial, scn.m_train, rng)
            odds = predict_odds(fit_logistic(pool, method.fit), trial.x)
        limits = method._study_limits(scn, trial, odds, policy, alphas, rng)

        fresh_covs, fresh_u = sample_target(scn.target, per_run, rng)
        fresh_actions = sample_actions(
            policy.prob_matrix(per_run, scn.design.k_actions), rng
        )
        fresh_losses = sample_losses(fresh_actions, fresh_covs.x, fresh_u, rng)
        for i, bound in enumerate(limits):
            exceed[i] += int(np.sum(fresh_losses > bound))
    return exceed


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where forking is unavailable or
    unsafe: no ``sched_getaffinity`` (Windows has no fork; on macOS it is
    unsafe), or another Python thread that could hold a lock the child
    inherits."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


# Item indices travel through the queue pipe as 4-byte records. A pipe holds
# at least one 4096-byte page, so up to 1024 records are written before any
# worker starts without blocking. The pipe is never written again and every
# read asks for whole records, so no worker gets part of one.
_RECORD = 4
_MAX_QUEUED = 4096 // _RECORD


def _run_queued(fn, items: list, queue_fd: int) -> tuple[dict, tuple | None]:
    """Take item indices from the queue pipe one at a time and run ``fn`` on
    each item until the queue is empty. Returns the results by index and the
    first failure as ``(index, exception)``, or None. A failing worker empties
    the queue: every item still in it comes after the failed one, so none of
    them can change which error the caller raises."""
    results = {}
    while record := os.read(queue_fd, _RECORD):
        index = int.from_bytes(record, "little")
        try:
            results[index] = fn(items[index])
        except Exception as exc:
            while os.read(queue_fd, 4096):
                pass
            return results, (index, exc)
    return results, None


def _fork_child(work) -> tuple[int, int]:
    """Fork a child that sends ``work()`` back pickled and leaves by
    ``os._exit``; returns its pid and the read end of its pipe."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with several OS threads forks.
            # numpy's OpenBLAS pool is such a thread; OpenBLAS resets its pool
            # in the child through pthread_atfork, and the child runs only
            # numpy code and leaves by os._exit.
            warnings.filterwarnings(
                "ignore",
                message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                category=DeprecationWarning,
            )
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            reply = work()
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(reply, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _reap(pid: int, read_fd: int) -> tuple[int, bytes]:
    """Read a child's reply to the end, then reap it; returns its exit code
    and the reply bytes."""
    with os.fdopen(read_fd, "rb") as pipe:
        reply = pipe.read()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), reply


def _fork_map(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]`` on ``workers`` processes: this one and
    ``workers - 1`` forked children; one worker forks nothing. Every worker
    takes the next item from one shared queue whenever it is free, so a worker
    slowed by other load on the host takes fewer items instead of holding up
    the rest.

    Raises the error of the first failing item in item order, as the
    sequential loop would, after every child is reaped; a child that exits
    without a reply raises ``ChildProcessError``. If this process is
    interrupted, the children are killed and reaped first."""
    workers = min(workers, len(items))
    if len(items) > _MAX_QUEUED:
        raise ValueError(f"at most {_MAX_QUEUED} items can be queued")
    queue_fd, feed_fd = os.pipe()
    try:
        os.write(feed_fd, b"".join(i.to_bytes(_RECORD, "little") for i in range(len(items))))
    finally:
        os.close(feed_fd)
    work = functools.partial(_run_queued, fn, items, queue_fd)
    children = []
    try:
        for _ in range(workers - 1):
            children.append(_fork_child(work))
        results, failure = work()
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue_fd)
        replies = [_reap(pid, read_fd) for pid, read_fd in children]

    failures = [failure]
    for (pid, _), (code, reply) in zip(children, replies):
        if code != 0:
            raise ChildProcessError(
                f"worker process {pid} exited with status {code} before sending a result"
            )
        done, failure = pickle.loads(reply)
        results.update(done)
        failures.append(failure)
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[i] for i in range(len(items))]


def miscoverage_gap(
    scn: SimScenario,
    method,
    alphas,
    runs: int,
    per_run: int,
    seed: int = 0,
    policy: PolicySpec | None = None,
) -> MiscoverageReport:
    """Monte Carlo miscoverage of a method: regenerate the study ``runs`` times,
    compute the per-alpha limits, then draw ``per_run`` fresh target individuals
    under the policy and count losses exceeding the limit. Trivial limits cover
    by construction and contribute no exceed events. The policy is constant or
    uniform: a table policy is refused before any study is drawn.

    The runs are spread over one worker per usable CPU: this process and
    forked children, each taking the next run whenever it is free. Each worker
    holds one study, so the workers are fewer where their studies' rows would
    pass ``MAX_ROWS_IN_FLIGHT``, and one worker runs a study of any size. Every run
    draws from its own ``run_rng(seed, run_index)`` and the counts are
    integers, so the report does not depend on which worker ran which run."""
    if runs < 1 or per_run < 1:
        raise ValueError("runs and per_run must be at least 1")
    if per_run > MAX_STUDY_ROWS:
        raise ValueError(f"per_run must be at most {MAX_STUDY_ROWS}")
    alphas = [float(a) for a in alphas]
    check_open_unit(alphas, "alphas")
    check_distinct(alphas, "alphas")
    if policy is None:
        policy = PolicySpec.constant(1)
    if policy.kind == "table":
        raise ValueError(
            "a table policy cannot be measured: every study draws new trial and "
            "target rows, so a per-row table has no rows to align with"
        )
    if not isinstance(method, (CertifiedMethod, IpswMethod)):
        raise ValueError("method must be a CertifiedMethod or an IpswMethod")
    np.random.SeedSequence(seed)  # run_rng's seed rule, checked before any worker forks

    # one run per queued item, or contiguous chunks of runs past the queue's size
    items = min(runs, _MAX_QUEUED)
    bounds = [runs * i // items for i in range(items + 1)]
    study_rows = scn.n + scn.m + scn.m_train + per_run
    item_counts = _fork_map(
        functools.partial(_exceed_counts, scn, method, alphas, per_run, seed, policy),
        [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])],
        min(_usable_cpus(), max(1, MAX_ROWS_IN_FLIGHT // study_rows)),
    )
    exceed = [sum(counts) for counts in zip(*item_counts)]

    total = runs * per_run
    rows = []
    for a, count in zip(alphas, exceed):
        rate = count / total
        rows.append(
            MiscoverageRow(a, rate, a - rate, math.sqrt(rate * (1.0 - rate) / total))
        )
    return MiscoverageReport(runs, per_run, dataclasses.asdict(method), rows)
