"""Command-line front end: simulation, model fitting, limit curves, diagnostics.

Every subcommand is deterministic given its flags and seed. Outputs are
written atomically and JSON payloads embed the resolved configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import fileio, simlab
from .conformal import _none_if_inf, certify, check_curve_args, limit_curve
from .data import (
    MAX_GRID_POINTS,
    PolicySpec,
    TrialDesign,
    check_distinct,
    check_losses_below,
    check_open_unit,
    validate_dataset,
)
from .gamma_bench import benchmark_all
from .ipsw import _ipsw_quantiles, _ipsw_value
from .propensity import (
    LogisticConfig,
    fit_logistic,
    load_external_scores,
    load_model,
    predict_odds,
    reliability_diagram,
    save_model,
)
from .simlab import CertifiedMethod, IpswMethod, SimScenario, miscoverage_gap, scenario
from .weights import shift_weights


def parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad number list {text!r}: {exc}") from None


def parse_alpha_grid(text: str) -> np.ndarray:
    """Grid spec ``start:stop:step`` with an inclusive stop and at most
    ``MAX_GRID_POINTS`` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"alpha grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"alpha grid {text!r} must have a finite start, stop and step")
    if step <= 0 or stop < start:
        raise ValueError(f"bad alpha grid {text!r}")
    span = (stop - start) / step  # inf when a tiny step overflows it
    if math.isinf(span) or round(span) >= MAX_GRID_POINTS:
        raise ValueError(f"alpha grid {text!r} has more than {MAX_GRID_POINTS} points")
    # rounding drops the float error of start + step * k, so that the default
    # grid equals default_alpha_grid() and 0.06 is written as 0.06
    grid = np.round(start + step * np.arange(int(round(span)) + 1), 15)
    grid = grid[(grid > 0) & (grid < 1)]
    if grid.size == 0:
        raise ValueError(f"alpha grid {text!r} has no points inside (0, 1)")
    return grid


POLICY_FORMS = "constant:<a>, uniform, or table:<path>"
DESIGN_FORMS = "uniform:<K> or probs:<p0,...>"


def _spec_int(text: str, kind: str, forms: str) -> int:
    """The integer after the colon of a ``kind`` spec such as ``constant:1``."""
    try:
        return int(text.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"bad {kind} {text!r}; use {forms}") from None


def parse_policy(text: str) -> PolicySpec:
    if text == "uniform":
        return PolicySpec.uniform()
    if text.startswith("constant:"):
        return PolicySpec.constant(_spec_int(text, "policy", POLICY_FORMS))
    if text.startswith("table:"):
        return PolicySpec.from_table(fileio.read_columns(text.split(":", 1)[1], "p")[0])
    raise ValueError(f"bad policy {text!r}; use {POLICY_FORMS}")


def parse_design(text: str) -> TrialDesign:
    if text.startswith("uniform:"):
        return TrialDesign.uniform(_spec_int(text, "design", DESIGN_FORMS))
    if text.startswith("probs:"):
        return TrialDesign(parse_floats(text.split(":", 1)[1]))
    raise ValueError(f"bad design {text!r}; use {DESIGN_FORMS}")


def seed(text: str) -> int:
    """The ``--seed`` type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    return value


def _write_payload(ns: argparse.Namespace, path, kind: str, body: dict) -> None:
    """Write ``body`` after the schema_version, kind and config (resolved flags) keys."""
    config = {k: v for k, v in vars(ns).items() if k not in ("func", "config")}
    payload = {"schema_version": fileio.SCHEMA_VERSION, "kind": kind, "config": config, **body}
    fileio.write_json(path, payload)


def _fit_config(ns: argparse.Namespace) -> LogisticConfig:
    return LogisticConfig(l2=ns.l2, tol=ns.tol)


def _add_fit_flags(sub) -> None:
    sub.add_argument("--l2", type=float, default=LogisticConfig.l2, help="L2 penalty on coefficients")
    sub.add_argument("--tol", type=float, default=LogisticConfig.tol, help="gradient max-norm stop rule")


def _add_population_flags(sub) -> None:
    sub.add_argument("--pop", required=True, help="target population: A, B, C or D")
    sub.add_argument("--n", type=int, default=SimScenario.n, help="target covariate rows")
    sub.add_argument("--m", type=int, default=SimScenario.m, help="trial rows")
    sub.add_argument("--m-train", type=int, default=SimScenario.m_train, help="trial rows in the pool")


TARGET_UNREAD = "not read: the limits depend on the target only through the odds"


def _add_study_flags(sub, reads_target: bool) -> None:
    sub.add_argument("--trial", required=True)
    if reads_target:
        sub.add_argument("--target", required=True)
    else:
        sub.add_argument("--target", help=f"accepted for old command lines; {TARGET_UNREAD}")
    _add_odds_source(sub)
    sub.add_argument("--policy", required=True, help=POLICY_FORMS)
    sub.add_argument("--design", default="uniform:2", help=DESIGN_FORMS)


def _add_odds_source(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="logistic odds model JSON")
    group.add_argument("--scores", help="external score CSV (id,p_s1 or id,odds)")


def _resolve_odds(ns, x_rows: np.ndarray, rows: str) -> np.ndarray:
    """Odds per row of ``x_rows`` (the ``rows`` file's covariates) from
    ``--model``, or from the ``--scores`` file, which must have one score per
    row; either is read as given."""
    if ns.model:
        model = load_model(ns.model)
        if model.dim != x_rows.shape[1]:
            raise ValueError(f"{ns.model} expects {model.dim} covariates, {rows} has {x_rows.shape[1]}")
        if model.report is not None and not model.report.converged:
            print(f"warning: {ns.model}: odds model did not converge", file=sys.stderr)
        return predict_odds(model, x_rows)
    odds = load_external_scores(ns.scores)
    if odds.shape[0] != x_rows.shape[0]:
        raise ValueError(f"{ns.scores} has {odds.shape[0]} rows, {rows} has {x_rows.shape[0]}")
    return odds


def _read_study(ns, l_max=None):
    """Design, trial (its losses checked against ``l_max`` when given),
    policy and the trial rows' odds; the target file is not read."""
    design = parse_design(ns.design)
    trial = fileio.read_trial_csv(ns.trial, k_actions=design.k_actions)
    if l_max is not None:
        check_losses_below(trial.losses, l_max)
    policy = parse_policy(ns.policy)
    return design, trial, policy, _resolve_odds(ns, trial.x, "trial")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(ns) -> int:
    scn = scenario(ns.pop, n=ns.n, m=ns.m, m_train=ns.m_train)
    rng = np.random.default_rng(ns.seed)
    target, _ = simlab.sample_target(scn.target, scn.n, rng)
    trial, _ = simlab.sample_trial(scn.trial, scn.m, scn.design, rng)
    fileio.write_target_csv(ns.target_out, target)
    fileio.write_trial_csv(ns.trial_out, trial)
    if ns.pool_out:
        pool = simlab.sample_pool(target.x, scn.trial, scn.m_train, rng)
        fileio.write_pool_csv(ns.pool_out, pool)
    return 0


def _cmd_fit(ns) -> int:
    pool = fileio.read_pool_csv(ns.pool)
    model = fit_logistic(pool, _fit_config(ns))
    save_model(model, ns.out)
    report = model.report
    print(
        f"fit: converged={report.converged} iterations={report.iterations} "
        f"grad_max={report.grad_max:.3e}"
    )
    if not report.converged:
        print("fit: non-converged (separated data needs --l2 > 0)", file=sys.stderr)
        return 1
    return 0


def _cmd_evaluate(ns) -> int:
    # the grids need no data, so a bad one is refused before any file is read
    alphas, gammas, l_max = check_curve_args(
        parse_alpha_grid(ns.alpha_grid), parse_floats(ns.gammas), ns.l_max
    )
    if ns.target is not None:
        print(f"warning: {ns.target}: {TARGET_UNREAD}", file=sys.stderr)
    design, trial, policy, odds = _read_study(ns, l_max)
    cal, ws = certify(trial, odds, policy, design, ns.split, ns.frac, ns.seed)[:2]
    curve = limit_curve(cal, ws, alphas, gammas, l_max)
    body = {
        "l_max": curve.l_max,
        "gammas": list(curve.gammas),
        "split_sizes": {"d_prime": ws.size, "d_double_prime": cal.size},
        "informativeness": curve.informativeness,
        "curves": [dict(zip(curve.columns, row)) for row in zip(*(c.tolist() for c in curve.columns.values()))],
    }
    _write_payload(ns, ns.out_json, "limit-curves", body)
    fileio.write_limit_curve_csv(ns.out_csv, curve)
    return 0


def _cmd_benchmark_gamma(ns) -> int:
    pool = fileio.read_pool_csv(ns.pool)
    reports = benchmark_all(pool, _fit_config(ns), rows=ns.rows)
    _write_payload(ns, ns.out, "gamma-benchmark", {"reports": [dataclasses.asdict(r) for r in reports]})
    return 0


def _cmd_reliability(ns) -> int:
    pool = fileio.read_pool_csv(ns.pool)
    bins = reliability_diagram(_resolve_odds(ns, pool.x, "pool"), pool.labels, bins=ns.bins)
    fileio.write_reliability_csv(ns.out, bins)
    return 0


def _cmd_ipsw(ns) -> int:
    # like evaluate's grids, the alphas are refused before any file is read
    alphas = parse_floats(ns.alphas)
    check_open_unit(alphas, "alphas")
    check_distinct(alphas, "alphas")
    design, trial, policy, odds = _read_study(ns)
    target = fileio.read_target_csv(ns.target)
    validate_dataset(trial, target)
    weights = shift_weights(trial, odds, policy, design)
    quantiles = zip(alphas, _ipsw_quantiles(trial.losses, weights, target.n, alphas, ns.normalized).tolist())
    body = {
        "n": target.n,
        "m": trial.m,
        "value": _ipsw_value(trial.losses, weights, target.n),
        "quantiles": [{"alpha": a, "limit": _none_if_inf(q), "trivial": q == math.inf} for a, q in quantiles],
    }
    _write_payload(ns, ns.out, "ipsw-baseline", body)
    return 0


def _cmd_miscoverage(ns) -> int:
    scn = scenario(ns.pop, design=parse_design(ns.design), n=ns.n, m=ns.m, m_train=ns.m_train)
    if ns.method == "certified":
        method = CertifiedMethod(
            gamma=ns.gamma,
            split=ns.split,
            split_frac=ns.frac,
            odds_source=ns.odds,
            fit=_fit_config(ns),
        )
    else:
        method = IpswMethod(odds_source=ns.odds, normalized=ns.normalized, fit=_fit_config(ns))
    report = miscoverage_gap(
        scn,
        method,
        parse_floats(ns.alphas),
        runs=ns.runs,
        per_run=ns.per_run,
        seed=ns.seed,
        policy=parse_policy(ns.policy),
    )
    _write_payload(ns, ns.out, "miscoverage", dataclasses.asdict(report))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="limitcurves",
        description="Certified limit curves for out-of-sample policy losses",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, help_text: str) -> argparse.ArgumentParser:
        s = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        s.add_argument("--config", help="key=value settings file; flags override it")
        registry[name] = s
        return s

    s = sub("simulate", "draw a synthetic target/trial study and write CSVs")
    _add_population_flags(s)
    s.add_argument("--seed", type=seed, default=0)
    s.add_argument("--target-out", required=True)
    s.add_argument("--trial-out", required=True)
    s.add_argument("--pool-out", help="optional labeled pool CSV for model training")
    s.set_defaults(func=_cmd_simulate)

    s = sub("fit", "fit the logistic selection-odds model on a labeled pool")
    s.add_argument("--pool", required=True)
    _add_fit_flags(s)
    s.add_argument("--out", required=True, help="model JSON path")
    s.set_defaults(func=_cmd_fit)

    s = sub("evaluate", "compute limit curves for a policy")
    _add_study_flags(s, reads_target=False)
    s.add_argument("--gammas", default="1", help="comma-separated miscalibration factors")
    s.add_argument(
        "--alpha-grid", default="0.01:0.99:0.01", help=f"start:stop:step, at most {MAX_GRID_POINTS} points"
    )
    s.add_argument("--split", choices=("random", "matched"), default="random")
    s.add_argument("--frac", type=float, default=0.5, help="random-split fraction for the weight-bound half")
    s.add_argument("--seed", type=seed, default=0)
    s.add_argument("--l-max", type=float, required=True, help="declared loss-support upper bound")
    s.add_argument("--out-json", required=True)
    s.add_argument("--out-csv", required=True)
    s.set_defaults(func=_cmd_evaluate)

    s = sub("benchmark-gamma", "suggest miscalibration factors by omitting covariates")
    s.add_argument("--pool", required=True)
    _add_fit_flags(s)
    s.add_argument("--rows", choices=("all", "trial", "target"), default="all")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_benchmark_gamma)

    s = sub("reliability", "reliability diagram of nominal vs observed odds")
    s.add_argument("--pool", required=True)
    _add_odds_source(s)
    s.add_argument("--bins", type=int, default=5)
    s.add_argument("--out", required=True, help="reliability CSV path")
    s.set_defaults(func=_cmd_reliability)

    s = sub("ipsw", "reweighting baseline: value and quantile limits")
    _add_study_flags(s, reads_target=True)
    s.add_argument("--alphas", default="0.05,0.1,0.2")
    s.add_argument("--normalized", action="store_true", help="rescale weights to total mass 1")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_ipsw)

    s = sub("miscoverage", "Monte Carlo miscoverage gap on a synthetic scenario")
    _add_population_flags(s)
    s.add_argument("--method", choices=("certified", "ipsw"), required=True)
    s.add_argument("--gamma", type=float, default=1.0)
    s.add_argument("--split", choices=("matched", "random"), default=CertifiedMethod.split)
    s.add_argument("--frac", type=float, default=CertifiedMethod.split_frac)
    s.add_argument("--odds", choices=("fitted", "oracle"), default=CertifiedMethod.odds_source)
    s.add_argument("--normalized", action="store_true")
    s.add_argument("--policy", default="constant:1")
    s.add_argument("--design", default="uniform:2")
    s.add_argument("--alphas", default="0.05,0.1,0.2")
    s.add_argument("--runs", type=int, default=200)
    s.add_argument("--per-run", type=int, default=500)
    s.add_argument("--seed", type=seed, default=0)
    _add_fit_flags(s)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_miscoverage)

    return parser, registry


_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}

# reads the --config path ahead of the full parse, also refusing abbreviations
_CONFIG_PATH = argparse.ArgumentParser(prog="limitcurves", add_help=False, allow_abbrev=False)
_CONFIG_PATH.add_argument("--config")


def _config_flags(sub: argparse.ArgumentParser, path: str) -> list[str]:
    """The settings of config file ``path`` as flag tokens of ``sub``; argparse
    then checks them like command-line flags, which come later and win."""
    flags = {opt: a for a in sub._actions for opt in a.option_strings}
    tokens = []
    for key, raw in fileio.read_config_file(path).items():
        flag = "--" + key
        action = flags.get(flag)
        if action is None or key in ("help", "config"):
            raise ValueError(f"{path}: unknown config key {key!r}")
        if action.nargs != 0:
            try:
                value = (action.type or str)(raw)
            except ValueError:
                raise ValueError(f"{path}: {key}={raw!r} is not a valid {action.type.__name__}") from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{path}: {key}={raw!r} is not one of {', '.join(action.choices)}")
            tokens.append(f"{flag}={raw}")
        elif raw.lower() not in _SWITCH_WORDS:
            raise ValueError(f"{path}: {key}={raw!r} is not one of {', '.join(_SWITCH_WORDS)}")
        elif _SWITCH_WORDS[raw.lower()]:
            tokens.append(flag)
    return tokens


# (command, flag, value, flags that this value leaves unused); the value
# None stands for the flag being absent
UNUSED_FLAGS = (
    ("simulate", "pool_out", None, ("m_train",)),
    ("evaluate", "split", "matched", ("frac",)),
    ("miscoverage", "method", "ipsw", ("gamma", "split", "frac")),
    ("miscoverage", "method", "certified", ("normalized",)),
    ("miscoverage", "split", "matched", ("frac",)),
    ("miscoverage", "odds", "oracle", ("l2", "tol")),
)


def _refuse_unused(ns: argparse.Namespace, sub: argparse.ArgumentParser) -> None:
    """Refuse a flag set away from its default, by the command line or a
    config file, where another flag's value leaves it unused."""
    for command, key, value, names in UNUSED_FLAGS:
        if ns.command != command or getattr(ns, key) != value:
            continue
        for name in names:
            if getattr(ns, name) != sub.get_default(name):
                flag, other = (f"--{n.replace('_', '-')}" for n in (name, key))
                where = f"without {other}" if value is None else f"with {other} {value}"
                raise ValueError(f"{flag} is not used {where}")


INPUT_FLAGS = ("trial", "target", "model", "scores", "pool", "config")
OUTPUT_FLAGS = ("target_out", "trial_out", "pool_out", "out", "out_json", "out_csv")


def _refuse_clobber(ns: argparse.Namespace) -> None:
    """Refuse, before any file is read, an empty path, an output path that is
    a directory or whose directory does not exist, and an output path that
    names the same file as an input or another output of the command, so that
    no output overwrites either and a refused command writes no output."""

    def named(keys):
        return [(f"--{key.replace('_', '-')}", getattr(ns, key, None)) for key in keys]

    inputs = named(INPUT_FLAGS)
    policy = getattr(ns, "policy", None) or ""
    if policy.startswith("table:"):
        inputs.append(("--policy", policy.split(":", 1)[1]))
    outputs = named(OUTPUT_FLAGS)
    for flag, path in inputs + outputs:
        if path == "":
            raise ValueError(f"{flag} names no file: its path is empty")
    seen = {}
    for flag, path in inputs:
        if path:
            seen.setdefault(os.path.realpath(path), flag)
    for flag, path in outputs:
        if path:
            if os.path.isdir(path):
                raise ValueError(f"{flag} {path} is a directory")
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError(f"{flag} and {seen[real]} name the same file {path}")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"{flag} {path!r} is not in an existing directory")
            seen[real] = flag


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        if argv and argv[0] in registry:
            path = _CONFIG_PATH.parse_known_args(argv[1:])[0].config
            if path:
                argv[1:1] = _config_flags(registry[argv[0]], path)
        ns = parser.parse_args(argv)
        _refuse_unused(ns, registry[ns.command])
        _refuse_clobber(ns)
        # finite inputs near the float64 limit must not overflow into a wrong
        # output; forked miscoverage workers inherit this setting
        with np.errstate(over="raise"):
            return ns.func(ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    except FloatingPointError as exc:
        print(f"error: input values too large: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError raised bare has no text of its own
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
