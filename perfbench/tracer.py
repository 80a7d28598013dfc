"""Run the limitcurves CLI once with spans around calls into each layer.

Usage: python3 tracer.py SPANS_JSON -- <limitcurves CLI arguments>

The library is not modified: each public function below is replaced, in every
``limitcurves`` module that binds it, by a wrapper that records a span (layer,
function, start, end, time spent in child spans) and a few counts read from
its arguments and result. Spans stay in memory and are written to SPANS_JSON
when the CLI returns. A function that no longer exists is skipped and listed
as absent, so the metrics built on it are omitted rather than reported as 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _read_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "rows": result.x.shape[0]}


def _fit_counts(args, kwargs, result):
    return {"iterations": result.report.iterations, "converged": int(result.report.converged)}


def _split_counts(args, kwargs, result):
    return {"calibration": result.d_double_prime.m, "rows": args[0].m}


def _curve_counts(args, kwargs, result):
    return {"cells": len(result.points), "nontrivial": sum(not p.trivial for p in result.points),
            "groups": len(args[0].group_ends)}


def _limit_counts(args, kwargs, result):
    return {"cells": 1, "nontrivial": int(result is not None), "groups": len(args[0].group_ends)}


def _kernel_counts(args, kwargs, result):
    # bytes of the four input vectors, computed from their sizes, not measured
    return {"bytes": sum(a.nbytes for a in args[:4])}


def _study_counts(args, kwargs, result):
    return {"studies": result.runs}


# (layer, module, attribute path, counter)
TARGETS = (
    ("cli", "limitcurves.cli", "main", None),
    ("fileio", "limitcurves.fileio", "read_target_csv", _read_counts),
    ("fileio", "limitcurves.fileio", "read_trial_csv", _read_counts),
    ("fileio", "limitcurves.fileio", "read_pool_csv", _read_counts),
    ("fileio", "limitcurves.fileio", "write_json", None),
    ("fileio", "limitcurves.fileio", "write_limit_curve_csv", None),
    ("fileio", "limitcurves.fileio", "atomic_write_text", None),
    ("propensity", "limitcurves.propensity", "fit_logistic", _fit_counts),
    ("propensity", "limitcurves.propensity", "load_model", None),
    ("propensity", "limitcurves.propensity", "predict_odds", None),
    ("data", "limitcurves.data", "validate_dataset", None),
    ("data", "limitcurves.data", "matched_split", _split_counts),
    ("data", "limitcurves.data", "random_split", _split_counts),
    ("conformal", "limitcurves.conformal", "CalibrationSet.__init__", None),
    ("conformal", "limitcurves.conformal", "WeightBoundSet.__init__", None),
    ("conformal", "limitcurves.conformal", "limit_curve", _curve_counts),
    ("conformal", "limitcurves.conformal", "limit", _limit_counts),
    ("backend", "limitcurves.backend", "best_stop_index", _kernel_counts),
    ("simlab", "limitcurves.simlab", "sample_target", None),
    ("simlab", "limitcurves.simlab", "sample_trial", None),
    ("simlab", "limitcurves.simlab", "miscoverage_gap", _study_counts),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, layer: str, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"layer": layer, "name": name, "child_s": 0.0, "counts": {}}
            self.spans.append(span)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span["start"], span["end"] = start, end
                if parent is not None:
                    parent["child_s"] += end - start
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    span["counts"] = {"uncounted": 1}
            return result

        return traced

    def install(self) -> tuple[list[str], list[str]]:
        """Wrap every target that exists; return (wrapped, absent) names."""
        import limitcurves  # noqa: F401  (loads every library module)
        import limitcurves.cli  # noqa: F401

        wrapped, absent = [], []
        for layer, module_name, path, counter in TARGETS:
            name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                absent.append(name)
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                absent.append(name)
                continue
            wrapper = self.wrap(layer, name, original, counter)
            if parents:
                setattr(owner, attr, wrapper)
            else:
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").split(".")[0] != "limitcurves":
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
            wrapped.append(name)
        return wrapped, absent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <limitcurves CLI arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    wrapped, absent = tracer.install()
    import limitcurves.cli

    try:
        return limitcurves.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"wrapped": wrapped, "absent": absent, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
