#!/usr/bin/env python3
"""Layered benchmark of the limitcurves command-line interface.

    python3 perfbench/run.py --workload evaluate-large --seed 1 --seconds 36 --trace 0

Each operation is one ``limitcurves`` CLI invocation in a fresh subprocess,
issued back to back by one client (a closed loop). With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced invocations and reports per-layer metrics from the traced ones. Every
output is checked; the last line of stdout is the JSON result, and a result
record is written under ``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

from harness import THREAD_PINS

os.environ.update(THREAD_PINS)  # before numpy loads, so the harness's own checks stay single-threaded

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from harness import ROOT, SRC, Completed, cli_args, invoke
from workloads import WORKLOADS, files_digest

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
RESULTS = HERE / "results"
DEADLINE_S = 165.0  # a run must exit within 180 s
MIN_OPS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import limitcurves; "
    "print(time.perf_counter() - t); print(getattr(limitcurves, 'BACKEND', 'absent'))"
)


class Operations:
    """Runs CLI operations and checks each one. The first run that exits
    cleanly gets the workload's full check; every later run must reproduce
    its outputs byte for byte (the CLI promises byte-stable outputs)."""

    def __init__(self, workload, data, workdir: Path):
        self.workload, self.data, self.workdir = workload, data, workdir
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _outputs(self) -> dict[str, bytes]:
        return {name: (self.workdir / name).read_bytes() for name in self.workload.outputs}

    def run(self, args: list[str], deadline: float) -> Completed:
        for name in self.workload.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        self.attempted += 1
        done = invoke(args, self.workdir, deadline - time.perf_counter(), tag=f"op{self.attempted}")
        problems = checks.check_process(done.returncode, done.stderr)
        if not problems:
            try:
                outputs = (done.stdout, self._outputs())
            except OSError as exc:
                problems = [f"missing output: {exc}"]
            else:
                if outputs != self.reference:
                    try:
                        problems = self.workload.check(self.workdir, self.data, done.stdout)
                    except (ValueError, KeyError, TypeError, IndexError) as exc:
                        problems = [f"unreadable output: {exc!r}"]
                    if self.reference is not None:
                        problems.append("outputs differ from an identical earlier invocation")
                    elif not problems:
                        self.reference = outputs
        if problems:
            self.failed += 1
            self.problems += [f"op {self.attempted}: {p}" for p in problems]
        return done


def probe_import(workdir: Path, deadline: float) -> tuple[float, str]:
    """Seconds of one cold ``import limitcurves`` in a fresh interpreter, and
    the kernel it selected."""
    done = invoke(["-c", IMPORT_PROBE], workdir, deadline - time.perf_counter(), tag="import")
    if done.returncode != 0:
        raise RuntimeError(f"import limitcurves failed: {done.stderr.strip()[-500:]}")
    seconds, backend = done.stdout.split()
    return float(seconds), backend


# Per-layer metrics: (name, unit, functions it needs, value from a SpanView).
READS = ("fileio.read_target_csv", "fileio.read_trial_csv", "fileio.read_pool_csv")
WRITES = ("fileio.write_json", "fileio.write_limit_curve_csv", "fileio.atomic_write_text")
FIT = ("propensity.fit_logistic",)
SPLITS = ("data.matched_split", "data.random_split")
PREPARE = ("conformal.CalibrationSet.__init__", "conformal.WeightBoundSet.__init__")
LIMITS = ("conformal.limit_curve", "conformal.limit")
KERNEL = ("backend.best_stop_index",)
SAMPLING = ("simlab.sample_target", "simlab.sample_trial")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0  # 0 when the layer did no work; its count says so


class SpanView:
    def __init__(self, doc: dict):
        self.spans = doc["spans"]

    def self_s(self, names) -> float:
        return sum(s["end"] - s["start"] - s["child_s"] for s in self.spans if s["name"] in names)

    def calls(self, names) -> int:
        return sum(1 for s in self.spans if s["name"] in names)

    def count(self, key: str, names) -> float:
        return sum(s["counts"].get(key, 0) for s in self.spans if s["name"] in names)


LAYER_METRICS = (
    ("fileio.read_s", "s", READS, lambda v: v.self_s(READS)),
    ("fileio.read_mb_per_s", "MB/s", READS,
     lambda v: _ratio(v.count("bytes", READS) / 1e6, v.self_s(READS))),
    ("fileio.rows_read", "count", READS, lambda v: v.count("rows", READS)),
    ("fileio.write_s", "s", WRITES, lambda v: v.self_s(WRITES)),
    ("propensity.fit_s", "s", FIT, lambda v: v.self_s(FIT)),
    ("propensity.fit_calls", "count", FIT, lambda v: v.calls(FIT)),
    ("propensity.fit_iterations", "count", FIT, lambda v: v.count("iterations", FIT)),
    ("propensity.fit_converged_ratio", "ratio", FIT,
     lambda v: _ratio(v.count("converged", FIT), v.calls(FIT))),
    ("propensity.load_model_s", "s", ("propensity.load_model",),
     lambda v: v.self_s(("propensity.load_model",))),
    ("propensity.predict_s", "s", ("propensity.predict_odds",),
     lambda v: v.self_s(("propensity.predict_odds",))),
    ("data.validate_s", "s", ("data.validate_dataset",),
     lambda v: v.self_s(("data.validate_dataset",))),
    ("data.split_s", "s", SPLITS, lambda v: v.self_s(SPLITS)),
    ("data.calibration_share", "ratio", SPLITS,
     lambda v: _ratio(v.count("calibration", SPLITS), v.count("rows", SPLITS))),
    ("conformal.prepare_s", "s", PREPARE, lambda v: v.self_s(PREPARE)),
    ("conformal.limit_curve_s", "s", ("conformal.limit_curve",),
     lambda v: v.self_s(("conformal.limit_curve",))),
    ("conformal.limit_s", "s", ("conformal.limit",), lambda v: v.self_s(("conformal.limit",))),
    ("conformal.cells", "count", LIMITS, lambda v: v.count("cells", LIMITS)),
    ("conformal.groups", "count", LIMITS,
     lambda v: _ratio(v.count("groups", LIMITS), v.calls(LIMITS))),
    ("conformal.nontrivial_ratio", "ratio", LIMITS,
     lambda v: _ratio(v.count("nontrivial", LIMITS), v.count("cells", LIMITS))),
    ("backend.best_stop_index_s", "s", KERNEL, lambda v: v.self_s(KERNEL)),
    ("backend.calls", "count", KERNEL, lambda v: v.calls(KERNEL)),
    ("backend.computed_bytes", "bytes", KERNEL, lambda v: v.count("bytes", KERNEL)),
    ("simlab.sample_s", "s", SAMPLING, lambda v: v.self_s(SAMPLING)),
    ("simlab.studies", "count", ("simlab.miscoverage_gap",),
     lambda v: v.count("studies", ("simlab.miscoverage_gap",))),
)


def layer_metrics(doc: dict, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Metrics of one traced invocation; ``_s`` values are self times. A metric
    whose functions all disappeared from the library is omitted."""
    view = SpanView(doc)
    present = set(doc["wrapped"])
    out = {name: (float(fn(view)), unit) for name, unit, needs, fn in LAYER_METRICS
           if present.intersection(needs)}
    if "cli.main" in present:
        layers = sum(s["end"] - s["start"] - s["child_s"] for s in view.spans if s["layer"] != "cli")
        out["cli.unattributed_s"] = (traced_wall - layers, "s")
    return out


def as_json(table: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_pins": THREAD_PINS,
    }


def git_revision() -> dict:
    """The checkout's commit and whether uncommitted changes sit on top of it."""
    if not (ROOT / ".git").exists():  # a plain checkout: do not let git search parent directories
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD").strip() or None, "dirty": bool(status.strip())}


def run(workload, seed: int, seconds: int, trace: bool, workdir: Path) -> int:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    data = workload.generate(seed)
    files = workload.files(data)
    inputs_digest = files_digest(files)
    inputs_reproduced = files_digest(workload.files(workload.generate(seed))) == inputs_digest
    for name, text in files.items():
        (workdir / name).write_text(text)
    generation_s = time.perf_counter() - start

    _, backend = probe_import(workdir, deadline)  # warms the bytecode cache; not counted
    ops = Operations(workload, data, workdir)
    plain_args = cli_args(workload.argv(workdir, seed))
    traced_args = [str(HERE / "tracer.py"), str(workdir / "spans.json"), "--",
                   *workload.argv(workdir, seed)]
    setup_samples: list[float] = []
    untraced: list[Completed] = []
    traced: list[tuple[Completed, dict]] = []
    measure_start = time.perf_counter()
    longest = 0.0
    while True:
        done = ops.run(plain_args, deadline)
        untraced.append(done)
        longest = max(longest, done.wall_s)
        if trace:
            spans_path = workdir / "spans.json"
            spans_path.unlink(missing_ok=True)
            done = ops.run(traced_args, deadline)
            if spans_path.exists():
                traced.append((done, json.loads(spans_path.read_text())))
            longest = max(longest, done.wall_s)
        # one import probe per round spreads the set-up samples over the whole
        # window, so they see the same host-speed phases as the invocations
        setup_samples.append(probe_import(workdir, deadline)[0])
        now = time.perf_counter()
        if now + 2.5 * longest * (2 if trace else 1) > deadline:
            break
        if now - measure_start >= seconds and len(untraced) >= MIN_OPS:
            break

    wall = statistics.median(c.wall_s for c in untraced)
    end_to_end = {
        "wall_s": (wall, "s"),
        "throughput": (workload.work / wall, "items/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in untraced), "MiB"),
    }
    per_layer = {}
    if traced:
        per_op = [layer_metrics(spans, done.wall_s) for done, spans in traced]
        for name in per_op[0]:
            values = [m[name][0] for m in per_op if name in m]
            per_layer[name] = (statistics.median(values), per_op[0][name][1])
        traced_wall = statistics.median(done.wall_s for done, _ in traced)
        per_layer["trace.overhead_s"] = (traced_wall - wall, "s")

    correct = ops.failed == 0 and inputs_reproduced
    if not inputs_reproduced:
        ops.problems.append("the same seed did not reproduce byte-identical inputs")
    error_rate = ops.failed / ops.attempted
    metrics = per_layer if trace else end_to_end

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": workload.sizes(),
        "work_unit": workload.work_unit,
        "revision": git_revision(),
        "backend": backend,
        "host": host_info(),
        "generation_s": generation_s,
        "inputs_sha256": inputs_digest,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "error_rate": error_rate,
        "correct": correct,
        "problems": ops.problems,
        "end_to_end": as_json(end_to_end),
        "per_layer": as_json(per_layer),
        "samples": {
            "wall_s": [c.wall_s for c in untraced],
            "peak_rss_mb": [c.peak_rss_mb for c in untraced],
            "setup_s": setup_samples,
            "traced_wall_s": [done.wall_s for done, _ in traced],
        },
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record_path = RESULTS / f"BENCH_{workload.name}_seed{seed}_trace{int(trace)}_{stamp}_{os.getpid()}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {workload.name}  seed {seed}  backend {backend}  "
          f"throughput unit: {workload.work_unit}/s  inputs generated in {generation_s:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'error_rate':32s} {error_rate:14.6g} ratio ({ops.failed} of {ops.attempted} failed)")
    for problem in ops.problems:
        print(f"  FAILED {problem}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": as_json(metrics)}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "limitcurves" / "__init__.py").is_file():
        print(f"error: no limitcurves sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
