"""Subprocess plumbing shared by the benchmark and its self-tests."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# nproc is 2 on the reference host: a second BLAS/OpenMP thread would compete
# with the harness and make timings depend on the machine's other load.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    """Environment of every subprocess: the checkout's ``src`` is passed
    explicitly, because the package is not assumed to be installed."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclasses.dataclass
class Completed:
    returncode: int | None  # None when the process was killed at the deadline
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def invoke(args: list[str], workdir: Path, timeout: float, tag: str = "op") -> Completed:
    """Run ``python3 <args>`` to completion and return its wall time and the
    child's own peak RSS (``ru_maxrss`` from ``wait4``)."""
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    reaped = {}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=workdir)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end=time.perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(max(timeout, 0.0))
        timed_out = waiter.is_alive()
        if timed_out:
            proc.kill()
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return Completed(
        returncode=None if timed_out else proc.returncode,
        wall_s=reaped["end"] - start,
        peak_rss_mb=reaped["usage"].ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def cli_args(cli_argv: list[str]) -> list[str]:
    return ["-m", "limitcurves.cli", *cli_argv]
