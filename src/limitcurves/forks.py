"""Fork pool: maps a function over contiguous ranges of ``range(n)`` on this
process and forked children, which take the ranges from one shared queue.

The module imports nothing from the package, so any module of it can map
work through ``fork_map``. The pool decides its own queue size and worker
count; a caller only bounds the workers, for example by the memory each one
holds.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import threading
import warnings


def usable_cpus() -> int:
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
MAX_ITEMS = 4096 // _RECORD


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


def fork_map(fn, n: int, max_workers: int) -> list:
    """``[fn(r) for r in ranges]``, where ``ranges`` cut ``range(n)``, for an
    ``n`` of at least 1, into ``min(n, MAX_ITEMS)`` contiguous ranges of
    near-equal length, in order. They run on
    ``min(usable_cpus(), max_workers, len(ranges))`` workers: this process and
    forked children; one worker forks nothing. Every worker takes the next
    range from one shared queue whenever it is free, so a worker slowed by
    other load on the host takes fewer ranges instead of holding up the rest.

    Raises the error of the first failing range in order, as the sequential
    loop would, after every child is reaped; a child that exits without a
    reply raises ``ChildProcessError``. If this process is interrupted, the
    children are killed and reaped first."""
    count = min(n, MAX_ITEMS)
    bounds = [n * i // count for i in range(count + 1)]
    items = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    workers = min(usable_cpus(), max_workers, len(items))
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
