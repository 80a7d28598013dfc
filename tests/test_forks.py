"""Tests for the fork pool: how it cuts ``range(n)``, how many workers it
forks, and how it reports a failing or interrupted worker."""

import os
import select
import time

import numpy as np
import pytest

from limitcurves import forks


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 5000])
def test_ranges_tile_n_in_order(force_cpus, n, workers):
    force_cpus(2)
    spans = forks.fork_map(lambda r: (r.start, r.stop), n, workers)
    assert len(spans) == min(n, forks.MAX_ITEMS)
    starts, stops = zip(*spans)
    assert starts[0] == 0 and stops[-1] == n
    assert list(starts[1:]) == list(stops[:-1])
    assert all(start < stop for start, stop in spans)


@pytest.mark.parametrize(
    "cpus, max_workers, n, workers", [(3, 8, 5, 3), (8, 2, 5, 2), (8, 8, 2, 2), (8, 1, 5, 1)]
)
def test_workers_are_the_least_of_cpus_bound_and_ranges(
    monkeypatch, force_cpus, cpus, max_workers, n, workers
):
    force_cpus(cpus)
    children = []
    fork_child = forks._fork_child

    def counting_fork_child(work):
        children.append(fork_child(work))
        return children[-1]

    monkeypatch.setattr(forks, "_fork_child", counting_fork_child)
    assert forks.fork_map(len, n, max_workers) == [1] * n
    assert len(children) == workers - 1


def handshake():
    """``(send, wait)``: ``wait(k)`` blocks until the other process has
    called ``send`` ``k`` times, or raises ``TimeoutError`` after 30 s
    without one. Holding this process's range until a child sends makes
    sure the child takes a range."""
    read_fd, write_fd = os.pipe()

    def wait(k=1):
        for _ in range(k):
            if not select.select([read_fd], [], [], 30)[0]:
                raise TimeoutError("no signal from the other worker")
            os.read(read_fd, 1)

    return (lambda: os.write(write_fd, b"x")), wait


def test_child_without_result(force_cpus):
    force_cpus(2)
    parent = os.getpid()
    send, wait = handshake()

    def exit_in_child(r):
        if os.getpid() != parent:
            send()
            os._exit(3)
        wait()
        return r.start

    with pytest.raises(ChildProcessError, match="status 3"):
        forks.fork_map(exit_in_child, 2, 2)


def test_first_failing_item_wins(force_cpus):
    # when both workers hold a range before either fails, the error of
    # range 0 wins whichever worker ran it
    force_cpus(2)
    parent = os.getpid()
    send, wait = handshake()

    def fail(r):
        if os.getpid() != parent:
            send()
        else:
            wait()
        raise ValueError(f"item {r.start}")

    with pytest.raises(ValueError, match="item 0"):
        forks.fork_map(fail, 3, 2)


def test_memory_error_in_child(force_cpus):
    force_cpus(2)
    parent = os.getpid()
    send, wait = handshake()

    def allocate(r):
        if os.getpid() != parent:
            send()
            # 10^16 rows exceed any address space, so nothing is touched
            return np.empty((10**16, 3)).shape
        wait()
        return r.start

    with pytest.raises(MemoryError):
        forks.fork_map(allocate, 2, 2)


def test_interrupt_kills_the_children(force_cpus):
    # the child holds a range that waits 30 s for a signal nobody sends;
    # the interrupted parent kills it instead of waiting for it to finish
    force_cpus(2)
    parent = os.getpid()
    send_taken, wait_taken = handshake()
    _, wait_forever = handshake()

    def hold(r):
        if os.getpid() != parent:
            send_taken()
            wait_forever()
        wait_taken()
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        forks.fork_map(hold, 2, 2)
    assert time.monotonic() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_held_up_worker_takes_fewer_items(force_cpus):
    # once both workers hold a range, this process holds its range until the
    # child has run the other five, which only a shared queue allows; the
    # results keep range order
    force_cpus(2)
    parent = os.getpid()
    send_parent, wait_parent = handshake()
    send_done, wait_done = handshake()
    child_waited = []

    def run(r):
        if os.getpid() != parent:
            if not child_waited:
                wait_parent()
                child_waited.append(True)
            send_done()
        else:
            send_parent()
            wait_done(5)
        return r.start, os.getpid() == parent

    results = forks.fork_map(run, 6, 2)
    assert [start for start, _ in results] == list(range(6))
    assert sum(in_parent for _, in_parent in results) == 1
