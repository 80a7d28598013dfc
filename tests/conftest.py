"""Fixtures shared by the test modules."""

import pytest

from limitcurves import forks


@pytest.fixture
def force_cpus(monkeypatch):
    """``force_cpus(k)`` makes the fork pool see ``k`` usable CPUs for the
    rest of the test."""

    def force(count):
        monkeypatch.setattr(forks, "usable_cpus", lambda: count)

    return force
