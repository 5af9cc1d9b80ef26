"""Fixtures shared by the test modules."""

import pytest

from sscusum import linalg


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` gives the direction kernel n workers (1: the caller's
    thread) on a fresh pool, shut down when the test ends."""

    def use(n):
        monkeypatch.setattr(linalg, "_WORKERS", n)
        monkeypatch.setattr(linalg, "_pool", None)

    yield use
    if linalg._pool is not None:
        linalg._pool.shutdown()
