"""Shared helpers for the test suite."""

import math
import threading
from collections import Counter

import numpy as np
import pytest

from cebound import random_block_state

ACCEPTANCE_LINES = []


def random_states(count, dims, seed, ensemble="ginibre", **kwargs):
    """Deterministic stream of random BlockStates cycling over dim pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        dp = int(rng.choice(dims))
        dq = int(rng.choice(dims))
        out.append(
            random_block_state(dp, dq, seed + 1000 * i, ensemble, **kwargs)
        )
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counter of np.linalg eigh, eigvalsh, svd and cholesky calls by name, from now on.

    ``clear()`` it after building inputs that should not count.  Its
    ``matrices`` Counter, cleared on its own, counts the matrices those calls
    received by name: a stacked call adds its batch size.  Calls from any
    thread count: each update holds a lock, since ``+=`` on a Counter is a
    read-modify-write that two threads can interleave and lose a count.
    """
    calls = Counter()
    calls.matrices = Counter()
    lock = threading.Lock()
    for name in ("eigh", "eigvalsh", "svd", "cholesky"):
        original = getattr(np.linalg, name)

        def counted(x, *args, _original=original, _name=name, **kwargs):
            with lock:
                calls[_name] += 1
                calls.matrices[_name] += math.prod(np.shape(x)[:-2])
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
