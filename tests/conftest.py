"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def eigensolves(monkeypatch) -> list:
    """Log of the eigensolves made while the test runs: one (name, stacked matrices)
    entry per call of ``numpy.linalg.eigvalsh``, ``eigh`` or ``svd``."""
    calls = []
    for name in ("eigvalsh", "eigh", "svd"):
        solve = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solve=solve, **kwargs):
            calls.append((_name, int(np.prod(np.shape(a)[:-2]))))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
