from functools import reduce

import numpy as np
import pytest

import sep4.oracle
from sep4.engine import classify


def _check_decomposition(state, report):
    dec = report.decomposition
    assert dec is not None
    recon = np.zeros_like(state.matrix)
    for term in dec.terms:
        assert term.weight > 0
        vec = reduce(np.kron, term.factors)
        t = vec.reshape(state.dims)
        for axis, dp in enumerate(state.dims):
            s = np.linalg.svd(np.moveaxis(t, axis, 0).reshape(dp, -1), compute_uv=False)
            assert s[1] <= 1e-8 * s[0]
        recon += term.weight * np.outer(vec, vec.conj())
    assert np.linalg.norm(state.matrix - recon) <= 1e-8 * state.trace
    lo, hi = report.length_bounds
    assert lo <= len(dec.terms) <= hi


@pytest.fixture
def check_decomposition():
    """Checks a report's decomposition without the package: positive
    weights, every term product in the original dims by SVD, the
    reconstruction, and a term count within the length bounds."""
    return _check_decomposition


@pytest.fixture
def peel_searches(monkeypatch):
    """``classify`` with its default decomposition: (report, peel searches)."""
    count = [0]
    real = sep4.oracle._find_peelable_product_vector

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(sep4.oracle, "_find_peelable_product_vector", counted)

    def classify_counted(state):
        count[0] = 0
        report = classify(state)
        return report, count[0]

    return classify_counted
