"""Positive-partial-transpose test over all party subsets, plus biranks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NotBipartite
from .states import MultiState, partial_transpose, rank_of, spectral, _rank_from_eigenvalues


@dataclass(frozen=True)
class SubsetRecord:
    """Min eigenvalue and rank of one representative partial transpose."""

    subset: tuple[int, ...]
    min_eigenvalue: float
    rank: int


@dataclass(frozen=True)
class PptReport:
    is_ppt: bool
    worst_subset: tuple[int, ...]
    records: tuple[SubsetRecord, ...]


def subset_representatives(n: int) -> list[tuple[int, ...]]:
    """One subset per complement pair: every S within parties 1..n-1.

    S and its complement give transpose-related operators with identical
    spectra, so only subsets avoiding party n are evaluated; the empty
    set (the state itself) is included.  Ordered by size then
    lexicographically.
    """
    out: list[tuple[int, ...]] = []
    for size in range(0, n):
        out.extend(combinations(range(1, n), size))
    return out


def is_ppt(state: MultiState, eigenvalues: np.ndarray | None = None) -> PptReport:
    """Evaluate every representative partial transpose of ``state``.

    PPT holds iff each minimum eigenvalue is at least
    ``-tol_psd * lambda_max`` of the input state.  The empty subset, which
    is first, is the state itself: its eigenvalues are ``eigenvalues``
    (descending) when the caller already has them from
    :func:`~sep4.states.spectral`, and are computed by it otherwise.  One
    eigensolve per other subset.
    """
    records = []
    worst: tuple[int, ...] = ()
    worst_val = np.inf
    for subset in subset_representatives(state.n):
        if subset:
            eigs = np.linalg.eigvalsh(partial_transpose(state, subset).matrix)
        else:
            # ascending, as eigvalsh gives them
            eigs = (spectral(state).eigenvalues if eigenvalues is None else eigenvalues)[::-1]
            threshold = -state.cfg.tol_psd * float(eigs[-1])
        rank = _rank_from_eigenvalues(eigs, state.cfg.tol_rank)
        mn = float(eigs[0])
        records.append(SubsetRecord(subset=subset, min_eigenvalue=mn, rank=rank))
        if mn < worst_val:
            worst_val = mn
            worst = subset
    ok = all(rec.min_eigenvalue >= threshold for rec in records)
    return PptReport(is_ppt=ok, records=tuple(records), worst_subset=worst)


def birank(state: MultiState) -> tuple[int, int]:
    """(rank of the state, rank of its party-1 partial transpose)."""
    if state.n != 2:
        raise NotBipartite(f"birank needs 2 parties, state has {state.n}")
    return rank_of(state), rank_of(partial_transpose(state, (1,)))
