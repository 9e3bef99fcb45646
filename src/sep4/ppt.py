"""Positive-partial-transpose test over all party subsets, plus biranks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import NotBipartite
from .states import (
    _GATHER_ENTRIES,
    MultiState,
    _rank_from_eigenvalues,
    _transposed,
)


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
    return list(_representatives(n))


@lru_cache(maxsize=None)
def _representatives(n: int) -> tuple[tuple[int, ...], ...]:
    """:func:`subset_representatives`, cached."""
    return tuple(s for size in range(0, n) for s in combinations(range(1, n), size))


@lru_cache(maxsize=32)
def _transpose_gather(dims: tuple[int, ...]) -> np.ndarray:
    """Flat indices of a ``dims`` operator and of each of its nonempty
    representative partial transposes, stacked (S, d, d) in representative
    order and read-only."""
    d = math.prod(dims)
    flat = np.arange(d * d).reshape(d, d)
    table = np.stack([_transposed(flat, dims, s) for s in _representatives(len(dims))])
    table.setflags(write=False)
    return table


def _spectra(matrix: np.ndarray, dims: tuple[int, ...]):
    """Ascending eigenvalues of the operator ``matrix`` on ``dims`` and of
    each of its nonempty representative partial transposes, in
    :func:`subset_representatives` order, the operator first; for a stack
    (g, d, d) of operators, one such row set per operator.  Up to 2^16
    entries per operator's stack, one gather (from a lone operator's flat
    view, see :func:`~sep4.states._reduced_states`) and one ``eigvalsh``
    call; above, one call per operator and subset, on a permuted copy."""
    # the operator and its 2^(n-1) - 1 representative partial transposes
    d, subsets = matrix.shape[-1], _representatives(len(dims))
    if d * d * len(subsets) <= _GATHER_ENTRIES:
        table = _transpose_gather(dims)
        if matrix.ndim == 2:
            return np.linalg.eigvalsh(matrix.ravel()[table])
        return np.linalg.eigvalsh(matrix.reshape(len(matrix), -1)[:, table])
    out = np.array([[np.linalg.eigvalsh(_transposed(m, dims, s)) for s in subsets]
                    for m in matrix.reshape(-1, d, d)])
    return out.reshape(matrix.shape[:-2] + out.shape[1:])


def is_ppt(state: MultiState, spectra=None) -> PptReport:
    """Evaluate every representative partial transpose of ``state``.

    PPT holds iff each minimum eigenvalue is at least
    ``-tol_psd * lambda_max`` of the input state.  The worst subset is the
    first whose minimum lies within that band above the lowest, where a
    minimum within the band around 0 counts as 0: subsets whose minima tie
    in exact arithmetic then name the first of them in every local frame,
    and a PPT state whose partial transposes are all singular reports
    ``()``.  The empty subset, which is first, is the state itself.  The
    records read ``spectra`` when the caller already has them from
    :func:`_spectra`, which is called otherwise: one ``eigvalsh`` call on
    small operators, the state included, so a one-party state makes one
    call on itself.
    """
    cfg = state.cfg
    if spectra is None:
        spectra = _spectra(state.matrix, state.dims)
    # in Python floats, one conversion for the whole stack
    rows = spectra.tolist()
    band = cfg.tol_psd * rows[0][-1]
    tol_rank = cfg.tol_rank
    records = []
    ok = True
    lowest = math.inf
    # ascending, as eigvalsh gives them
    for subset, eigs in zip(_representatives(state.n), rows):
        mn = eigs[0]
        records.append(SubsetRecord(subset, mn, _rank_from_eigenvalues(eigs, tol_rank)))
        ok = ok and mn >= -band
        val = 0.0 if abs(mn) <= band else mn
        # a NaN minimum takes no part, as it compares false
        if val < lowest:
            lowest = val
    worst: tuple[int, ...] = ()
    cut = lowest + band
    for rec in records:
        mn = rec.min_eigenvalue
        if (0.0 if abs(mn) <= band else mn) <= cut:
            worst = rec.subset
            break
    return PptReport(is_ppt=ok, records=tuple(records), worst_subset=worst)


def birank(state: MultiState) -> tuple[int, int]:
    """(rank of the state, rank of its party-1 partial transpose): the
    ranks of the two records of :func:`is_ppt`, subsets ``()`` and ``(1,)``."""
    if state.n != 2:
        raise NotBipartite(f"birank needs 2 parties, state has {state.n}")
    return tuple(record.rank for record in is_ppt(state).records)
