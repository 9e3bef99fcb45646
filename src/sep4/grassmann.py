"""Plücker coordinates of subspaces and their quadratic relations.

A k-dimensional subspace of C^d is handed around as a k x d coordinate
matrix whose rows span it.  Its Plücker coordinates are the k x k minors
indexed by strictly increasing 1-based column tuples; they determine the
subspace up to one common scalar.  All of them are built together as the
wedge product of the rows, one row at a time, with no determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .codec import to_pairs
from .errors import DuplicateIndex, RankDeficientBasis

# Rows count as independent when the smallest singular value clears this
# fraction of the largest.
INDEPENDENCE_RTOL = 1e-9

# Entries below this fraction of the largest count as zero when picking
# the leading entry for the phase convention.
_LEAD_RTOL = 1e-12


@dataclass(frozen=True)
class SubspaceBasis:
    """k x d coordinate matrix of linearly independent row vectors."""

    rows: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=complex))
        dims = tuple(int(x) for x in self.dims)
        object.__setattr__(self, "dims", dims)
        d = math.prod(dims)
        if rows.size == 0:
            rows = rows.reshape(0, d)
        if rows.ndim != 2 or rows.shape[1] != d:
            raise RankDeficientBasis(
                f"basis rows have shape {rows.shape}, ambient dimension is {d}"
            )
        if rows.shape[0] > d:
            raise RankDeficientBasis(f"{rows.shape[0]} rows cannot be independent in C^{d}")
        if not np.isfinite(rows).all():
            bad = np.argwhere(~np.isfinite(rows))
            raise RankDeficientBasis(
                "basis rows hold non-finite entries at (row, column) "
                + ", ".join(f"({i}, {j}) = {rows[i, j]}" for i, j in bad)
            )
        if rows.shape[0] > 0:
            sv = np.linalg.svd(rows, compute_uv=False)
            if sv[0] == 0 or sv[-1] <= INDEPENDENCE_RTOL * sv[0]:
                raise RankDeficientBasis(
                    f"rows are not linearly independent (sigma_min/sigma_max = "
                    f"{0.0 if sv[0] == 0 else sv[-1] / sv[0]:.3e})"
                )
        rows = np.ascontiguousarray(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class PlueckerVector:
    """All C(d, k) maximal minors of a subspace basis.

    ``raw`` holds the minors of the basis that produced the vector;
    ``normalized`` is the copy rescaled to unit Euclidean norm with the
    first nonzero entry rotated to positive real, which is invariant
    under any change of spanning basis.
    """

    k: int
    d: int
    tuples: tuple[tuple[int, ...], ...]
    raw: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        for name in ("raw", "normalized"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def entries(self) -> dict[tuple[int, ...], complex]:
        return dict(zip(self.tuples, self.raw))

    @property
    def normalized_entries(self) -> dict[tuple[int, ...], complex]:
        return dict(zip(self.tuples, self.normalized))


@lru_cache(maxsize=None)
def index_tuples(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Strictly increasing 1-based k-tuples over [d], lexicographic order."""
    return tuple(combinations(range(1, d + 1), k))


@lru_cache(maxsize=None)
def _wedge_tables(d: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables that wedge row j onto the j x j minors, as read-only arrays.

    For each (j+1)-subset I of the d columns, in the order of
    :func:`index_tuples`: the position of I minus its t-th column among
    the j-subsets (T, j+1), that column itself (T, j+1), and the Laplace
    signs (-1)^(j+t) of the expansion along the last row (j+1,).
    """
    position = {tup: q for q, tup in enumerate(index_tuples(d, j))}
    subsets = index_tuples(d, j + 1)
    drop = np.array([[position[tup[:t] + tup[t + 1:]] for t in range(j + 1)] for tup in subsets])
    cols = np.array(subsets) - 1
    signs = np.array([(-1.0) ** (j + t) for t in range(j + 1)], dtype=complex)
    for arr in (drop, cols, signs):
        arr.setflags(write=False)
    return drop, cols, signs


def _pluecker_rows(rows: np.ndarray) -> PlueckerVector:
    """:func:`pluecker` on a bare k x d array of independent rows.

    The minors are built as r_0 ^ r_1 ^ ..., one row at a time: each
    (j+1) x (j+1) minor is the Laplace expansion along row j of the j x j
    minors already built, one gather, multiply and sum per row.
    """
    k, d = rows.shape
    if k == 0:
        raise RankDeficientBasis("cannot take Plücker coordinates of an empty basis")
    raw = rows[0].astype(complex)
    for j in range(1, k):
        drop, cols, signs = _wedge_tables(d, j)
        raw = (raw[drop] * rows[j][cols]) @ signs
    scale = np.abs(raw).max()
    if scale == 0:
        raise RankDeficientBasis("all maximal minors vanish")
    lead = int(np.flatnonzero(np.abs(raw) > _LEAD_RTOL * scale)[0])
    phase = raw[lead] / abs(raw[lead])
    normalized = raw / (np.linalg.norm(raw) * phase)
    return PlueckerVector(k=k, d=d, tuples=index_tuples(d, k), raw=raw, normalized=normalized)


def pluecker(basis: SubspaceBasis) -> PlueckerVector:
    """Compute all maximal minors of ``basis``.

    Each entry is the k x k determinant of the basis columns named by the
    tuple, built by wedge products of the rows (:func:`_pluecker_rows`).
    Raises :class:`RankDeficientBasis` when every minor vanishes.
    """
    return _pluecker_rows(basis.rows)


def pluecker_relations_residual(p: PlueckerVector) -> float:
    """Largest absolute single-exchange quadratic relation residual.

    Evaluated on the unit-normalized vector; an exact minor vector
    satisfies every relation, so the residual measures how far ``p`` is
    from being decomposable.
    """
    k, d = p.k, p.d
    if k >= d or k == 0:
        return 0.0
    vals = p.normalized_entries
    worst = 0.0
    for left in combinations(range(1, d + 1), k - 1):
        left_set = set(left)
        for right in combinations(range(1, d + 1), k + 1):
            acc = 0.0 + 0.0j
            for a, j in enumerate(right):
                if j in left_set:
                    continue
                # ``left`` is increasing and avoids j: the entries are distinct
                key = left + (j,)
                first = permutation_sign(key) * vals[tuple(sorted(key))]
                if first == 0.0:
                    continue
                rest = right[:a] + right[a + 1:]
                acc += (-1) ** a * first * vals[rest]
            mag = abs(acc)
            if mag > worst:
                worst = mag
    return worst


def permutation_sign(perm) -> int:
    """Sign of a permutation given as a sequence of distinct values."""
    lst = list(perm)
    sign = 1
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if lst[i] > lst[j]:
                sign = -sign
    return sign


def dual_pluecker(q_index, total: int) -> tuple[int, tuple[int, ...]]:
    """Translate a dual Plücker index into an ordinary one.

    For distinct indices ``q_index`` within [total], returns ``(eps,
    complement)`` where ``complement`` is the increasing complement in
    [total] and ``eps`` is the sign of the permutation obtained by
    writing the complement first and ``q_index`` (in the order given)
    after it.
    """
    q = tuple(int(x) for x in q_index)
    if len(set(q)) != len(q):
        raise DuplicateIndex(f"duplicate entries in index {q}")
    if any(x < 1 or x > total for x in q):
        raise ValueError(f"index entries must lie in [1, {total}], got {q}")
    comp = tuple(sorted(set(range(1, total + 1)) - set(q)))
    eps = permutation_sign(comp + q)
    return eps, comp


def pluecker_to_dict(p: PlueckerVector, normalized: bool = False) -> dict[str, list[float]]:
    """Serialize as ``"i1,i2,...,ik" -> [re, im]``."""
    vec = p.normalized if normalized else p.raw
    return {",".join(str(i) for i in tup): pair for tup, pair in zip(p.tuples, to_pairs(vec))}
