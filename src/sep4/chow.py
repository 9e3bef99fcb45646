"""Determinantal Chow forms of small product-state (Segre) varieties.

A subspace of dimension ``delta1 = d - 1 - sum(d_i - 1)`` meets the set
of product vectors iff a single homogeneous polynomial F in its Plücker
coordinates vanishes.  F is stored as a square matrix whose entries are
signed sums of Plücker indices; its determinant, with the coordinates
plugged in, is the value of the form.  The tables for the supported
systems live as JSON data files; the M x 2 family also has a generator.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from itertools import combinations

import numpy as np

from .errors import NotBijective, ShapeMismatch, UnsupportedSystem, WrongDimension
from .grassmann import PlueckerVector, SubspaceBasis, index_tuples, permutation_sign, pluecker
from .states import DEFAULT_TOLERANCES, ToleranceConfig, _stacked

# entry cell: tuple of (sign, index-tuple) terms, all linear in p
Cell = tuple[tuple[int, tuple[int, ...]], ...]

_TABLE_FILES = {
    (2, 2): "chow_2x2.json",
    (3, 2): "chow_3x2.json",
    (4, 2): "chow_4x2.json",
    (2, 3): "chow_2x3.json",
    (3, 3): "chow_3x3.json",
    (2, 2, 2): "chow_2x2x2.json",
}

# Largest M the M x 2 generator builds.  Its form has M * 2^(M-1) terms and
# takes C(2M, M-1) Plücker minors; evaluating it on one random basis took
# 0.3 s at M = 8, 0.7 s at 9, 2.7 s at 10 and 11 s at 11 (one core of a
# shared 2-core Xeon).
MAX_MX2 = 9


@dataclass(frozen=True)
class ChowForm:
    """Square matrix of signed Plücker-index sums; degree = matrix size."""

    dims: tuple[int, ...]
    matrix_size: int
    entries: tuple[tuple[Cell, ...], ...]

    @property
    def degree(self) -> int:
        return self.matrix_size

    @cached_property
    def d(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def k(self) -> int:
        return delta1(self.dims)

    @cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        """``entries`` as two (cells, width) tables, cells in row-major order:
        the signs, as complex numbers, and the positions of the index tuples
        in the Plücker order of :func:`~sep4.grassmann.index_tuples`.  A cell
        with fewer terms is padded with sign 1 at position C(d, k), one past
        the last coordinate, where :func:`_chow_values` puts a zero."""
        position = {tup: q for q, tup in enumerate(index_tuples(self.d, self.k))}
        cells = [cell for row in self.entries for cell in row]
        width = max(len(cell) for cell in cells)
        signs = np.ones((len(cells), width), dtype=complex)
        positions = np.full((len(cells), width), len(position))
        for i, cell in enumerate(cells):
            for j, (sign, tup) in enumerate(cell):
                signs[i, j] = sign
                positions[i, j] = position[tup]
        signs.setflags(write=False)
        positions.setflags(write=False)
        return signs, positions


def delta1(dims) -> int:
    """Critical subspace dimension d - 1 - sum(d_i - 1)."""
    dims = tuple(int(x) for x in dims)
    return math.prod(dims) - 1 - sum(x - 1 for x in dims)


def _entries_from_rows(rows) -> tuple[tuple[Cell, ...], ...]:
    return tuple(
        tuple(tuple((int(s), tuple(int(i) for i in t)) for s, t in cell) for cell in row)
        for row in rows
    )


@lru_cache(maxsize=None)
def _load_table(dims: tuple[int, ...]) -> ChowForm:
    fname = _TABLE_FILES[dims]
    with resources.files("sep4.data").joinpath(fname).open("r") as fh:
        obj = json.load(fh)
    entries = _entries_from_rows(obj["rows"])
    form = ChowForm(dims=dims, matrix_size=int(obj["size"]), entries=entries)
    _check_form(form)
    return form


def _check_form(form: ChowForm) -> None:
    k, d = form.k, form.d
    for row in form.entries:
        if len(row) != form.matrix_size:
            raise UnsupportedSystem("malformed Chow table: ragged rows")
        for cell in row:
            for _, tup in cell:
                if len(tup) != k or any(not 1 <= i <= d for i in tup):
                    raise UnsupportedSystem(f"malformed Chow table tuple {tup}")
                if list(tup) != sorted(set(tup)):
                    raise UnsupportedSystem(f"tuple {tup} not strictly increasing")


def builtin_chow(dims) -> ChowForm:
    """Chow form for the supported systems.

    Hard-coded tables cover 2x2, 3x2, 4x2, 2x3, 3x3 and 2x2x2; any other
    M x 2 comes from :func:`generate_chow_Mx2`.
    """
    dims = tuple(int(x) for x in dims)
    if dims in _TABLE_FILES:
        return _load_table(dims)
    if len(dims) == 2 and dims[1] == 2 and dims[0] > 4:
        return generate_chow_Mx2(dims[0])
    raise UnsupportedSystem(f"no Chow form available for dims {dims}")


@lru_cache(maxsize=None)
def generate_chow_Mx2(m: int) -> ChowForm:
    """Closed-form M x M matrix for the M x 2 system, built once per M.

    Entry (i, j) is the unsigned sum over all ways of incrementing exactly
    j-1 terms of the odd base sequence (1, 3, ..., 2M-1) with 2(M-i)+1
    omitted; increments never collide because the base terms are odd.
    M runs from 2 to :data:`MAX_MX2`.
    """
    if not 2 <= m <= MAX_MX2:
        raise UnsupportedSystem(f"M x 2 generator needs 2 <= M <= {MAX_MX2}, got {m}")
    rows = []
    for i in range(1, m + 1):
        omit = 2 * (m - i) + 1
        base = [2 * q - 1 for q in range(1, m + 1) if 2 * q - 1 != omit]
        row = []
        for j in range(1, m + 1):
            cell = []
            for bumped in combinations(range(m - 1), j - 1):
                tup = tuple(sorted(base[q] + (1 if q in bumped else 0) for q in range(m - 1)))
                cell.append((1, tup))
            row.append(tuple(sorted(cell)))
        rows.append(tuple(row))
    return ChowForm(dims=(m, 2), matrix_size=m, entries=tuple(rows))


def permute_form(form: ChowForm, permutation) -> ChowForm:
    """Rewrite every Plücker index through a bijection of [d].

    Tuples are re-sorted increasing with the antisymmetry sign folded
    into the term's sign, so evaluating the permuted form on coordinates
    computed in the original basis equals evaluating the original form on
    the permuted basis.
    """
    perm = [int(x) for x in permutation]
    d = form.d
    if sorted(perm) != list(range(1, d + 1)):
        raise NotBijective(f"permutation must be a bijection on 1..{d}")
    rows = []
    for row in form.entries:
        new_row = []
        for cell in row:
            new_cell = []
            for sign, tup in cell:
                mapped = [perm[i - 1] for i in tup]
                new_cell.append((sign * permutation_sign(mapped), tuple(sorted(mapped))))
            new_row.append(tuple(sorted(new_cell)))
        rows.append(tuple(new_row))
    return ChowForm(dims=form.dims, matrix_size=form.matrix_size, entries=tuple(rows))


def _check_fits(form: ChowForm, k: int, d: int) -> None:
    """Raise :class:`ShapeMismatch` unless a subspace of G(k, d) fits ``form``."""
    if k != form.k or d != form.d:
        raise ShapeMismatch(f"Plücker vector G({k},{d}) does not fit form for dims {form.dims}")


def eval_chow(form: ChowForm, p: PlueckerVector, normalized: bool = True) -> complex:
    """Assemble the numeric matrix and return its determinant.

    With ``normalized=True`` the form is evaluated at sqrt(C(d, k)) times
    the unit-norm coordinates, whose entries then have mean square 1: the
    value does not depend on the spanning basis, and its modulus not on
    the local frame either, since a local unitary is unitary on the
    coordinates and moves the form by a unimodular factor.  It is directly
    comparable against ``tol_chow``.  With ``normalized=False`` the raw
    minors are used (the convention in which published closed-form values
    are quoted).  This is :func:`_chow_values` on a group of one.
    """
    _check_fits(form, p.k, p.d)
    return complex(_chow_values(form, [p.normalized if normalized else p.raw], normalized))


def _chow_values(form: ChowForm, coords: list[np.ndarray], scaled: bool = True) -> np.ndarray:
    """The value of ``form`` at each of ``coords``, Plücker coordinates of
    subspaces that fit it, with ``scaled`` at sqrt(C(d, k)) times each:
    an array (g,), or one scalar for a lone vector, which is not stacked
    (see :func:`~sep4.states._stacked`).  One scale, gather,
    column-by-column sum and ``det`` call over the stack, which give each
    vector the bits it gets alone."""
    vecs = _stacked(coords)
    if scaled:
        vecs = math.sqrt(vecs.shape[-1]) * vecs
    signs, positions = form._gather
    padded = np.concatenate((vecs, np.zeros(vecs.shape[:-1] + (1,), dtype=complex)), axis=-1)
    terms = signs * padded.take(positions, axis=-1)
    # column by column, so each entry adds its terms in the order of its
    # cell; a stack's sums are (cells, g), so that each column is one view
    mat = np.zeros(terms.shape[-2::-1], dtype=complex)
    for column in terms.T:
        mat += column
    size = form.matrix_size
    return np.linalg.det(mat.T.reshape(vecs.shape[:-1] + (size, size)))


def subspace_meets_segre(
    basis: SubspaceBasis, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[bool, float]:
    """Decide whether a critical-dimension subspace contains a product vector.

    Returns ``(meets, |F|)``: ``meets`` is True iff the frame-free Chow
    value of :func:`eval_chow` is at most ``tol_chow``; False certifies a
    completely entangled subspace.  Neither a change of spanning basis nor
    a local unitary on the subspace moves |F| beyond rounding.
    """
    expected = delta1(basis.dims)
    if basis.k != expected:
        raise WrongDimension(
            f"subspace has dimension {basis.k}, the test needs {expected} for dims {basis.dims}"
        )
    form = builtin_chow(basis.dims)
    value = eval_chow(form, pluecker(basis), normalized=True)
    return abs(value) <= cfg.tol_chow, abs(value)


def form_to_dict(form: ChowForm) -> dict:
    return {
        "dims": list(form.dims),
        "size": form.matrix_size,
        "rows": [
            [[[s, list(t)] for s, t in cell] for cell in row] for row in form.entries
        ],
    }


def form_checksum(form: ChowForm) -> str:
    """SHA-256 of the canonical JSON serialization."""
    blob = json.dumps(form_to_dict(form), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def supported_systems() -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(_TABLE_FILES, key=lambda t: (len(t), t)))
