"""Multipartite operators and the tensor-index arithmetic they need.

States live on a tensor product of finite-dimensional parties.  The
composite index is row-major mixed-radix over ``dims`` with party 1 most
significant; every module shares that convention, and only the kernels
here write it out: party flattenings, row Kronecker products, the one
product factorization and the one weighted projector sum.
Parties are numbered 1..n and subsets of parties are passed as iterables
of 1-based indices.  States are stored dense and are not normalized.
One pass validates a stack of matrices of one ``dims`` (:func:`_new_states`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from numbers import Integral

import numpy as np

from .codec import from_pairs, to_pairs
from .errors import (
    AllPartiesTrivial,
    DimensionMismatch,
    EigFailure,
    EmptySubset,
    InvalidSeed,
    NotHermitian,
    NotPositive,
    StateFormatError,
    ZeroVector,
)
from .grassmann import SubspaceBasis

MAX_TOTAL_DIM = 4096


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances for every numerical decision the package makes."""

    tol_herm: float = 1e-10
    tol_psd: float = 1e-9
    tol_rank: float = 1e-9
    tol_product: float = 1e-8
    tol_chow: float = 1e-8

    def __post_init__(self):
        for name, value in vars(self).items():
            v = float(value)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.tol_rank >= 1.0:
            # a cutoff of lambda_max or more would count no eigenvalue at all
            raise ValueError(f"tol_rank must be below 1, got {self.tol_rank!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True)
class MultiState:
    """Hermitian PSD operator on a tensor product of parties, unnormalized.

    Construct through :func:`new_state`, which validates and marks what it
    returns; operations such as :func:`partial_transpose` build instances
    directly and may return operators that are Hermitian but not PSD.  The
    verdict path runs :func:`new_state` on an unmarked instance.  Instances
    are immutable (the matrix buffer is frozen) and safe to share across
    threads.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    cfg: ToleranceConfig = DEFAULT_TOLERANCES
    _valid: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues sorted descending with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class CompressionResult:
    """Support-compressed state plus the per-party isometries used; the
    state is ``None`` when every party is dropped (a pure product state)."""

    state: MultiState | None
    isometries: tuple[np.ndarray, ...]
    dropped: tuple[int, ...]


def _check_seed(seed, name: str = "seed") -> None:
    """Raise :class:`InvalidSeed` unless ``seed``, a random seed or count of
    random starts, is a non-negative integer."""
    if not (isinstance(seed, Integral) and seed >= 0):
        raise InvalidSeed(f"{name} must be a non-negative integer, got {seed!r}")


def _check_layout(shape: tuple[int, ...], dims: tuple[int, ...]) -> None:
    """Raise :class:`DimensionMismatch` unless ``shape`` is square over ``dims``."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {shape}")
    if not dims:
        raise DimensionMismatch("dims must name at least one party")
    if min(dims) < 1 or math.prod(dims) != shape[0]:
        raise DimensionMismatch(f"dims {dims} do not multiply to matrix size {shape[0]}")
    if shape[0] > MAX_TOTAL_DIM:
        raise DimensionMismatch(f"total dimension {shape[0]} exceeds supported {MAX_TOTAL_DIM}")


def _check_entries(m: np.ndarray) -> None:
    """Raise :class:`NotPositive` for a zero matrix of the stack ``m``,
    :class:`DimensionMismatch` unless the entries and trace of each are
    finite floats.  The largest entry is taken on the real view, so that no
    modulus can overflow; a trace is at most d times it, so traces are
    summed only where twice that overflows (always summed, and a lone
    matrix stacked, a lone :func:`new_state` took 25% longer)."""
    scales = np.abs(np.ascontiguousarray(m).view(float)).reshape(len(m), -1).max(axis=1)
    if not scales.all():
        raise NotPositive("zero matrix is not a state")
    top = float(scales.max())
    if not math.isfinite(top):
        raise DimensionMismatch("matrix contains non-finite entries")
    if not math.isfinite(2.0 * top * m.shape[-1]):
        with np.errstate(over="ignore"):
            traces = np.trace(m, axis1=1, axis2=2).real
        for trace in traces:
            if not math.isfinite(trace):
                raise DimensionMismatch(f"trace {trace} is not a finite float")


def new_state(matrix, dims, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> MultiState:
    """Validate and build a :class:`MultiState`.

    Hermiticity is enforced by symmetrization when the asymmetry is below
    ``tol_herm`` (relative to the largest entry); larger asymmetry is an
    error, as are a trace that is not a finite float and any eigenvalue
    below ``-tol_psd * lambda_max``.  This is :func:`_new_states` on a
    group of one.
    """
    return _new_states([matrix], dims, cfg)[0]


def _new_states(matrices: list, dims, cfg: ToleranceConfig) -> list[MultiState]:
    """:func:`new_state`'s checks, each once over the stack of matrices of
    one ``dims``: layout, entries, Hermiticity and one ``eigvalsh``, which
    gives each matrix the bits it gets alone.  Any matrix's failed check
    raises (:func:`_each_alone` gives each its own); the states are marked."""
    arrays = [np.asarray(x, dtype=complex) for x in matrices]
    dims = tuple(int(x) for x in dims)
    _check_layout(arrays[0].shape, dims)
    # a lone matrix is viewed as a stack of one, not copied (see _check_entries)
    m = arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
    _check_entries(m)
    # halved first, where no modulus or sum of finite entries overflows
    half = 0.5 * m
    scale = np.abs(half).max(axis=(1, 2))
    adjoint = _adjoint(half)
    asym = np.abs(half - adjoint).max(axis=(1, 2))
    for a, s in zip(asym.tolist(), scale.tolist()):
        if a > cfg.tol_herm * s:
            raise NotHermitian(f"relative asymmetry {a / s:.3e} exceeds tol_herm")
    m = half + adjoint

    for eigs in np.linalg.eigvalsh(m):
        _check_psd(eigs, cfg)
    states = [MultiState(x, dims, cfg) for x in m]
    for state in states:
        object.__setattr__(state, "_valid", True)
    return states


def _each_alone(stage, members: list, *args) -> list:
    """``stage(members, *args)``, or, when it raises, each member's result
    or error alone: the one error boundary of the stacked stages, which
    catch nothing (:func:`_new_states`, :func:`~sep4.engine._classify_stacked`)."""
    try:
        return stage(members, *args)
    except Exception as exc:
        if len(members) == 1:
            return [exc]
        return [_each_alone(stage, [member], *args)[0] for member in members]


def _validated(state: MultiState) -> MultiState:
    """``state`` if :func:`new_state` built it, else :func:`new_state` on
    its matrix, ``dims`` and tolerances."""
    return state if state._valid else new_state(state.matrix, state.dims, state.cfg)


def _check_psd(eigs: np.ndarray, cfg: ToleranceConfig) -> None:
    """Raise :class:`NotPositive` unless the ascending spectrum ``eigs`` has
    a positive finite largest value and none below ``-tol_psd`` times it;
    a NaN fails both comparisons."""
    lam_max = eigs[-1]
    if not 0.0 < lam_max < math.inf:
        raise NotPositive(f"largest eigenvalue {lam_max:.3e} is not positive and finite")
    if not eigs[0] >= -cfg.tol_psd * lam_max:
        raise NotPositive(
            f"eigenvalue {eigs[0]:.3e} below -tol_psd * lambda_max = "
            f"{-cfg.tol_psd * lam_max:.3e}"
        )


def normalize_subset(subset, n: int) -> tuple[int, ...]:
    """Sorted tuple of distinct 1-based party indices within [1, n]."""
    s = sorted({int(x) for x in subset})
    if any(x < 1 or x > n for x in s):
        raise DimensionMismatch(f"subset {s} not within parties 1..{n}")
    return tuple(s)


@lru_cache(maxsize=None)
def _transpose_axes(n: int, subset: tuple[int, ...]) -> tuple[int, ...]:
    """Axes of the ``dims + dims`` tensor, each subset party's row and column swapped."""
    perm = list(range(2 * n))
    for p in subset:
        perm[p - 1], perm[n + p - 1] = perm[n + p - 1], perm[p - 1]
    return tuple(perm)


def _transposed(matrix: np.ndarray, dims: tuple[int, ...], subset) -> np.ndarray:
    """Partial-transpose kernel on a bare matrix; ``subset`` is normalized."""
    d = matrix.shape[0]
    return matrix.reshape(dims + dims).transpose(_transpose_axes(len(dims), subset)).reshape(d, d)


def partial_transpose(state: MultiState, subset) -> MultiState:
    """Transpose the row/column indices of every party in ``subset``.

    Applying the same subset twice returns the input bit-exactly; the
    result is Hermitian but in general not PSD.
    """
    s = normalize_subset(subset, state.n)
    if not s:
        return state
    return MultiState(_transposed(state.matrix, state.dims, s), state.dims, state.cfg)


def _partial_trace(matrix: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial-trace kernel on a bare operator: the parties reordered, kept
    ones first, on both sides, then the trace over the rest."""
    n = len(dims)
    order = [p - 1 for p in keep] + [i for i in range(n) if i + 1 not in keep]
    dk = math.prod(dims[p - 1] for p in keep)
    dr = matrix.shape[0] // dk
    t = matrix.reshape(dims + dims).transpose(order + [n + i for i in order])
    return np.trace(t.reshape(dk, dr, dk, dr), axis1=1, axis2=3)


# Largest cached gather table, in entries: the single-party reduced states
# here and the PPT eigenvalue stack in ``ppt`` are formed by one indexing up
# to it and by one call per party or subset above it, so that the cached
# tables stay small.
_GATHER_ENTRIES = 2 ** 16


@lru_cache(maxsize=32)
def _trace_gather(dims: tuple[int, ...], parties: tuple[int, ...]) -> np.ndarray:
    """Flat indices (d / dp, parties, dp, dp) of a ``dims`` operator for
    parties of one dimension dp: entry [k, i, a, b] puts a and b on party
    i and the other parties' index k on both sides, so the sum over k is
    its reduced state.  The traced index leads, so that the sum adds whole
    slices in index order, the same in any stack; read-only.  Its party
    order is :func:`_flattenings`' on the row of indices."""
    d = math.prod(dims)
    flats = _flattenings(np.arange(d)[None, :], dims)
    table = np.array([flats[p - 1][0, :, None] * d + flats[p - 1] for p in parties])
    table = np.ascontiguousarray(table.transpose(3, 0, 1, 2))
    table.setflags(write=False)
    return table


def _reduced_states(matrix: np.ndarray, dims, parties: tuple[int, ...]) -> np.ndarray:
    """Single-party reduced states of ``parties``, all of one dimension dp,
    of an operator or of each of a stack (g, d, d) of them, as (parties,
    dp, dp) or (g, parties, dp, dp): one cached gather while its table holds
    at most 2^16 entries, one :func:`_partial_trace` per operator and party
    above that.  Either way an operator's reduced states have the same bits
    alone and in a stack.  A lone operator's flat view is gathered, since
    ``[..., table]`` made a lone ``verdict-mix`` ``classify`` 4% slower."""
    d = matrix.shape[-1]
    if len(parties) * dims[parties[0] - 1] * d <= _GATHER_ENTRIES:
        table = _trace_gather(dims, parties)
        if matrix.ndim == 2:
            return matrix.ravel()[table].sum(0)
        return matrix.reshape(len(matrix), -1)[:, table].sum(1)
    out = np.array([[_partial_trace(m, dims, (p,)) for p in parties]
                    for m in matrix.reshape(-1, d, d)])
    return out.reshape(matrix.shape[:-2] + out.shape[1:])


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays of a group as one stack, or the lone array of a group of
    one as it is, so that a group of one makes the calls one state makes
    (a stack of one made a lone ``verdict-mix`` ``classify`` 7% slower)."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _members(x, g: int):
    """A result on :func:`_stacked` arrays of ``g`` members, one item each."""
    return [x] if g == 1 else x


def reduced_state(state: MultiState, keep) -> MultiState:
    """Partial trace over the complement of ``keep``; preserves the trace."""
    k = normalize_subset(keep, state.n)
    if not k:
        raise EmptySubset("keep must name at least one party")
    if len(k) == state.n:
        return state
    if len(k) == 1:
        out = _reduced_states(state.matrix, state.dims, k)[0]
    else:
        out = _partial_trace(state.matrix, state.dims, k)
    return MultiState(out, tuple(state.dims[p - 1] for p in k), state.cfg)


def spectral(state: MultiState | np.ndarray) -> SpectralData:
    """Full Hermitian eigendecomposition, eigenvalues descending.

    Takes a state, a bare Hermitian matrix or a stack ``(..., d, d)`` of
    them, diagonalized in one call; a real symmetric one keeps real
    eigenvectors.
    """
    matrix = state.matrix if isinstance(state, MultiState) else state
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK hiccup
        raise EigFailure(str(exc)) from exc
    # eigh sorts ascending; C-contiguous copies keep later products on BLAS
    return SpectralData(eigenvalues=w[..., ::-1].copy(), eigenvectors=v[..., ::-1].copy())


def _rank_from_eigenvalues(eigs, tol_rank: float) -> int:
    """Count of ``|eigs|`` above ``tol_rank`` times the largest; 0 when every
    value is zero or one is NaN or infinite.  In Python floats, from an
    array or a list of them: the spectra hold at most a few dozen values,
    where numpy's per-call cost outweighs the work."""
    mags = list(map(abs, eigs.tolist() if isinstance(eigs, np.ndarray) else eigs))
    total = sum(mags)
    if total == 0.0 or total != total:
        return 0
    # the count of magnitudes above the cutoff, without a Python-level loop
    return sum(map(float(tol_rank * max(mags)).__lt__, mags))


def rank_of(state: MultiState) -> int:
    """Number of eigenvalues above ``tol_rank * lambda_max`` in magnitude."""
    return _rank_from_eigenvalues(spectral(state).eigenvalues, state.cfg.tol_rank)


def range_basis(state: MultiState) -> SubspaceBasis:
    """Eigenvectors of the significant eigenvalues, as basis rows."""
    sd = spectral(state)
    r = _rank_from_eigenvalues(sd.eigenvalues, state.cfg.tol_rank)
    return SubspaceBasis(sd.eigenvectors[:, :r].T, state.dims)


def kernel_basis(state: MultiState) -> SubspaceBasis:
    """Eigenvectors of the negligible eigenvalues, as basis rows."""
    sd = spectral(state)
    r = _rank_from_eigenvalues(sd.eigenvalues, state.cfg.tol_rank)
    return SubspaceBasis(sd.eigenvectors[:, r:].T, state.dims)


@lru_cache(maxsize=None)
def _party_sizes(dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The parties of ``dims``, one tuple per party dimension, in order of
    first appearance."""
    return tuple(tuple(p for p in range(1, len(dims) + 1) if dims[p - 1] == dp)
                 for dp in dict.fromkeys(dims))


def _local_ranges(states: list[MultiState]) -> list[list[np.ndarray]]:
    """Per state of a group of one ``dims``, the range isometry (dp, rank)
    of each single-party reduced state, the eigenvectors of its significant
    eigenvalues: one :func:`_reduced_states` gather and one stacked
    :func:`spectral` call per party size for the whole group."""
    dims, g = states[0].dims, len(states)
    matrices = _stacked([s.matrix for s in states])
    ranges = [[None] * len(dims) for _ in states]
    for parties in _party_sizes(dims):
        sd = spectral(_reduced_states(matrices, dims, parties))
        eigs = _members(sd.eigenvalues.tolist(), g)
        for state, out, es, vs in zip(states, ranges, eigs, _members(sd.eigenvectors, g)):
            tol = state.cfg.tol_rank
            for p, e, v in zip(parties, es, vs):
                out[p - 1] = np.ascontiguousarray(v[:, :_rank_from_eigenvalues(e, tol)])
    return ranges


def local_ranks(state: MultiState) -> list[int]:
    """Rank of each single-party reduced state, from the spectra
    :func:`compress_support` reads; a state :func:`new_state` did not build
    is passed through it first."""
    return [w.shape[1] for w in _local_ranges([_validated(state)])[0]]


def compress_support(state: MultiState) -> CompressionResult:
    """Restrict every party to the range of its reduced state.

    Parties whose reduced state has rank one are removed entirely; rank,
    PPT status and separability are unaffected.  The isometry widths are
    the local ranks.  Reduced states of one size are formed by one gather
    and diagonalized in one stacked :func:`spectral` call
    (:func:`_local_ranges`).  A state :func:`new_state` did not build is
    passed through it first.  Raises :class:`AllPartiesTrivial` when
    nothing would remain (the state is a pure product state), and
    :class:`NotPositive` when a reduced state is zero.
    """
    comp = _compress_group([_validated(state)])[0][0]
    if comp.state is None:
        raise AllPartiesTrivial("every single-party reduced state has rank one")
    return comp


def _compress_group(states: list[MultiState]) -> tuple[list, list]:
    """:func:`compress_support` over a group of validated states of one
    ``dims``: the local ranges by :func:`_local_ranges`, then, for the
    states that share their local ranks, one broadcast Kronecker product of
    the isometries and one stacked pair of products.  Per state its
    :class:`CompressionResult`, whose state is ``None`` when every local
    rank is 1, and per set of local ranks with one above 1 its members and
    their compressed matrices, as :func:`_stacked` gives them.  A zero
    reduced state, which a loose ``tol_psd`` lets through, raises
    :class:`NotPositive`; :func:`~sep4.engine._classify_group` isolates it."""
    ranges = _local_ranges(states)
    out: list = [None] * len(states)
    stacks = []
    by_ranks: dict = {}
    for i, isometries in enumerate(ranges):
        ranks = tuple([w.shape[1] for w in isometries])
        if min(ranks) == 0:
            raise NotPositive(f"the reduced state of party {ranks.index(0) + 1} is zero")
        elif max(ranks) == 1:
            out[i] = CompressionResult(None, tuple(isometries), tuple(range(1, len(ranks) + 1)))
        else:
            by_ranks.setdefault(ranks, []).append(i)
    for ranks, members in by_ranks.items():
        g = len(members)
        # the Kronecker product of the isometries, one broadcast product per
        # factor, stacked by party over the group; a lone state's as they
        # are, since stacking them made a lone classify 0.8% slower
        factors = [ranges[i] for i in members]
        factors = map(np.stack, zip(*factors)) if g > 1 else factors[0]
        w = reduce(_kron_columns, factors)
        m = _adjoint(w) @ _stacked([states[i].matrix for i in members]) @ w
        # halved before the sum, which overflows near the float limit
        m *= 0.5
        m += _adjoint(m)
        cdims = tuple(r for r in ranks if r > 1)
        dropped = tuple(p for p, r in enumerate(ranks, 1) if r == 1)
        for i, small in zip(members, _members(m, g)):
            out[i] = CompressionResult(
                MultiState(small, cdims, states[i].cfg), tuple(ranges[i]), dropped
            )
        stacks.append((members, m))
    return out, stacks


def _adjoint(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _kron_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two isometries (rows, columns), or of each
    pair of two stacks (g, rows, columns) of them, by one broadcast product."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], -1))


def _flattenings(x: np.ndarray, dims) -> list[np.ndarray]:
    """Per-party flattenings of the rows of ``x``, each (rows, dp, rest),
    the other parties in order (``transpose``: ``moveaxis`` costs more)."""
    rows = x.shape[0]
    t = x.reshape((rows,) + tuple(dims))
    axes = list(range(1, len(dims) + 1))
    return [
        t.transpose([0, p] + axes[: p - 1] + axes[p:]).reshape(rows, dp, -1)
        for p, dp in enumerate(dims, 1)
    ]


def _row_kron(factors) -> np.ndarray:
    """Row-wise tensor products of per-party factor rows, each (rows, dp):
    the inverse of :func:`_flattenings` on product rows."""
    return reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1), factors)


def _factorize(x: np.ndarray, dims) -> tuple[list[np.ndarray], np.ndarray]:
    """The one product factorization of the unit rows of ``x``: each party's
    unit factors (rows, dp), the leading left singular vectors of its
    flattenings by one stacked SVD per party size (the factor 1 for a party
    of dimension 1, the rows for a lone wider party), and each row's
    largest s2/s1 over them, 0 exactly when the row is their product."""
    factors = [x if dp > 1 else np.ones((x.shape[0], 1), dtype=complex) for dp in dims]
    wide = [p for p, dp in enumerate(dims) if dp > 1]
    if len(wide) < 2:
        return factors, np.zeros(x.shape[0])
    flats = _flattenings(x, dims)
    ratios = []
    for dp in dict.fromkeys(dims[p] for p in wide):
        parties = [p for p in wide if dims[p] == dp]
        u, s, _ = np.linalg.svd(np.stack([flats[p] for p in parties]))
        ratios.append(s[..., 1] / s[..., 0])
        for p, up in zip(parties, u):
            factors[p] = up[:, :, 0]
    return factors, np.concatenate(ratios).max(axis=0)


def _projector_sum(rows: np.ndarray, weights) -> np.ndarray:
    """The one weighted projector sum, sum_i w_i |row_i><row_i|: a stated
    residual and its reconstruction both take it, so they agree bit for bit."""
    return (rows.T * weights) @ rows.conj()


def is_product(v, dims, tol_product: float = DEFAULT_TOLERANCES.tol_product):
    """Decide whether ``v`` factorizes across every party.

    True iff every party flattening has second-to-first singular value
    ratio at most ``tol_product``.  The factors of :func:`_fit_product`
    are returned on success, ``None`` otherwise.
    """
    dims = tuple(int(x) for x in dims)
    vec = np.asarray(v, dtype=complex).ravel()
    if min(dims, default=1) < 1:
        raise DimensionMismatch(f"party dimensions {dims} must be at least 1")
    if vec.shape[0] != math.prod(dims):
        raise DimensionMismatch(f"vector length {vec.shape[0]} != prod{dims}")
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ZeroVector("cannot factor the zero vector")
    factors, ratios = _factorize((vec / norm)[None, :], dims)
    if ratios[0] > tol_product:
        return False, None
    return True, _fit_product(factors, vec)


def assemble_product(factors) -> np.ndarray:
    """Tensor product of per-party factor vectors."""
    return _row_kron([np.asarray(f, dtype=complex).reshape(1, -1) for f in factors])[0]


def _fit_product(factors, vec: np.ndarray) -> tuple[np.ndarray, ...]:
    """The factors :func:`_factorize` gave for ``vec`` alone, the last one
    scaled so that their product is the projection of ``vec`` on its line:
    ``vec``, phase included, when it is product."""
    factors = [f[0] for f in factors]
    factors[-1] = factors[-1] * np.vdot(assemble_product(factors), vec)
    return tuple(factors)


# --- state JSON -----------------------------------------------------------

def state_to_dict(state: MultiState) -> dict:
    """Dense row-major JSON form: entries as [re, im] pairs."""
    return {"dims": list(state.dims), "matrix": to_pairs(state.matrix)}


def state_from_dict(obj, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> MultiState:
    """Parse and validate the state JSON form; rejects NaN/Inf."""
    matrix, dims = _decoded(obj)
    (state,) = _checked_states([matrix], dims, cfg)
    if isinstance(state, Exception):
        raise state
    return state


def _decoded(obj) -> tuple[np.ndarray, tuple[int, ...]]:
    """The matrix and ``dims`` of the state JSON form ``obj``, not yet
    validated; a value that is not that form is a :class:`StateFormatError`."""
    if not isinstance(obj, dict) or "dims" not in obj or "matrix" not in obj:
        raise StateFormatError("state JSON must carry 'dims' and 'matrix'")
    dims = obj["dims"]
    # JSON true and false are Python ints too
    if not isinstance(dims, list) or not dims or not all(type(x) is int for x in dims):
        raise StateFormatError("'dims' must be a nonempty list of integers")
    try:
        m = from_pairs(obj["matrix"])
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"'matrix' is not a dense [re, im] grid: {exc}") from exc
    if np.ndim(m) != 2 or m.shape[0] != m.shape[1]:
        raise StateFormatError(f"'matrix' is a {np.shape(m)} grid of pairs, expected (d, d)")
    return m, tuple(dims)


def _checked_states(matrices: list, dims, cfg: ToleranceConfig) -> list:
    """Per decoded matrix of one ``dims`` its state or its error, a failed
    check as a :class:`StateFormatError`, from one :func:`_new_states` pass."""
    out = _each_alone(_new_states, matrices, dims, cfg)
    for i, result in enumerate(out):
        if isinstance(result, (DimensionMismatch, NotHermitian, NotPositive)):
            out[i] = StateFormatError(str(result))
            out[i].__cause__ = result
    return out
