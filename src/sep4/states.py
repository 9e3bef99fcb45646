"""Multipartite operators and the tensor-index arithmetic they need.

States live on a tensor product of finite-dimensional parties.  The
composite index is row-major mixed-radix over ``dims`` with party 1 most
significant; every module in the package shares that convention.
Parties are numbered 1..n and subsets of parties are passed as iterables
of 1-based indices.  States are stored dense and are not normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .codec import from_pairs, to_pairs
from .errors import (
    AllPartiesTrivial,
    DimensionMismatch,
    EigFailure,
    EmptySubset,
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

    Construct through :func:`new_state`, which validates; operations such
    as :func:`partial_transpose` build instances directly and may return
    operators that are Hermitian but not PSD.  Instances are immutable
    (the matrix buffer is frozen) and safe to share across threads.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    cfg: ToleranceConfig = DEFAULT_TOLERANCES

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(x) for x in self.dims))

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
    """Support-compressed state plus the per-party isometries used."""

    state: MultiState
    isometries: tuple[np.ndarray, ...]
    kept: tuple[int, ...]
    dropped: tuple[int, ...]


def new_state(matrix, dims, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> MultiState:
    """Validate and build a :class:`MultiState`.

    Hermiticity is enforced by symmetrization when the asymmetry is below
    ``tol_herm`` (relative to the largest entry); larger asymmetry is an
    error, as is any eigenvalue below ``-tol_psd * lambda_max``.
    """
    m = np.asarray(matrix, dtype=complex)
    dims = tuple(int(x) for x in dims)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch("matrix contains non-finite entries")
    d = m.shape[0]
    if not dims:
        raise DimensionMismatch("dims must name at least one party")
    if any(x < 1 for x in dims) or math.prod(dims) != d:
        raise DimensionMismatch(f"dims {dims} do not multiply to matrix size {d}")
    if d > MAX_TOTAL_DIM:
        raise DimensionMismatch(f"total dimension {d} exceeds supported {MAX_TOTAL_DIM}")

    scale = np.abs(m).max()
    if scale == 0.0:
        raise NotPositive("zero matrix is not a state")
    asym = np.abs(m - m.conj().T).max()
    if asym > cfg.tol_herm * scale:
        raise NotHermitian(f"relative asymmetry {asym / scale:.3e} exceeds tol_herm")
    m = 0.5 * (m + m.conj().T)

    eigs = np.linalg.eigvalsh(m)
    lam_max = eigs[-1]
    if lam_max <= 0.0:
        raise NotPositive("largest eigenvalue is not positive")
    if eigs[0] < -cfg.tol_psd * lam_max:
        raise NotPositive(
            f"eigenvalue {eigs[0]:.3e} below -tol_psd * lambda_max = "
            f"{-cfg.tol_psd * lam_max:.3e}"
        )
    return MultiState(m, dims, cfg)


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


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@lru_cache(maxsize=None)
def _trace_subscripts(n: int, keep: tuple[int, ...]) -> str:
    """``einsum`` subscripts that trace an ``n``-party tensor down to ``keep``."""
    if 2 * n > len(_LETTERS):
        raise DimensionMismatch("too many parties for the einsum path")
    row, col = _LETTERS[:n], _LETTERS[n:2 * n]
    traced = "".join(col[i] if i + 1 in keep else row[i] for i in range(n))
    kept = "".join(row[p - 1] for p in keep) + "".join(col[p - 1] for p in keep)
    return row + traced + "->" + kept


def _reduced(t: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial-trace kernel on the ``dims + dims`` tensor ``t``."""
    dk = math.prod(dims[p - 1] for p in keep)
    return np.einsum(_trace_subscripts(len(dims), keep), t).reshape(dk, dk)


def reduced_state(state: MultiState, keep) -> MultiState:
    """Partial trace over the complement of ``keep``; preserves the trace."""
    k = normalize_subset(keep, state.n)
    if not k:
        raise EmptySubset("keep must name at least one party")
    if len(k) == state.n:
        return state
    out = _reduced(state.matrix.reshape(state.dims + state.dims), state.dims, k)
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


def _rank_from_eigenvalues(eigs: np.ndarray, tol_rank: float) -> int:
    """Count of ``|eigs|`` above ``tol_rank`` times the largest; 0 when every
    value is zero or one is NaN or infinite.  In Python floats: the spectra
    hold at most a few dozen values, where numpy's per-call cost outweighs
    the work."""
    mags = [abs(x) for x in eigs.tolist()]
    total = sum(mags)
    if total == 0.0 or total != total:
        return 0
    cutoff = tol_rank * max(mags)
    return len([m for m in mags if m > cutoff])


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


def local_ranks(state: MultiState) -> list[int]:
    """Rank of each single-party reduced state."""
    return [rank_of(reduced_state(state, (p,))) for p in range(1, state.n + 1)]


def compress_support(state: MultiState) -> CompressionResult:
    """Restrict every party to the range of its reduced state.

    Parties whose reduced state has rank one are removed entirely; rank,
    PPT status and separability are unaffected.  The isometry widths are
    the local ranks.  Reduced states of one size are diagonalized in one
    stacked :func:`spectral` call.  Raises :class:`AllPartiesTrivial`,
    carrying the isometries, when nothing would remain (the state is a
    pure product state).
    """
    n, dims = state.n, state.dims
    t = state.matrix.reshape(dims + dims)
    isometries: list = [None] * n
    ranks = [0] * n
    for dp in dict.fromkeys(dims):
        parties = [p for p in range(1, n + 1) if dims[p - 1] == dp]
        stack = np.empty((len(parties), dp, dp), dtype=complex)
        for out, p in zip(stack, parties):
            np.einsum(_trace_subscripts(n, (p,)), t, out=out)
        sd = spectral(stack)
        for p, eigs, v in zip(parties, sd.eigenvalues, sd.eigenvectors):
            r = _rank_from_eigenvalues(eigs, state.cfg.tol_rank)
            isometries[p - 1] = np.ascontiguousarray(v[:, :r])
            ranks[p - 1] = r
    if all(r == 1 for r in ranks):
        raise AllPartiesTrivial(
            "every single-party reduced state has rank one", tuple(isometries)
        )
    # the Kronecker product of the isometries, one broadcast product per factor
    w = reduce(lambda a, b: (a[:, None, :, None] * b[:, None]).reshape(len(a) * len(b), -1),
               isometries)
    m = w.conj().T @ state.matrix @ w
    m = 0.5 * (m + m.conj().T)
    kept = tuple(p for p in range(1, n + 1) if ranks[p - 1] > 1)
    dropped = tuple(p for p in range(1, n + 1) if ranks[p - 1] == 1)
    new_dims = tuple(ranks[p - 1] for p in kept)
    return CompressionResult(
        state=MultiState(m, new_dims, state.cfg),
        isometries=tuple(isometries),
        kept=kept,
        dropped=dropped,
    )


def _flattenings(x: np.ndarray, dims) -> list[np.ndarray]:
    """Per-party flattenings of the rows of ``x``, each (rows, dp, rest)."""
    t = x.reshape((x.shape[0],) + tuple(dims))
    return [
        np.moveaxis(t, 1 + axis, 1).reshape(x.shape[0], dp, -1)
        for axis, dp in enumerate(dims)
    ]


def _row_kron(factors) -> np.ndarray:
    """Row-wise tensor products of per-party factor rows, each (rows, dp):
    the inverse of :func:`_flattenings` on product rows."""
    return reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1), factors)


def product_factors(v: np.ndarray, dims) -> tuple[np.ndarray, ...]:
    """Per-party factors via sequential leading-singular-vector extraction.

    The tensor product of the returned factors is the best rank-one
    approximation of ``v`` in each sequential split; it reconstructs ``v``
    exactly when ``v`` is a product vector.
    """
    dims = tuple(dims)
    cur = np.asarray(v, dtype=complex).ravel()
    factors = []
    for dp in dims[:-1]:
        m = cur.reshape(dp, -1)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        factors.append(u[:, 0])
        cur = s[0] * vh[0]
    factors.append(cur)
    return tuple(factors)


def is_product(v, dims, tol_product: float = DEFAULT_TOLERANCES.tol_product):
    """Decide whether ``v`` factorizes across every party.

    True iff for each party the flattening with that party's index as rows
    has second singular value at most ``tol_product * ||v||``.  Factors are
    returned on success, ``None`` otherwise.
    """
    dims = tuple(int(x) for x in dims)
    vec = np.asarray(v, dtype=complex).ravel()
    if vec.shape[0] != math.prod(dims):
        raise DimensionMismatch(f"vector length {vec.shape[0]} != prod{dims}")
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ZeroVector("cannot factor the zero vector")
    for m in _flattenings(vec[None, :], dims):
        sv = np.linalg.svd(m[0], compute_uv=False)
        if sv.shape[0] >= 2 and sv[1] > tol_product * norm:
            return False, None
    return True, product_factors(vec, dims)


def assemble_product(factors) -> np.ndarray:
    """Tensor product of per-party factor vectors."""
    return _row_kron([np.asarray(f, dtype=complex).reshape(1, -1) for f in factors])[0]


# --- state JSON -----------------------------------------------------------

def state_to_dict(state: MultiState) -> dict:
    """Dense row-major JSON form: entries as [re, im] pairs."""
    return {"dims": list(state.dims), "matrix": to_pairs(state.matrix)}


def state_from_dict(obj, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> MultiState:
    """Parse and validate the state JSON form; rejects NaN/Inf."""
    if not isinstance(obj, dict) or "dims" not in obj or "matrix" not in obj:
        raise StateFormatError("state JSON must carry 'dims' and 'matrix'")
    dims = obj["dims"]
    if not isinstance(dims, list) or not dims or not all(isinstance(x, int) for x in dims):
        raise StateFormatError("'dims' must be a nonempty list of integers")
    try:
        m = from_pairs(obj["matrix"])
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"'matrix' is not a dense [re, im] grid: {exc}") from exc
    if np.ndim(m) != 2 or m.shape[0] != m.shape[1]:
        raise StateFormatError(f"'matrix' is a {np.shape(m)} grid of pairs, expected (d, d)")
    if not np.all(np.isfinite(m)):
        raise StateFormatError("'matrix' contains NaN or Inf")
    try:
        return new_state(m, dims, cfg)
    except (DimensionMismatch, NotHermitian, NotPositive) as exc:
        raise StateFormatError(str(exc)) from exc
