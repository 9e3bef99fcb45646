"""Chow-free detection of product vectors and separable decompositions.

The searches here are numerical and one-sided: a hit certifies that a
product vector exists (it is exhibited), while "none found" is evidence,
not proof, of a completely entangled subspace.  Every hit, searched or
counted, is finished by the one Gauss-Newton polish (:func:`_polish_hit`)
and certified by an exact SVD.  Every finite product-vector set comes
from one guarded non-Hermitian eigenproblem (:func:`_isolated_eig`).  The
exact counting routine for 5-dimensional kernels in 3 x 3 finds the
candidates as the eigenvalues of a two-parameter eigenproblem
(:func:`_kernel_pv_round`), and answers only when a coordinate change
certifies six distinct transverse product vectors, which by Bezout are
all of them.  Where the range of a state holds exactly as many product
vectors as its rank, they come from the range's flattening minors and a
quadric pencil (:func:`_range_products`), which decomposes separable
states exactly and gives the three-qubit kernel vectors.  Two-qubit
ranges of rank 3 or 4 hold a curve of product vectors instead; Wootters'
closed form (:func:`_wootters_products`) decomposes them into four terms.
The greedy peel (:func:`_peel`) serves what neither covers, with one
stacked :func:`spectral` call and one range split per round; one entry,
:func:`_decompose`, picks among them and lifts and checks every result.
A decomposition term is its weight and factors alone; its vector is
their product.  The layout kernels of ``states`` factor every vector and
sum every set of weighted projectors, so a decomposition's
:meth:`~Decomposition.reconstruct` misses the state by its residual exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .chow import subspace_meets_segre
from .errors import (
    DegenerateConfiguration,
    InconsistentTolerances,
    NotApplicable,
    WrongDimension,
)
from .grassmann import SubspaceBasis
from .ppt import _transpose_gather, is_ppt, subset_representatives
from .states import (
    DEFAULT_TOLERANCES,
    MultiState,
    SpectralData,
    assemble_product,
    spectral,
    _check_seed,
    _factorize,
    _fit_product,
    _flattenings,
    _projector_sum,
    _rank_from_eigenvalues,
    _row_kron,
)

MAX_SWEEPS = 200
NEWTON_MAX_ITERS = 80
SWEEP_EPS = 1e-14
POLISH_RATIO = 1e-3
DEDUP_OVERLAP = 1 - 1e-8
PEEL_RESTARTS = 200


@dataclass(frozen=True)
class ProductVectorHit:
    """A product vector found inside a subspace.

    ``residual`` is the largest second-to-first singular value ratio over
    the party flattenings of ``vector``.
    """

    vector: np.ndarray
    factors: tuple[np.ndarray, ...]
    residual: float


@dataclass(frozen=True)
class DecompositionTerm:
    """``weight`` times the projector onto the product of ``factors``."""

    weight: float
    factors: tuple[np.ndarray, ...]

    @property
    def vector(self) -> np.ndarray:
        return assemble_product(self.factors)


@dataclass(frozen=True)
class Decomposition:
    """Sum of pure product states reproducing a state up to ``residual``.

    ``length_upper_bound`` is the number of terms achieved, an upper
    bound on the true minimal length.
    """

    residual: float
    length_upper_bound: int
    terms: tuple[DecompositionTerm, ...]

    def reconstruct(self) -> np.ndarray:
        """The terms' sum, ``residual`` from the decomposed state exactly."""
        rows = np.array([term.vector for term in self.terms])
        return _projector_sum(rows, np.array([term.weight for term in self.terms]))


def _product_residuals(
    x: np.ndarray, dims, leads: list[np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Batched per-party power step: leading factors, gap measure, ratio bounds.

    Each party's lead takes one power step u <- m (m^H u) on its flattening
    m, warm-started from ``leads`` (the previous pass's leads of the same
    rows) or, without them, from the flattening's largest column.  Rows are
    unit vectors, so each flattening's squared singular values sum to 1;
    with lam = |m^H u|^2 <= s1^2, the tail mass 1 - lam bounds s2^2, and
    sqrt((1 - lam) / lam) bounds s2/s1 from above.  Enough to steer a sweep,
    not to certify a product vector (see :func:`~sep4.states._factorize`).
    """
    rows = x.shape[0]
    ratios = np.zeros(rows)
    gap = np.zeros(rows)
    new_leads = []
    for p, m in enumerate(_flattenings(x, dims)):
        if leads is None:
            col = np.argmax((m.real**2 + m.imag**2).sum(axis=1), axis=1)
            u = m[np.arange(rows), :, col]
        else:
            u = leads[p]
        mh = m.conj().transpose(0, 2, 1)
        u = (m @ (mh @ u[:, :, None]))[:, :, 0]
        u /= np.maximum(np.linalg.norm(u, axis=1), 1e-300)[:, None]
        z = mh @ u[:, :, None]
        lam = (z.real**2 + z.imag**2).sum(axis=(1, 2))
        new_leads.append(u)
        tail = np.maximum(1.0 - lam, 0.0)
        gap += tail
        ratios = np.maximum(ratios, np.sqrt(tail / np.maximum(lam, 1e-300)))
    return ratios, gap, new_leads


def _alternate_to_product(
    coeffs: np.ndarray, onb: np.ndarray, dims, polish
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, ProductVectorHit | None]:
    """Alternate nearest-product and subspace-projection steps.

    ``coeffs`` are rows of unit coefficient vectors in the orthonormal
    row basis ``onb``.  Each pass takes every party's leading vector by
    one power step warm-started from the previous pass
    (:func:`_product_residuals`) and projects their product back onto the
    subspace.  A row whose gap measure moves by less than ``SWEEP_EPS`` is
    frozen and no longer computed.  ``polish`` maps a vector to a
    certified hit or ``None``; after each pass it receives, once and in
    row order, every row whose ratio bound has just reached
    ``POLISH_RATIO``, and its first hit ends the sweep.  Returns the final
    vectors, their exact (SVD) ratios (``None`` with a hit, which needs
    none), the mask of rows polished and the hit.  Convergence near
    tangential intersections is slow, so callers polish the best remaining
    rows too.
    """
    onb_proj = onb.conj().T
    x = coeffs @ onb
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    tried = np.zeros(x.shape[0], dtype=bool)
    gap_prev = np.full(x.shape[0], np.inf)
    active = np.arange(x.shape[0])
    leads = None
    hit = None
    for _ in range(MAX_SWEEPS):
        ratios, gap, leads = _product_residuals(x[active], dims, leads)
        fresh = active[(ratios <= POLISH_RATIO) & ~tried[active]]
        tried[fresh] = True
        hit = next((h for h in map(polish, x[fresh]) if h is not None), None)
        if hit is not None:
            break
        moving = np.abs(gap_prev[active] - gap) >= SWEEP_EPS
        gap_prev[active] = gap
        active = active[moving]
        if active.size == 0:
            break
        leads = [lead[moving] for lead in leads]
        c = _row_kron(leads) @ onb_proj
        norms = np.linalg.norm(c, axis=1)
        stuck = norms < 1e-12
        if np.any(stuck):
            c[stuck] = x[active[stuck]] @ onb_proj
            norms[stuck] = np.linalg.norm(c[stuck], axis=1)
        x[active] = (c / norms[:, None]) @ onb
    if hit is not None:
        return x, None, tried, hit
    return x, _factorize(x, dims)[1], tried, hit


def _truncated_step(jac: np.ndarray, rhs: np.ndarray, residual: float):
    """Gauss-Newton step keeping only well-separated singular directions.

    Rescaling gauges (and, near tangential roots, their neighbours)
    produce singular values that scale with the residual itself; keeping
    them turns the minimum-norm step into a useless radial move, so
    everything below ``10 * residual`` (capped) is cut.
    """
    u, s, vh = np.linalg.svd(jac, full_matrices=False)
    if s[0] == 0.0:
        return None
    thresh = min(0.25 * s[0], 10.0 * residual)
    keep = s > thresh
    if not np.any(keep):
        return None
    coeffs = (u[:, keep].conj().T @ rhs) / s[keep]
    return vh[keep].conj().T @ coeffs


def _polish_hit(vec, onb, blocks, dims, tol_product) -> ProductVectorHit | None:
    """Polish ``vec`` into a certified product vector obeying ``blocks``, or ``None``.

    Gauss-Newton (:func:`_compatible_newton`) from the factors of ``vec``,
    then projection onto the span of the orthonormal rows ``onb``; the hit
    counts only when the exact SVD ratio of the projected vector is at
    most ``tol_product``.
    """
    factors = _compatible_newton([f[0] for f in _factorize(vec[None, :], dims)[0]], blocks, dims)
    if factors is None:
        return None
    vec = (assemble_product(factors) @ onb.conj().T) @ onb
    nrm = np.linalg.norm(vec)
    if nrm < 1e-8:
        return None
    vec = vec / nrm
    factors, ratios = _factorize(vec[None, :], dims)
    if ratios[0] > tol_product:
        return None
    return ProductVectorHit(vector=vec, factors=_fit_product(factors, vec),
                            residual=float(ratios[0]))


def _search_product_vector(onb, blocks, dims, restarts, seed, chunk_size, cutoff, tol_product):
    """Seeded restart search for a product vector obeying ``blocks``.

    ``onb`` is an orthonormal row basis of the subspace searched and
    ``blocks`` the conditions of :func:`_compatible_newton`, the subspace's
    own ``()`` block among them.  Chunks of ``chunk_size`` random starts are
    swept; rows are polished (:func:`_polish_hit`) as they reach
    ``POLISH_RATIO`` inside the sweep, and after it the best 12 rows not
    yet polished whose ratio is at most ``cutoff``.
    """

    def polish(vec):
        return _polish_hit(vec, onb, blocks, dims, tol_product)

    rng = np.random.default_rng(seed)
    shape = (restarts, onb.shape[0])
    starts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    for lo in range(0, restarts, chunk_size):
        x, ratios, tried, hit = _alternate_to_product(
            starts[lo : lo + chunk_size], onb, dims, polish=polish
        )
        if hit is not None:
            return hit
        untried = np.flatnonzero(~tried)
        best = untried[np.argsort(ratios[untried])[:12]]
        for idx in sorted(int(i) for i in best if ratios[i] <= cutoff):
            hit = polish(x[idx])
            if hit is not None:
                return hit
    return None


def find_product_vector(
    basis: SubspaceBasis,
    restarts: int = 200,
    seed: int = 0,
    chunk_size: int = 64,
) -> ProductVectorHit | None:
    """Search for a product vector in the span of ``basis``.

    Runs alternating power-step sweeps from ``restarts`` seeded random
    starts, in chunks of ``chunk_size``, and finishes promising rows with
    Gauss-Newton as soon as their flattening ratio bound reaches
    ``POLISH_RATIO``.  Returns the first certified hit found, in sweep
    order rather than restart order, whose residual reaches
    ``DEFAULT_TOLERANCES.tol_product``; ``None`` after exhausting all
    starts.  A ``None`` is evidence, not proof, that the subspace is
    completely entangled.
    Raises :class:`InvalidSeed`, before any sweep, unless ``restarts`` and
    ``seed`` are non-negative integers and ``chunk_size`` is a positive
    one: a chunk of no start would sweep nothing and make that ``None``
    meaningless.
    """
    _check_seed(restarts, "restarts")
    _check_seed(seed)
    _check_seed(chunk_size, "chunk_size", positive=True)
    k = basis.k
    if k == 0:
        return None
    _, _, vh = np.linalg.svd(basis.rows, full_matrices=True)
    blocks = [((), vh[k:])]
    return _search_product_vector(
        vh[:k], blocks, basis.dims, restarts, seed, chunk_size, 0.25, DEFAULT_TOLERANCES.tol_product
    )


def check_general_position(factor_lists, dims) -> bool:
    """General-position test for a tuple of product vectors.

    For every party j and every subset of at most ``d_j`` vectors, the
    party-j factors must be linearly independent (smallest singular value
    above 1e-8 times the largest).
    """
    dims = tuple(int(x) for x in dims)
    m = len(factor_lists)
    if m == 0:
        return True
    for j, dj in enumerate(dims):
        vecs = []
        for factors in factor_lists:
            f = np.asarray(factors[j], dtype=complex).ravel()
            vecs.append(f / np.linalg.norm(f))
        size = min(dj, m)
        for pick in combinations(range(m), size):
            mat = np.column_stack([vecs[i] for i in pick])
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv[-1] <= 1e-8 * sv[0]:
                return False
    return True


# --- greedy separable decomposition ---------------------------------------


def _subset_conjugate(factors, subset) -> list:
    """``factors`` with those of the parties in ``subset`` conjugated: the
    factors of the vector whose projector is the partial transpose over
    ``subset`` of the projector onto the product of ``factors``."""
    return [np.conj(f) if (i + 1) in subset else f for i, f in enumerate(factors)]


def _compatible_newton(factors, condition_blocks, dims):
    """Gauss-Newton for product vectors obeying conjugate-membership conditions.

    ``condition_blocks`` is a list of (subset, rows) pairs: the product of
    the factors, with the factors of the named parties conjugated, must be
    annihilated by ``rows.conj()``.  The subset () block keeps the vector
    inside the working subspace; alone, it makes this the plain polish of a
    product vector in a subspace.  Nonempty subsets keep its conjugates
    inside the ranges of the corresponding partial transposes.  The mixed
    holomorphic/antiholomorphic system is solved over real and imaginary
    parts; from the seeds the alternating sweeps provide it converges
    quadratically, so iteration stops once the residual norm has failed to
    halve over 8 iterations.  Returns unit factors or ``None``.
    """
    norms = [np.linalg.norm(f) for f in factors]
    if min(norms) < 1e-12:
        return None
    factors = [np.asarray(f, dtype=complex) / nrm for f, nrm in zip(factors, norms)]
    sizes = [int(d) for d in dims]
    edges = np.cumsum([0] + sizes)
    # each annihilator as its party flattenings, (rows, dp, other parties)
    blocks = [
        (subset, _flattenings(rows.conj(), sizes))
        for subset, rows in condition_blocks
        if rows.shape[0]
    ]
    if not blocks:
        return tuple(factors)

    def system(factors):
        """Residual, holomorphic and antiholomorphic Jacobians."""
        fvals, hol, antihol = [], [], []
        for subset, mats in blocks:
            g = _subset_conjugate(factors, subset)
            h = np.zeros((mats[0].shape[0], edges[-1]), dtype=complex)
            a = np.zeros_like(h)
            for i, m in enumerate(mats):
                others = g[:i] + g[i + 1 :]
                part = m @ assemble_product(others) if others else m[:, :, 0]
                (a if (i + 1) in subset else h)[:, edges[i] : edges[i + 1]] = part
            fvals.append(part @ g[-1])
            hol.append(h)
            antihol.append(a)
        return np.concatenate(fvals), np.vstack(hol), np.vstack(antihol)

    norms = []
    for _ in range(NEWTON_MAX_ITERS):
        fval, hol, antihol = system(factors)
        norms.append(float(np.linalg.norm(fval)))
        # stop once |f| has failed to halve over the last 8 iterations
        if norms[-1] < 1e-13 or (len(norms) > 8 and norms[-1] > 0.5 * norms[-9]):
            break
        jac = np.vstack([
            np.hstack([np.real(hol + antihol), -np.imag(hol - antihol)]),
            np.hstack([np.imag(hol + antihol), np.real(hol - antihol)]),
        ])
        rhs = np.concatenate([fval.real, fval.imag])
        step = _truncated_step(jac, rhs, norms[-1])
        if step is None or not np.all(np.isfinite(step)):
            return None
        nrm = np.linalg.norm(step)
        if nrm > 1.0:
            step = step / nrm
        delta = step[: edges[-1]] + 1j * step[edges[-1] :]
        for i in range(len(factors)):
            f = factors[i] - delta[edges[i] : edges[i + 1]]
            nrm = np.linalg.norm(f)
            if nrm < 1e-8:
                return None
            factors[i] = f / nrm
    if np.linalg.norm(system(factors)[0]) > 1e-11:
        return None
    return tuple(factors)


def _peel_weight(factors, subsets, sd: SpectralData, ranks) -> float:
    """Largest t keeping every operator of ``sd`` PSD less t times the
    projector onto its subset-conjugate of the product of ``factors``; 0
    once a conjugate leaves its operator's range.  Operator j is the partial
    transpose over ``subsets[j]``, its range its first ``ranks[j]`` eigenpairs.
    """
    denoms = []
    for subset, eigs, vecs, r in zip(subsets, sd.eigenvalues, sd.eigenvectors, ranks):
        vec = assemble_product(_subset_conjugate(factors, subset))
        comp = vecs[:, :r].conj().T @ vec
        norm2 = np.linalg.norm(vec) ** 2
        if norm2 - np.linalg.norm(comp) ** 2 > 1e-12 * norm2:
            return 0.0
        denoms.append(float(np.sum(np.abs(comp) ** 2 / eigs[:r])))
    return 1.0 / max(denoms) if min(denoms) > 0.0 else 0.0


def _find_peelable_product_vector(sd: SpectralData, ranks, subsets, dims, cfg, seed: int):
    """Product vector in the range whose conjugates fit every transpose range.

    A product vector can be subtracted without breaking the PPT property
    only when, for each party subset, its subset-conjugate lies in the
    range of the corresponding partial transpose; random members of the
    range's product-vector family generally fail this, so the alternating
    candidates are polished against the full compatibility system.
    ``sd`` stacks the :func:`spectral` decompositions of the partial
    transposes over ``subsets``, which starts with ``()``, the remainder
    itself.  The first ``ranks[j]`` eigenvectors of operator j span its
    range; the others are its conjugate-membership block.
    """
    if ranks[0] == 0:
        return None
    vecs = sd.eigenvectors
    onb = np.ascontiguousarray(vecs[0, :, : ranks[0]].T)
    blocks = [(s, v[:, r:].T) for s, v, r in zip(subsets, vecs, ranks)]
    return _search_product_vector(onb, blocks, dims, PEEL_RESTARTS, seed, 64, 0.3, cfg.tol_product)


def _peel(matrix: np.ndarray, dims, cfg, max_terms: int, seed: int):
    """Peel pure product states off ``matrix`` in one pass of at most ``max_terms``.

    Each round finds a product vector phi in the range of the remainder
    and subtracts it with the largest weight that keeps every partial
    transpose of the remainder positive (phi being product, its
    projector transposes to the projector onto the party-conjugated
    vector, so each bound is a pseudo-inverse quadratic form).  Keeping
    the remainder PPT rather than merely positive prevents the peel from
    overshooting into entangled remainders.  A round makes one stacked
    :func:`spectral` call on the remainder and its representative partial
    transposes; each operator's range, as many leading eigenvectors as
    :func:`~sep4.states._rank_from_eigenvalues` counts (the weight keeps
    every operator PSD), serves the search and the weight alike.
    The pass stops once the remainder's Frobenius norm is at most
    ``1e-8 * trace`` and is not retried.  Returns the unit rows phi and
    their weights, or ``None`` at the first round that finds no peelable
    product vector or no positive weight; the caller judges the residual.
    """
    target = 1e-8 * float(np.trace(matrix).real)
    subsets = subset_representatives(len(dims))
    remainder = np.array(matrix)
    rows, weights = [], []
    for step in range(max_terms):
        if np.linalg.norm(remainder) <= target:
            break
        sd = spectral(remainder.ravel()[_transpose_gather(dims)])
        ranks = [_rank_from_eigenvalues(eigs, cfg.tol_rank) for eigs in sd.eigenvalues.tolist()]
        hit = _find_peelable_product_vector(sd, ranks, subsets, dims, cfg, seed + 101 * step)
        if hit is None:
            return None
        weight = _peel_weight(hit.factors, subsets, sd, ranks)
        if not np.isfinite(weight) or weight <= 0.0:
            return None
        phi = assemble_product(hit.factors)
        remainder = remainder - _projector_sum(phi[None, :], weight)
        remainder = 0.5 * (remainder + remainder.conj().T)
        norm = np.linalg.norm(phi)
        rows.append(phi / norm)
        weights.append(weight * norm**2)
    if not rows:
        return None
    return np.array(rows), np.array(weights)


def greedy_decompose(state: MultiState, max_terms: int = 8, seed: int = 0) -> Decomposition | None:
    """One peel pass (:func:`_peel`) of at most ``max_terms`` terms on
    ``state`` itself, lifted and checked by :func:`_decompose`; ``None``
    when the pass fails or its terms miss ``state`` by more than
    ``1e-8 * trace``.  A ``None`` does not refute separability.
    """
    _check_seed(seed)
    identity = tuple(np.eye(dp) for dp in state.dims)
    return _decompose(state, identity, state, None, 0, max_terms, seed)


# --- the finite product-vector sets: one guarded eigenproblem --------------

_GAP = 1e-6


def _isolated_eig(a: np.ndarray, b: np.ndarray):
    """Eigenvalues, unit eigenvectors and a^-1 of b a^-1, or ``None``.

    ``None`` when a's 1-norm condition number reaches 1 / ``_GAP``, when
    two eigenvalues lie within ``_GAP`` of each other relative to the
    largest, or when LAPACK raises: the eigenvectors are then not
    isolated well enough to name one point each.
    """
    try:
        a_inv = np.linalg.inv(a)
        if np.abs(a).sum(0).max() * np.abs(a_inv).sum(0).max() * _GAP >= 1.0:
            return None
        vals, vecs = np.linalg.eig(b @ a_inv)
    except np.linalg.LinAlgError:
        return None
    gaps = np.abs(np.subtract.outer(vals, vals))[~np.eye(vals.size, dtype=bool)]
    if gaps.min() < _GAP * np.abs(vals).max():
        return None
    vecs /= np.linalg.norm(vecs, axis=0)
    return vals, vecs, a_inv


# --- exact decomposition from the range's quadrics -------------------------
#
# A vector is product exactly when every 2 x 2 minor of every party flattening
# vanishes.  On x = V c, with V an orthonormal basis of a rank-r range, each
# minor is a quadratic form c^T Q c, that is a linear functional <Q, S> on the
# symmetric r x r matrix S = c c^T.  When the range holds exactly r product
# vectors V c_i and the minors cut them out in degree two, the symmetric S
# annihilated by every minor are exactly span{c_i c_i^T} = {C D C^T}.  For two
# generic members Z_g, Z_h of that span, Z_h Z_g^-1 = C (D_h D_g^-1) C^-1, so
# one eigenproblem returns every c_i (De Lathauwer, SIAM J. Matrix Anal. Appl.
# 28, 642, 2006; it extends the pencil of Horodecki, Lewenstein, Vidal &
# Cirac, PRA 62, 032310, 2000).  A range with a curve of product vectors, as
# in two qubits at rank 3 or 4, leaves a larger null space and is declined;
# :func:`_decompose` sends those two-qubit ranges to Wootters' closed form
# (below) instead.


@lru_cache(maxsize=64)
def _quadric_maps(dims: tuple[int, ...], r: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (u, w, y, z) of every 2 x 2 flattening minor
    x_u x_w - x_y x_z of a vector on ``dims``, one row per minor, and the
    0/1 map from the r x r entries (a, b) to the monomials c_a c_b, a <= b.

    The last party's flattening is left out: its minors lie in the span of
    the others' (with two parties it is the first one transposed).  The
    map's transpose sends a monomial vector back to its symmetric matrix.
    """
    minors = []
    # the flattenings of the one row holding every flat index
    for (m,) in _flattenings(np.arange(math.prod(dims))[None, :], dims)[:-1]:
        i, k = np.triu_indices(m.shape[0], 1)
        j, l = np.triu_indices(m.shape[1], 1)
        i, k = i[:, None], k[:, None]
        minors.append(np.stack([m[i, j], m[k, l], m[i, l], m[k, j]], axis=-1).reshape(-1, 4))
    ta, tb = np.triu_indices(r)
    sym = np.zeros((r * r, ta.size))
    sym[ta * r + tb, np.arange(ta.size)] = sym[tb * r + ta, np.arange(ta.size)] = 1.0
    return (np.concatenate(minors) if minors else np.zeros((0, 4), dtype=int)), sym


@lru_cache(maxsize=64)
def _pencil_mix(seed: int, r: int) -> np.ndarray:
    """The 2 x r complex Gaussian rows that mix two members of the pencil:
    the first draw of ``np.random.default_rng(seed)``, built once."""
    rng = np.random.default_rng(seed)
    gh = rng.standard_normal((2, r)) + 1j * rng.standard_normal((2, r))
    gh.setflags(write=False)
    return gh


def _range_products(vecs, eigs, dims, seed: int):
    """The product vectors of the range of ``vecs diag(eigs) vecs^H``, with
    their weights, or ``None``.

    ``vecs`` has r orthonormal columns and ``eigs`` r positive values.
    Returns the r unit vectors as rows and the diagonal of
    C^-1 diag(eigs) C^-H, C = vecs^H psi, which is positive: the weights if
    they reconstruct the operator, which is left to the caller.  ``None``
    unless the minors' null space has dimension exactly r with a singular
    value gap of ``_GAP`` and :func:`_isolated_eig` accepts (Z_g, Z_h),
    which are mixed from the null space by :func:`_pencil_mix` of ``seed``.
    """
    r = vecs.shape[1]
    k = r * (r + 1) // 2 - r
    minors, sym = _quadric_maps(tuple(dims), r)
    if k == 0 or minors.shape[0] < k:
        return None
    # each minor as a row over the monomials c_a c_b, a <= b, of x = vecs @ c
    u, w, y, z = vecs[minors.T]
    quad = (u[:, :, None] * w[:, None, :] - y[:, :, None] * z[:, None, :]).reshape(-1, r * r) @ sym
    try:
        _, s, vh = np.linalg.svd(quad, full_matrices=quad.shape[0] < quad.shape[1])
        if s[k - 1] <= _GAP * s[0] or np.any(s[k:] > _GAP * s[0]):
            return None
        found = _isolated_eig(*(_pencil_mix(seed, r) @ vh[k:].conj() @ sym.T).reshape(2, r, r))
        if found is None:
            return None
        coeffs = found[1]
        weights = np.abs(np.linalg.inv(coeffs)) ** 2 @ eigs
    except np.linalg.LinAlgError:
        return None
    return (vecs @ coeffs).T, weights


# --- two qubits: Wootters' closed form ------------------------------------
#
# A two-qubit vector psi is product exactly when psi^T S psi = 0, with
# S = sigma_y (x) sigma_y (the form is -2 det of psi as a 2 x 2 matrix).  Write
# rho = X X^H, X = V diag(sqrt(lambda)) over the r nonzero eigenvalues, and
# Takagi-factor tau = X^T S X = W diag(s) W^T.  The columns of Y = X conj(W)
# reproduce rho and have Y^T S Y = diag(s).  Given phases with
# sum_j s_j e^{i theta_j} = 0, the columns of Y diag(e^{i theta / 2}) mixed
# by the real 4 x 4 Hadamard matrix over 2 still reproduce rho, and each has
# psi^T S psi = sum_j s_j e^{i theta_j} / 4 = 0 (Wootters, PRL 80, 2245,
# 1998).  The phases close a triangle with sides s_1, s_2 and s_3 + s_4
# (sorted descending), which exists exactly when the concurrence
# max(0, s_1 - s_2 - s_3 - s_4) vanishes, for two qubits exactly when the
# state is PPT.  At rank 3 or 4 the r nonzero columns of Y are independent,
# so no mixed column vanishes.

_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
_HADAMARD_4 = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]]) / 2


def _takagi(tau: np.ndarray) -> np.ndarray:
    """Unitary W with W^H tau conj(W) diagonal, for complex symmetric ``tau``.

    The real symmetric embedding [[Re tau, Im tau], [Im tau, -Re tau]] has
    eigenvalues +-s_j; an eigenvector (x, y) of s_j >= 0 gives the column
    x + i y.  QR re-orthonormalizes them, which completes the columns where
    zero singular values put +- pairs into one eigenspace.
    """
    r = tau.shape[0]
    emb = np.block([[tau.real, tau.imag], [tau.imag, -tau.real]])
    top = spectral(emb).eigenvectors[:, :r]
    return np.linalg.qr(top[:r] + 1j * top[r:])[0]


def _wootters_products(vecs, eigs, tol_psd: float):
    """Four product vectors of a two-qubit range and their weights, which
    reconstruct ``vecs diag(eigs) vecs^H`` (r = 3 or 4 columns).

    Returns unit rows and positive weights, as :func:`_range_products`
    does.  A concurrence-like excess s_1 - s_2 - s_3 - s_4 above zero means
    no closing phases exist: within ``tol_psd * eigs[0]`` the triangle is
    clamped flat and the rows are product only up to that excess, which
    the caller's flattening check judges; beyond it the operator is
    entangled and :class:`InconsistentTolerances` is raised.
    """
    x = vecs * np.sqrt(eigs)
    y = np.zeros((4, 4), dtype=complex)
    y[:, : x.shape[1]] = x @ _takagi(x.T @ _SIGMA_YY @ x).conj()
    # y_j^T S y_j = d_j, zero on the padding
    d = np.einsum("ij,ik,kj->j", y, _SIGMA_YY, y)
    s = np.abs(d)
    order = np.argsort(-s)
    a, b, c = s[order[0]], s[order[1]], s[order[2]] + s[order[3]]
    excess = a - b - c
    if excess > tol_psd * eigs[0]:
        raise InconsistentTolerances(
            f"tolerance bug: two-qubit state called separable has concurrence excess "
            f"{excess:.3e} above tol_psd * lambda_max = {tol_psd * eigs[0]:.3e}"
        )
    cos_b = -1.0
    if a * b > 0:
        cos_b = np.clip((c * c - a * a - b * b) / (2 * a * b), -1.0, 1.0)
    turn_b = complex(cos_b, math.sqrt(1.0 - cos_b * cos_b))
    rest = -(a + b * turn_b)
    turn_c = rest / abs(rest) if abs(rest) > 0 else 1.0
    turns = np.empty(4, dtype=complex)
    turns[order] = [1.0, turn_b, turn_c, turn_c]
    # rotate each y_j^T S y_j from d_j to s_j e^{i theta_j}, then mix
    phi = (y * np.sqrt(turns * np.exp(-1j * np.angle(d))) @ _HADAMARD_4).T
    weights = np.linalg.norm(phi, axis=1) ** 2
    return phi / np.sqrt(weights)[:, None], weights


def _decompose(state, isometries, small, sd, rank, max_terms, seed) -> Decomposition | None:
    """The one decomposition path: product rows and weights from the first
    source that applies, factored, lifted and checked; or ``None``.

    ``isometries`` compress ``state`` to ``small`` (``None`` when every
    party is dropped), whose :func:`spectral` decomposition ``sd`` has rank
    ``rank``.  The sources: the dropped parties' product; the spectrum of
    a single kept party or of a rank-1 range; Wootters' closed form on two
    qubits at rank 3 or 4; the range's quadrics; else, or without ``sd``,
    one :func:`_peel` pass of at most ``max_terms`` terms on ``small``.
    Rows from one source are not retried on another: they are the range's
    product vectors.  A row is declined when a flattening ratio over the
    parties of dimension above 1 exceeds ``tol_product``, the terms when
    they miss ``state`` by more than ``1e-8 * trace`` in Frobenius norm.
    All runs on the operators divided by 2^k, k even, near the trace:
    exact, with sqrt(eigenvalues) scaling exactly, so no scale overflows
    or underflows; weights and residual are scaled back at the end.  On a
    subnormal trace k stops at -1022, even, so that 2^-k stays finite.
    """
    trace = state.trace
    k = max(-1022, 2 * (math.frexp(trace)[1] // 2))
    unit = math.ldexp(1.0, -k)
    dims = () if small is None else small.dims
    found = None
    if small is None:
        found = np.ones((1, 1)), np.array([trace * unit])
    elif sd is not None:
        vecs, eigs = sd.eigenvectors[:, :rank], sd.eigenvalues[:rank] * unit
        if len(dims) == 1 or rank == 1:
            found = vecs.T, eigs
        elif dims == (2, 2) and rank >= 3:
            found = _wootters_products(vecs, eigs, small.cfg.tol_psd)
        else:
            found = _range_products(vecs, eigs, dims, seed)
    if found is None:
        found = _peel(small.matrix * unit, dims, small.cfg, max_terms, seed)
    if found is None:
        return None
    psi, weights = found
    local, ratios = _factorize(psi, dims)
    if np.any(ratios > state.cfg.tol_product):
        return None
    count = len(weights)
    local = iter(f for f in local if f.shape[1] > 1)
    factors = [
        next(local) @ w.T if w.shape[1] > 1 else w[:, 0][None].repeat(count, 0)
        for w in isometries
    ]
    lifted = _row_kron(factors)
    residual = float(np.linalg.norm(state.matrix * unit - _projector_sum(lifted, weights)))
    if residual > 1e-8 * trace * unit:
        return None
    terms = tuple(
        DecompositionTerm(math.ldexp(float(w), k), tuple(f[i] for f in factors))
        for i, w in enumerate(weights)
    )
    return Decomposition(residual=math.ldexp(residual, k), length_upper_bound=count, terms=terms)


# --- exact kernel product-vector counting on 3 x 3 -------------------------
#
# Product vectors |a, b> in a 5-dim kernel K satisfy four bilinear
# conditions a^T M_j b = 0 built from the 4-dim orthocomplement.  A
# nontrivial b exists iff the 4 x 3 matrix C(a) with rows a^T M_j has rank
# below 3.  After a random projective change of coordinates a = T (1, s, t),
# C = C_0 + s C_1 + t C_2 is linear, and so are its rows 1-3,
# A = A_0 + s A_1 + t A_2, and its rows 0, 2 and 3, B.  The two cubic curves
# det A = 0 and det B = 0 meet in nine points: the six product vectors and
# the three where rows 2 and 3 alone are dependent.  They are the
# eigenvalues of the two-parameter problem A x = 0, B y = 0 (Atkinson,
# Multiparameter Eigenvalue Problems, 1972): with the operator determinants
# D_0 = A_1 (x) B_2 - A_2 (x) B_1, D_1 = A_2 (x) B_0 - A_0 (x) B_2 and
# D_2 = A_0 (x) B_1 - A_1 (x) B_0, x (x) y is an eigenvector of D_0^-1 D_1
# with eigenvalue s and of D_0^-1 D_2 with eigenvalue t, so w = D_0 (x (x) y)
# is one of D_1 D_0^-1 with eigenvalue s and of D_2 D_0^-1 with eigenvalue t.


def _transverse(a: np.ndarray, b: np.ndarray, bilinear: np.ndarray) -> bool:
    """Whether the kernel meets the Segre cone transversally at a (x) b.

    The cone's tangent space at a (x) b, spanned by e_i (x) b and
    a (x) e_j, must meet the kernel only in the line of the hit: the four
    conditions M_j have rank 4 on it (the 4 x 6 matrix [M_j b | a^T M_j]).
    """
    sv = np.linalg.svd(np.hstack([bilinear @ b, a @ bilinear]), compute_uv=False)
    return sv[3] > _GAP * sv[0]


def _null_factor(a: np.ndarray, bilinear: np.ndarray) -> np.ndarray | None:
    """Unit b with a^T M_j b = 0 for every condition M_j, or ``None`` if the
    conditions have full rank at ``a``."""
    _, sv, vh = np.linalg.svd(a @ bilinear)
    if sv[-1] > _GAP * sv[0]:
        return None
    return vh[-1].conj()


def _kernel_pv_round(complement, onb, rng):
    """One coordinate-change round: six certified hits, or ``None``.

    ``None`` when :func:`_isolated_eig` declines (D_0, D_1).  Otherwise the
    round certifies its answer only when the nine points yield six distinct
    polished hits, each a transverse intersection; a degree-6 intersection
    has no room for a seventh.
    """
    bilinear = complement.conj().reshape(4, 3, 3)
    t_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    # c[k] multiplies (1, s, t)[k] in C(T (1, s, t))
    c = np.einsum("ak,jab->kjb", t_mat, bilinear)
    a_k, b_k = c[:, 1:], c[:, [0, 2, 3]]
    d0, d1, d2 = (
        np.kron(a_k[i], b_k[j]) - np.kron(a_k[j], b_k[i]) for i, j in ((1, 2), (2, 0), (0, 1))
    )
    found = _isolated_eig(d0, d1)
    if found is None:
        return None
    s_vals, w, d0_inv = found
    # each t is the Rayleigh quotient w^H D_2 D_0^-1 w of a unit w
    t_vals = np.sum(w.conj() * (d2 @ d0_inv @ w), axis=0)

    blocks = [((), complement)]
    hits: list[ProductVectorHit] = []
    for s0, t0 in zip(s_vals, t_vals):
        a = t_mat @ np.array([1.0, s0, t0])
        a /= np.linalg.norm(a)
        b = _null_factor(a, bilinear)
        if b is None:
            continue
        hit = _polish_hit(assemble_product((a, b)), onb, blocks, (3, 3), 1e-8)
        if hit is not None and all(
            abs(np.vdot(h.vector, hit.vector)) <= DEDUP_OVERLAP for h in hits
        ):
            hits.append(hit)
    if len(hits) != 6 or not all(_transverse(*h.factors, bilinear) for h in hits):
        return None
    return hits


def _phase_free_key(v: np.ndarray) -> tuple[float, ...]:
    """Rounded real and imaginary coordinates of ``v`` turned so that its
    largest entry is real and positive: a sort key that the phase of ``v``,
    which a near-null singular vector takes from LAPACK, does not move."""
    lead = v[np.argmax(np.abs(v))]
    u = v * (abs(lead) / lead)
    return tuple(np.round(np.concatenate([u.real, u.imag]), 6))


def count_kernel_product_vectors_3x3(
    kernel: SubspaceBasis, seed: int = 0
) -> list[ProductVectorHit]:
    """All product vectors in a 5-dimensional kernel of a 3 x 3 system.

    Returns the six vectors of the first of at most three random
    coordinate changes whose round certifies them: isolated eigenvalues,
    six distinct hits polished by Gauss-Newton to a flattening ratio at
    most 1e-8, each a transverse intersection.  By Bezout these are all
    of them, since the Segre variety P2 x P2 has degree 6.
    :class:`DegenerateConfiguration` is raised when no round certifies,
    as on kernels whose product vectors are not isolated.
    """
    _check_seed(seed)
    if kernel.dims != (3, 3) or kernel.k != 5:
        raise WrongDimension(
            f"expected a 5-dim subspace of dims (3, 3), got k={kernel.k}, dims={kernel.dims}"
        )
    _, _, vh = np.linalg.svd(kernel.rows)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        hits = _kernel_pv_round(vh[5:], vh[:5], rng)
        if hits is not None:
            return sorted(hits, key=lambda h: _phase_free_key(h.vector))
    raise DegenerateConfiguration(
        "no coordinate change certified six distinct transverse product vectors"
    )


# --- the four bipartite kernel product vectors of a 2x2x2 entangled state --


def bipartite_kernel_product_vectors_2x2x2(
    state: MultiState, cut: int, seed: int = 0
) -> list[np.ndarray]:
    """The four kernel product vectors across one cut of a three-qubit PPTES.

    Writes the state as a sum of four pure product states across the
    ``cut`` : rest split (the four product vectors its range contains),
    builds the basis reciprocal to the rest-side vectors, and returns the
    four kernel vectors (orthogonal cut factor) x (reciprocal vector) in
    the original party order.  Raises :class:`NotApplicable` unless the
    state is a 2x2x2 PPT state of rank four (both read off
    :func:`~sep4.ppt.is_ppt`) with completely entangled range.
    """
    _check_seed(seed)
    if state.dims != (2, 2, 2):
        raise NotApplicable(f"state dims {state.dims} are not (2, 2, 2)")
    if cut not in (1, 2, 3):
        raise NotApplicable(f"cut must be 1, 2 or 3, got {cut}")
    report = is_ppt(state)
    if report.records[0].rank != 4:
        raise NotApplicable("state does not have rank four")
    if not report.is_ppt:
        raise NotApplicable("state is not PPT")
    sd = spectral(state)
    meets, _ = subspace_meets_segre(
        SubspaceBasis(sd.eigenvectors[:, :4].T, state.dims), state.cfg
    )
    if meets:
        raise NotApplicable("range contains a product vector (state is separable)")

    # the cut party's flattening of the flat indices puts that party first
    perm = _flattenings(np.arange(8)[None, :], state.dims)[cut - 1].ravel()
    matrix = state.matrix[np.ix_(perm, perm)]
    found = _range_products(sd.eigenvectors[perm, :4], sd.eigenvalues[:4], (2, 4), seed)
    if found is None:
        raise NotApplicable("could not isolate four range product vectors")
    # weights that reconstruct the state certify the decomposition
    psi, weights = found
    if np.linalg.norm(_projector_sum(psi, weights) - matrix) > 1e-7 * np.linalg.norm(matrix):
        raise NotApplicable("state is not a sum of four product states across the cut")
    (cut_factors, rest_vectors), _ = _factorize(psi, (2, 4))

    reciprocal = np.linalg.inv(rest_vectors.T).conj()
    out = []
    for a, r in zip(cut_factors, reciprocal):
        vec = np.empty(8, dtype=complex)
        vec[perm] = assemble_product((np.array([-np.conj(a[1]), np.conj(a[0])]), r))
        out.append(vec / np.linalg.norm(vec))
    return out
