"""Seeded inputs for the benchmark workloads, each carrying the label its
construction implies, and the checks that compare sep4's output with it.

Every family is a function ``(rng, index) -> (input, label)`` for the
``index``-th input it draws.  Families cycle through their shapes by
``index`` rather than drawing them, and a workload interleaves its families
round-robin, so runs of any seed see the same mix of shapes.  Labels come
from how an input was built, never from sep4 itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from sep4 import gallery
from sep4.states import new_state

SMALL_DIMS = [(2, 2), (2, 3), (3, 4), (2, 2, 2), (2, 2, 2, 2)]
RANK4_SHAPE_DIMS = [(2, 2), (2, 4), (3, 4), (2, 2, 3), (2, 2, 2, 2)]
# (2, 2) is probed apart from the timed decomposing rank-4 families (see
# FULL_RANK_2X2_PROBE): every full-rank two-qubit separable state decomposes
# into 5 terms against length bounds (4, 4).
RANK4_SHAPE_BIPARTITE_DIMS = [(2, 4), (3, 4)]
RANK4_SHAPE_MULTIPARTITE_DIMS = [(2, 2, 3), (2, 2, 2, 2)]
ABOVE4_DIMS = [(3, 3), (3, 4), (2, 2, 2)]
RESIDUAL_RTOL = 1e-8
PRODUCT_RTOL = 1e-6


@dataclass(frozen=True)
class Case:
    family: str
    payload: Any
    label: dict


# --- construction helpers -------------------------------------------------


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _product(rng, dims) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for dp in dims:
        out = np.kron(out, _unit(rng, dp))
    return out


def _rotate(state, rng):
    """The same state seen through random local unitaries."""
    seed = int(rng.integers(2**31))
    return gallery.conjugate_local(state, gallery.random_local_unitaries(state.dims, seed))


def _schmidt_pair(rng, dims) -> np.ndarray:
    """cos t |00> + sin t |11> on parties 1 and 2 (t in [0.5, pi/4]), times a
    random product on the rest: non-product, and its party-1 partial
    transpose has eigenvalue -sin(2t)/2 <= -0.42."""
    t = rng.uniform(0.5, math.pi / 4)
    pair = np.zeros(dims[0] * dims[1], dtype=complex)
    pair[0] = math.cos(t)
    pair[dims[1] + 1] = math.sin(t)
    return np.kron(pair, _product(rng, dims[2:]))


def _pure(vec, dims):
    return new_state(np.outer(vec, vec.conj()), dims)


def _verdict(state, verdict, rule) -> tuple:
    return state, {"verdict": verdict, "rule": rule}


# --- two-qutrit NPT certificate in exact arithmetic ------------------------


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _exact(z: complex):
    return (Fraction(z.real), Fraction(z.imag))


def two_qutrit_npt_certified(a: complex, b: complex) -> bool:
    """True when a rounded witness w has <w| rho^T1 |w> < 0 exactly.

    ``a`` and ``b`` must be dyadic so that the float state is exact; the
    state is rebuilt here in ``Fraction`` arithmetic from the rows of
    ``two_qutrit_ab_rows``, so the certificate does not trust sep4.
    """
    rows = [[_exact(complex(z)) for z in row] for row in gallery.two_qutrit_ab_rows(a, b)]
    zero = (Fraction(0), Fraction(0))
    rho = [[zero] * 9 for _ in range(9)]
    for row in rows:
        for i in range(9):
            for j in range(9):
                p = _cmul(row[i], (row[j][0], -row[j][1]))
                rho[i][j] = (rho[i][j][0] + p[0], rho[i][j][1] + p[1])
    # party-1 partial transpose: (i1 i2, j1 j2) <- (j1 i2, i1 j2)
    pt = [[rho[3 * (j // 3) + i % 3][3 * (i // 3) + j % 3] for j in range(9)] for i in range(9)]
    as_float = np.array([[complex(float(z[0]), float(z[1])) for z in row] for row in pt])
    _, vecs = np.linalg.eigh(as_float)
    w = [(Fraction(round(z.real * 2**20), 2**20), Fraction(round(z.imag * 2**20), 2**20))
         for z in vecs[:, 0]]
    total = Fraction(0)
    for i in range(9):
        wi_conj = (w[i][0], -w[i][1])
        for j in range(9):
            total += _cmul(_cmul(wi_conj, pt[i][j]), w[j])[0]
    return total < 0


def _dyadic(rng) -> complex:
    return complex(int(rng.integers(-8, 9)) / 8, int(rng.integers(-8, 9)) / 8)


# --- families: (rng, index) -> (input, label) -----------------------------


def rank1_product(rng, index):
    dims = SMALL_DIMS[index % len(SMALL_DIMS)]
    return _verdict(_pure(_product(rng, dims), dims), "Separable", "Rank1Product")


def rank1_entangled(rng, index):
    dims = SMALL_DIMS[index % len(SMALL_DIMS)]
    return _verdict(_rotate(_pure(_schmidt_pair(rng, dims), dims), rng), "Entangled", "Rank1NonProduct")


def npt_mixture(rng, index):
    """Schmidt pair plus weight <= 0.3 of a product: by Weyl's inequality the
    party-1 partial transpose keeps an eigenvalue <= -0.12."""
    dims = SMALL_DIMS[index % len(SMALL_DIMS)]
    psi = _schmidt_pair(rng, dims)
    phi = _product(rng, dims)
    m = np.outer(psi, psi.conj()) + rng.uniform(0.1, 0.3) * np.outer(phi, phi.conj())
    return _verdict(_rotate(new_state(m, dims), rng), "Entangled", "NPT")


def npt_two_qutrit_complex(rng, index):
    """Two-qutrit (a, b) family at complex dyadic parameters, labelled NPT
    only with an exact witness (draws without one are skipped)."""
    while True:
        a, b = _dyadic(rng), _dyadic(rng)
        if a.imag == 0 and b.imag == 0:
            continue
        if two_qutrit_npt_certified(a, b):
            return _verdict(gallery.two_qutrit_ab_state(a, b), "Entangled", "NPT")


def ppt_rank2(rng, index):
    dims = SMALL_DIMS[index % len(SMALL_DIMS)]
    return _verdict(gallery.random_separable(dims, 2, int(rng.integers(2**31))), "Separable", "PPTRank2")


def ppt_rank3(rng, index):
    dims = SMALL_DIMS[index % len(SMALL_DIMS)]
    return _verdict(gallery.random_separable(dims, 3, int(rng.integers(2**31))), "Separable", "PPTRank3")


def _rank4_shape(options):
    def family(rng, index):
        dims = options[index % len(options)]
        state = gallery.random_separable(dims, 4, int(rng.integers(2**31)))
        return _verdict(state, "Separable", "PPTRank4Shape")

    return family


def chow33_entangled(rng, index):
    """Real a, b in [0.5, 1.5]: PPT and entangled (a*b != 0 on the real slice)."""
    a, b = rng.uniform(0.5, 1.5, size=2)
    return _verdict(_rotate(gallery.two_qutrit_ab_state(a, b), rng), "Entangled", "Chow33")


def chow33_separable_ab(rng, index):
    state = gallery.two_qutrit_ab_state(0.0, rng.uniform(0.5, 1.5))
    return _verdict(_rotate(state, rng), "Separable", "Chow33")


def chow33_separable_random(rng, index):
    state = gallery.random_separable((3, 3), 4, int(rng.integers(2**31)))
    return _verdict(state, "Separable", "Chow33")


def chow33_separable(rng, index):
    return (chow33_separable_random if index % 2 else chow33_separable_ab)(rng, index)


def chow222_entangled(rng, index):
    return _verdict(_rotate(gallery.divincenzo_state(), rng), "Entangled", "Chow222")


def chow222_separable(rng, index):
    state = gallery.random_separable((2, 2, 2), 4, int(rng.integers(2**31)))
    return _verdict(state, "Separable", "Chow222")


def rank_above4(rng, index):
    dims = ABOVE4_DIMS[index % len(ABOVE4_DIMS)]
    state = gallery.random_separable(dims, int(rng.integers(5, 8)), int(rng.integers(2**31)))
    return _verdict(state, "OutOfScope", "RankAbove4")


def _subspace(planted: bool, dims):
    def family(rng, index):
        d = math.prod(dims)
        rows = [_unit(rng, d) for _ in range(4)]
        if planted:
            rows[0] = _product(rng, dims)
        seed = int(rng.integers(2**31))
        return (np.vstack(rows), dims, seed), {"planted": planted}

    return family


# --- workloads ------------------------------------------------------------

VERDICT_MIX = {
    "rank1_product": rank1_product,
    "rank1_entangled": rank1_entangled,
    "npt_mixture": npt_mixture,
    "npt_two_qutrit_complex": npt_two_qutrit_complex,
    "ppt_rank2": ppt_rank2,
    "ppt_rank3": ppt_rank3,
    "ppt_rank4_shape": _rank4_shape(RANK4_SHAPE_DIMS),
    "chow33_entangled": chow33_entangled,
    "chow33_separable": chow33_separable,
    "chow222_entangled": chow222_entangled,
    "chow222_separable": chow222_separable,
    "rank_above4": rank_above4,
}

DECOMPOSE_SEPARABLE = {
    "ppt_rank2": ppt_rank2,
    "ppt_rank3": ppt_rank3,
    "ppt_rank4_shape_bipartite": _rank4_shape(RANK4_SHAPE_BIPARTITE_DIMS),
    "ppt_rank4_shape_multipartite": _rank4_shape(RANK4_SHAPE_MULTIPARTITE_DIMS),
    "chow33_separable_ab": chow33_separable_ab,
    "chow33_separable_random": chow33_separable_random,
    "chow222_separable": chow222_separable,
}

# A known defect at this version, so no timed family holds it: every input
# fails check_decomposition (5 terms, length bounds (4, 4)).  decompose-
# separable checks a few of these after its timed rounds and reports how
# many fail, so that a fix, or a change in the failure, shows on every run.
FULL_RANK_2X2_PROBE = {"ppt_rank4_full_2x2": _rank4_shape([(2, 2)])}

ORACLE_CES = {
    "ces_3x3": _subspace(False, (3, 3)),
    "planted_3x3": _subspace(True, (3, 3)),
    "ces_2x2x2": _subspace(False, (2, 2, 2)),
    "planted_2x2x2": _subspace(True, (2, 2, 2)),
}

# no family reaches the greedy peel: decompose-separable measures that
BATCH_CLI = {
    "rank1_product": rank1_product,
    "rank1_entangled": rank1_entangled,
    "npt_mixture": npt_mixture,
    "chow33_entangled": chow33_entangled,
    "chow222_entangled": chow222_entangled,
    "rank_above4": rank_above4,
}


def make_cases(families: dict[str, Callable], seed: int, per_family: int) -> list[Case]:
    """``per_family`` inputs of each family, interleaved round-robin.

    Each family draws from its own stream, seeded by ``seed`` and the
    family's position, so one family's draws never shift another's.
    """
    streams = {
        name: np.random.default_rng([seed, index]) for index, name in enumerate(families)
    }
    out = []
    for index in range(per_family):
        for name, family in families.items():
            payload, label = family(streams[name], index)
            out.append(Case(name, payload, label))
    return out


# --- checks: None when the output agrees with the label --------------------


def _is_product(vec, dims) -> bool:
    """Own flattening test, so the check does not rely on the code it checks."""
    t = np.asarray(vec).reshape(dims)
    norm = np.linalg.norm(vec)
    for axis, dp in enumerate(dims):
        flat = np.moveaxis(t, axis, 0).reshape(dp, -1)
        sv = np.linalg.svd(flat, compute_uv=False)
        if sv.shape[0] > 1 and sv[1] > PRODUCT_RTOL * norm:
            return False
    return True


def check_verdict(case: Case, report) -> str | None:
    got = (report.verdict, report.rule)
    want = (case.label["verdict"], case.label["rule"])
    if got != want:
        return f"{case.family}: got {got}, built as {want}"
    return None


def check_decomposition(case: Case, report) -> str | None:
    bad = check_verdict(case, report)
    if bad:
        return bad
    state = case.payload
    dec = report.decomposition
    if dec is None:
        return f"{case.family}: no decomposition"
    target = RESIDUAL_RTOL * state.trace
    recon = np.zeros_like(state.matrix)
    for term in dec.terms:
        if not term.weight > 0:
            return f"{case.family}: weight {term.weight}"
        if not _is_product(term.vector, state.dims):
            return f"{case.family}: a term is not a product vector"
        recon += term.weight * np.outer(term.vector, term.vector.conj())
    residual = float(np.linalg.norm(state.matrix - recon))
    if dec.residual > target or residual > target:
        return f"{case.family}: residual {max(residual, dec.residual):.2e} > {target:.2e}"
    lo, hi = report.length_bounds
    if not lo <= len(dec.terms) <= hi:
        return f"{case.family}: {len(dec.terms)} terms outside length bounds ({lo}, {hi})"
    return None


def check_search(case: Case, result) -> str | None:
    """``result`` is (meets, hit): Chow and oracle must both match the label."""
    rows, dims, _ = case.payload
    meets, hit = result
    planted = case.label["planted"]
    if meets != planted:
        return f"{case.family}: Chow says meets={meets}"
    if (hit is not None) != planted:
        return f"{case.family}: oracle {'found' if hit is not None else 'missed'} a product vector"
    if hit is not None:
        q, _ = np.linalg.qr(rows.T)
        outside = np.linalg.norm(hit.vector - q @ (q.conj().T @ hit.vector))
        if outside > PRODUCT_RTOL or not _is_product(hit.vector, dims):
            return f"{case.family}: hit is not a product vector of the subspace"
    return None
