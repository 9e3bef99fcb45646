"""Named states and randomized test families.

Everything here is returned unnormalized, exactly as constructed; the
random generators are deterministic in their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DegenerateComplement, DependentVectors
from .states import (
    DEFAULT_TOLERANCES,
    MultiState,
    ToleranceConfig,
    _check_layout,
    _check_seed,
    assemble_product,
    new_state,
)


@dataclass(frozen=True)
class ProductBasis:
    """A list of product vectors given by their per-party factors."""

    factors: tuple[tuple[np.ndarray, ...], ...]
    dims: tuple[int, ...]

    def vectors(self) -> np.ndarray:
        return np.vstack([assemble_product(f) for f in self.factors])


def _ket(*amplitudes) -> np.ndarray:
    return np.asarray(amplitudes, dtype=complex)


def _qubit_kets() -> tuple[np.ndarray, ...]:
    """|0>, |1>, |+> and |-> = (|0> +- |1>)/sqrt(2), built afresh."""
    return _ket(1, 0), _ket(0, 1), _ket(1, 1) / math.sqrt(2), _ket(1, -1) / math.sqrt(2)


def three_qubit_upb() -> ProductBasis:
    """The four-member three-qubit unextendible product basis |000>,
    |+,1,->, |1,-,+>, |-,+,1>."""
    zero, one, plus, minus = _qubit_kets()
    return ProductBasis(
        factors=(
            (zero, zero, zero),
            (plus, one, minus),
            (one, minus, plus),
            (minus, plus, one),
        ),
        dims=(2, 2, 2),
    )


def divincenzo_state(cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> MultiState:
    """Three-qubit rank-four projector onto the complement of the UPB above.

    Assembled as the sum of the four orthonormal vectors |+,psi1>,
    |-,psi2>, |0,psi3>, |1,psi4>; it annihilates every UPB member.
    """
    zero, one, plus, minus = _qubit_kets()
    psi = (
        _ket(0, 2, 1, 1) / math.sqrt(6),
        _ket(0, -1, -2, 1) / math.sqrt(6),
        _ket(0, -1, 1, 1) / math.sqrt(3),
        _ket(3, -1, 1, 1) / math.sqrt(12),
    )
    firsts = (plus, minus, zero, one)
    rho = np.zeros((8, 8), dtype=complex)
    for a, p in zip(firsts, psi):
        v = np.kron(a, p)
        rho += np.outer(v, v.conj())
    return new_state(rho, (2, 2, 2), cfg)


def two_qutrit_ab_rows(a: complex, b: complex) -> np.ndarray:
    """Row basis of the range of :func:`two_qutrit_ab_state`."""
    rows = np.zeros((4, 9), dtype=complex)
    rows[0, 0] = 1
    rows[0, 4] = a
    rows[1, 1] = a
    rows[1, 3] = 1
    rows[1, 7] = b
    rows[2, 4] = 1
    rows[2, 6] = b
    rows[2, 8] = 1
    rows[3, 5] = 1
    rows[3, 7] = 1
    return rows


def two_qutrit_ab_state(
    a: complex, b: complex, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> MultiState:
    """Two-qutrit rank-four family: sum of the projectors onto
    |00> + a|11>, a|01> + |10> + b|21>, |11> + b|20> + |22>, |12> + |21>.

    The state is PPT where a and b are both real, and where b = 0 for
    any a; there it is separable exactly when a*b = 0.  Off that region
    complex phases tip it NPT: every point of the grid {0, 1/2, 1, 1+i, 2}^2
    with a complex b, or with a complex a and b != 0, is NPT.
    """
    rows = two_qutrit_ab_rows(a, b)
    rho = rows.T @ rows.conj()
    return new_state(rho, (3, 3), cfg)


def upb_complement_state(
    basis: ProductBasis, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> MultiState:
    """Projector onto the orthocomplement of a product-vector span,
    scaled by one over the complement dimension.

    Unextendibility of the input is the caller's claim and is not
    verified here.
    """
    vectors = basis.vectors()
    m, d = vectors.shape
    sv = np.linalg.svd(vectors, compute_uv=False)
    if sv[-1] <= 1e-9 * sv[0]:
        raise DependentVectors("product basis members are linearly dependent")
    if m >= d:
        raise DegenerateComplement("span is the whole space; complement is zero")
    q, _ = np.linalg.qr(vectors.conj().T)
    proj = np.eye(d, dtype=complex) - q @ q.conj().T
    return new_state(proj / (d - m), basis.dims, cfg)


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_separable(
    dims, terms: int, seed: int = 0, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> MultiState:
    """Sum of ``terms`` projectors onto random product vectors; ``dims``
    is checked as :func:`~sep4.states.new_state` checks it before anything
    is allocated."""
    _check_seed(seed)
    dims = tuple(int(x) for x in dims)
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    _check_layout((d, d), dims)
    rho = np.zeros((d, d), dtype=complex)
    for _ in range(terms):
        v = assemble_product([_random_unit(rng, dp) for dp in dims])
        rho += np.outer(v, v.conj())
    return new_state(rho, dims, cfg)


def random_local_unitaries(dims, seed: int = 0) -> list[np.ndarray]:
    """Haar-ish unitaries (QR of complex Gaussians), one per party."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    out = []
    for dp in dims:
        g = rng.standard_normal((dp, dp)) + 1j * rng.standard_normal((dp, dp))
        q, r = np.linalg.qr(g)
        out.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return out


def conjugate_local(state: MultiState, unitaries) -> MultiState:
    """Apply U_1 x ... x U_n on both sides of the state."""
    w = reduce(np.kron, unitaries)
    m = w @ state.matrix @ w.conj().T
    return new_state(m, state.dims, state.cfg)


def random_ppt_rank4_33(seed: int = 0, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> MultiState:
    """Random member of the two-qutrit family, rotated by local unitaries.

    Parameters are sampled real and away from zero: the family is PPT on
    the real parameter slice (complex phases tip it NPT) and entangled
    whenever a*b != 0.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    a = 0.5 + rng.random()
    b = 0.5 + rng.random()
    base = two_qutrit_ab_state(a, b, cfg)
    return conjugate_local(base, random_local_unitaries((3, 3), seed + 1))
