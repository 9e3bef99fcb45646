"""The headline classifier for states of rank at most four.

Pipeline: compress the support, settle rank-one states by a product
check, reject NPT states, accept PPT states of rank two or three, and at
rank four decide by the Chow form when the compressed shape is 3x3 or
2x2x2 (any other shape is separable).  Rank above four is out of the
decision scope and reported as such, never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chow import builtin_chow, eval_chow
from .codec import from_dict, to_dict
from .errors import (
    AllPartiesTrivial,
    DimensionMismatch,
    InconsistentTolerances,
    NotPositive,
    NotSeparableVerdict,
)
from .grassmann import SubspaceBasis, pluecker
from .oracle import (
    Decomposition,
    DecompositionTerm,
    _frobenius,
    _range_decomposition,
    greedy_decompose,
)
from .ppt import PptReport, is_ppt
from .states import (
    MultiState,
    _rank_from_eigenvalues,
    assemble_product,
    compress_support,
    is_product,
    spectral,
)

SEPARABLE = "Separable"
ENTANGLED = "Entangled"
OUT_OF_SCOPE = "OutOfScope"

RULE_NPT = "NPT"
RULE_RANK1_PRODUCT = "Rank1Product"
RULE_RANK1_NON_PRODUCT = "Rank1NonProduct"
RULE_PPT_RANK2 = "PPTRank2"
RULE_PPT_RANK3 = "PPTRank3"
RULE_PPT_RANK4_SHAPE = "PPTRank4Shape"
RULE_CHOW_33 = "Chow33"
RULE_CHOW_222 = "Chow222"
RULE_RANK_ABOVE_4 = "RankAbove4"

_RULE_NOTES = {
    RULE_NPT: "a partial transpose has a negative eigenvalue",
    RULE_RANK1_PRODUCT: "pure product state",
    RULE_RANK1_NON_PRODUCT: "pure state that does not factor across every party",
    RULE_PPT_RANK2: "PPT with rank 2: separable, length exactly 2",
    RULE_PPT_RANK3: "PPT with rank 3: separable",
    RULE_PPT_RANK4_SHAPE: "PPT rank-4 state not supported on 3x3 or 2x2x2: separable",
    RULE_CHOW_33: "rank-4 support on 3x3: decided by the Chow-form value on the range",
    RULE_CHOW_222: "rank-4 support on 2x2x2: decided by the Chow-form value on the range",
    RULE_RANK_ABOVE_4: "rank exceeds four: outside the decision scope",
}


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    rule: str
    dims: tuple[int, ...]
    compressed_dims: tuple[int, ...]
    dropped_parties: tuple[int, ...]
    rank: int
    local_ranks: tuple[int, ...]
    ppt: PptReport | None
    chow_system: tuple[int, ...] | None
    chow_value: complex | None
    chow_abs: float | None
    low_confidence: bool
    decomposition: Decomposition | None
    length_bounds: tuple[int, int] | None
    notes: tuple[str, ...]


def _bounds_for(
    rank: int, compressed_dims: tuple[int, ...], ppt: PptReport | None
) -> tuple[int, int]:
    """Length bounds for a separable verdict: (lower, upper).

    The lower bound is the rank and, with a PPT record, the largest rank of
    a partial transpose: each partial transpose of a sum of L product
    projectors is again a sum of L projectors.  Upper bounds from rank and
    compressed shape: rank 2 -> 2; rank 3 -> 4, tightened to 3 unless the
    support is a two-qubit one; rank 4 -> 6, tightened to 5 for three or
    more parties with some local rank above 2, and to 4 when some local
    rank is 4 (or the support is the full two-qubit space).
    """
    n = len(compressed_dims)
    lo = max([rank, 1] + ([rec.rank for rec in ppt.records] if ppt else []))
    if rank == 3:
        return lo, 4 if n == 2 and all(r == 2 for r in compressed_dims) else 3
    if rank == 4:
        if any(r == 4 for r in compressed_dims) or compressed_dims == (2, 2):
            return lo, 4
        return lo, 5 if n > 2 and max(compressed_dims) > 2 else 6
    return lo, max(rank, 1)


def length_bounds(report: ClassificationReport) -> tuple[int, int]:
    """(lower, upper) bounds on the minimal product-state length."""
    if report.verdict != SEPARABLE:
        raise NotSeparableVerdict(f"verdict is {report.verdict}")
    return _bounds_for(report.rank, report.compressed_dims, report.ppt)


def _pure_product_decomposition(state: MultiState, isometries) -> Decomposition:
    factors = tuple(w[:, 0] for w in isometries)
    vec = assemble_product(factors)
    weight = state.trace
    recon = weight * np.outer(vec, vec.conj())
    residual = _frobenius(state.matrix - recon, weight)
    return Decomposition(
        terms=(DecompositionTerm(weight=weight, factors=factors),),
        residual=residual,
        length_upper_bound=1,
    )


def classify(state: MultiState, seed: int = 0, decompose: bool = True) -> ClassificationReport:
    """Decide separable / entangled / out-of-scope for ``state``.

    On separable verdicts length bounds are attached, the lower one raised
    to the largest partial-transpose rank; bounds that cross raise
    :class:`InconsistentTolerances`.  With ``decompose``, states of rank two
    or more are first decomposed exactly
    (:func:`~sep4.oracle._range_decomposition`).  A compressed two-qubit
    state of rank 3 or 4 gets four terms from Wootters' closed form (one
    eigensolve of a real 2r x 2r matrix); an entangled one that the
    tolerances let through raises :class:`InconsistentTolerances`.  Every
    other range gives the product vectors its flattening minors cut out,
    with no eigensolve.  Where neither applies, one greedy peel pass of at
    most ``length_bounds[1]`` terms is made; the decomposition is ``None``
    when that pass does not close (its absence never changes the verdict).
    One spectral pass, kept for this call only: the reduced states are
    diagonalized in :func:`compress_support`, one stacked call per party
    size, the compressed state here, and each representative partial
    transpose but the empty one in :func:`is_ppt`, which takes the
    compressed state's eigenvalues from here.  A matrix that is zero or
    holds NaN or Inf is rejected first, with the errors of
    :func:`~sep4.states.new_state`.
    """
    # a MultiState built directly is not validated; entry by entry on the
    # real view, so that no modulus can overflow
    scale = float(np.abs(state.matrix.view(float)).max())
    if scale == 0.0:
        raise NotPositive("zero matrix is not a state")
    if not math.isfinite(scale):
        raise DimensionMismatch("matrix contains non-finite entries")
    base = dict(
        dims=state.dims,
        ppt=None,
        chow_system=None,
        chow_value=None,
        chow_abs=None,
        low_confidence=False,
        decomposition=None,
        length_bounds=None,
    )

    try:
        comp = compress_support(state)
    except AllPartiesTrivial as exc:
        base.update(
            decomposition=_pure_product_decomposition(state, exc.isometries) if decompose else None,
            length_bounds=(1, 1),
        )
        return ClassificationReport(
            verdict=SEPARABLE,
            rule=RULE_RANK1_PRODUCT,
            compressed_dims=(),
            dropped_parties=tuple(range(1, state.n + 1)),
            rank=1,
            local_ranks=(1,) * state.n,
            notes=(_RULE_NOTES[RULE_RANK1_PRODUCT],),
            **base,
        )

    base["local_ranks"] = tuple(w.shape[1] for w in comp.isometries)
    small = comp.state
    cdims = small.dims
    sd = spectral(small)
    rank = _rank_from_eigenvalues(sd.eigenvalues, small.cfg.tol_rank)

    def finish(verdict, rule, **extra):
        fields = {**base, **extra}
        if verdict == SEPARABLE:
            bounds = _bounds_for(rank, cdims, fields["ppt"])
            if bounds[0] > bounds[1]:
                raise InconsistentTolerances(
                    f"tolerance bug: separable verdict with length bounds {bounds}: a partial "
                    "transpose has more rank than a separable state of this rank allows"
                )
            dec = None
            if decompose and rank >= 2:
                dec = _range_decomposition(comp, sd, rank, state, seed)
            if decompose and dec is None:
                dec = greedy_decompose(state, max_terms=bounds[1], seed=seed)
            fields.update(decomposition=dec, length_bounds=bounds)
        return ClassificationReport(
            verdict=verdict,
            rule=rule,
            compressed_dims=cdims,
            dropped_parties=comp.dropped,
            rank=rank,
            notes=(_RULE_NOTES[rule],),
            **fields,
        )

    if rank == 1:
        ok, _ = is_product(sd.eigenvectors[:, 0], cdims, small.cfg.tol_product)
        if ok:
            return finish(SEPARABLE, RULE_RANK1_PRODUCT)
        return finish(ENTANGLED, RULE_RANK1_NON_PRODUCT, ppt=is_ppt(small, sd.eigenvalues))

    ppt_report = is_ppt(small, sd.eigenvalues)
    base["ppt"] = ppt_report
    if not ppt_report.is_ppt:
        return finish(ENTANGLED, RULE_NPT)

    if rank == 2:
        return finish(SEPARABLE, RULE_PPT_RANK2)
    if rank == 3:
        return finish(SEPARABLE, RULE_PPT_RANK3)

    if rank == 4:
        if cdims in ((3, 3), (2, 2, 2)):
            rule = RULE_CHOW_33 if cdims == (3, 3) else RULE_CHOW_222
            form = builtin_chow(cdims)
            basis = SubspaceBasis(sd.eigenvectors[:, :rank].T, cdims)
            value = eval_chow(form, pluecker(basis), normalized=True)
            mag = abs(value)
            tol = small.cfg.tol_chow
            extra = dict(
                chow_system=cdims,
                chow_value=value,
                chow_abs=mag,
                low_confidence=bool(tol / 10 < mag < tol * 10),
            )
            if mag <= tol:
                return finish(SEPARABLE, rule, **extra)
            if rule == RULE_CHOW_222:
                bad = [rec for rec in ppt_report.records if rec.rank != 4]
                if bad:
                    raise InconsistentTolerances(
                        "tolerance bug: entangled 2x2x2 rank-4 state has a partial "
                        f"transpose of rank != 4: {bad}"
                    )
            return finish(ENTANGLED, rule, **extra)
        return finish(SEPARABLE, RULE_PPT_RANK4_SHAPE)

    return finish(OUT_OF_SCOPE, RULE_RANK_ABOVE_4)


# --- report serialization ---------------------------------------------------


def report_to_dict(report: ClassificationReport) -> dict:
    return to_dict(report)


def report_from_dict(obj: dict) -> ClassificationReport:
    return from_dict(ClassificationReport, obj)
