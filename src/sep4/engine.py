"""The headline classifier for states of rank at most four.

Pipeline: compress the support, settle rank-one states by a product
check, reject NPT states, accept PPT states of rank two or three, and at
rank four decide by the Chow form when the compressed shape is 3x3 or
2x2x2 (any other shape is separable).  Rank above four is out of the
decision scope and reported as such, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chow import _chow_values, builtin_chow
from .codec import from_dict, to_dict
from .errors import InconsistentTolerances, NotSeparableVerdict
from .grassmann import _pluecker_rows
from .oracle import Decomposition, _decompose
from .ppt import PptReport, _spectra, is_ppt
from .states import (
    MultiState,
    SpectralData,
    _check_psd,
    _check_seed,
    _compress_group,
    _each_alone,
    _members,
    _stacked,
    _unit_factorize,
    _validated,
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

# the rule of each compressed shape whose rank-4 PPT states the Chow form decides
_CHOW_RULES = {(3, 3): RULE_CHOW_33, (2, 2, 2): RULE_CHOW_222}

# each rule's verdict, ``None`` where the rule's number decides it, and note
_RULES = {
    RULE_NPT: (ENTANGLED, "a partial transpose has a negative eigenvalue"),
    RULE_RANK1_PRODUCT: (None, "pure product state"),
    RULE_RANK1_NON_PRODUCT: (ENTANGLED, "pure state that does not factor across every party"),
    RULE_PPT_RANK2: (SEPARABLE, "PPT with rank 2: separable, length exactly 2"),
    RULE_PPT_RANK3: (SEPARABLE, "PPT with rank 3: separable"),
    RULE_PPT_RANK4_SHAPE: (SEPARABLE, "PPT rank-4 state not supported on 3x3 or 2x2x2: separable"),
    RULE_CHOW_33: (None, "rank-4 support on 3x3: decided by the Chow-form value on the range"),
    RULE_CHOW_222: (None, "rank-4 support on 2x2x2: decided by the Chow-form value on the range"),
    RULE_RANK_ABOVE_4: (OUT_OF_SCOPE, "rank exceeds four: outside the decision scope"),
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
    chow_system: tuple[int, ...] | None = None
    chow_value: complex | None = None
    chow_abs: float | None = None
    low_confidence: bool = False
    decomposition: Decomposition | None = None
    length_bounds: tuple[int, int] | None = None
    notes: tuple[str, ...] = ()


def _bounds_for(
    rank: int, compressed_dims: tuple[int, ...], ppt: PptReport | None
) -> tuple[int, int]:
    """Length bounds for a separable verdict: (lower, upper).

    The lower bound is the largest rank of a PPT record, or 1 without
    one: each partial transpose of a sum of L product projectors is again
    a sum of L projectors.  Upper bounds from rank and compressed shape:
    rank 2 -> 2; rank 3 -> 4, tightened to 3 unless the support is a
    two-qubit one; rank 4 -> 6, tightened to 5 for three or more parties
    with some local rank above 2, and to 4 when some local rank is 4 (or
    the support is the full two-qubit space).
    """
    n = len(compressed_dims)
    lo = max(rec.rank for rec in ppt.records) if ppt else 1
    if rank == 3:
        return lo, 4 if n == 2 and all(r == 2 for r in compressed_dims) else 3
    if rank == 4:
        if any(r == 4 for r in compressed_dims) or compressed_dims == (2, 2):
            return lo, 4
        return lo, 5 if n > 2 and max(compressed_dims) > 2 else 6
    return lo, max(rank, 1)


def length_bounds(report: ClassificationReport) -> tuple[int, int]:
    """(lower, upper) bounds on the minimal product-state length: the
    ``length_bounds`` :func:`classify` stored in ``report``."""
    if report.verdict != SEPARABLE:
        raise NotSeparableVerdict(f"verdict is {report.verdict}")
    return report.length_bounds


def classify(state: MultiState, seed: int = 0, decompose: bool = True) -> ClassificationReport:
    """Decide separable / entangled / out-of-scope for ``state``.

    On separable verdicts length bounds are attached, the lower one raised
    to the largest partial-transpose rank; bounds that cross raise
    :class:`InconsistentTolerances`.  With ``decompose``, one call of
    :func:`~sep4.oracle._decompose` backs the verdict: the dropped
    parties' product, one kept party's or a rank-1 range's spectrum,
    Wootters' closed form on a two-qubit range of rank 3 or 4, the product
    vectors the range's flattening minors cut out, or else one greedy peel
    pass of at most ``length_bounds[1]`` terms on the compressed state.
    The decomposition is ``None`` when its terms fail the product or
    residual check or the peel does not close (its absence never changes
    the verdict).  A ``seed`` that is not a non-negative integer raises
    :class:`InvalidSeed`, in both modes.
    This is :func:`_classify_group` on a group of one, whose stages take
    the lone matrix unstacked and keep no spectrum after the call.  The
    compressed state's eigenvalue stack is read in one place: by
    :func:`~sep4.states.new_state`'s PSD check on its first row, which
    raises :class:`NotPositive` before any eigenvector is computed, then
    by :func:`is_ppt`, whose first record is the rank.  A state built
    directly, not by :func:`~sep4.states.new_state`, is passed through it
    first, so it raises what :func:`~sep4.states.new_state` raises, or is
    classified on the matrix :func:`~sep4.states.new_state` builds.  A
    pure product state compresses to no state and reads ``Rank1Product``
    with compressed dims ``()``.
    """
    (result,) = _classify_group([state], seed, decompose)
    if isinstance(result, Exception):
        raise result
    return result


def _classify_group(states: list[MultiState], seed: int = 0, decompose: bool = True) -> list:
    """:func:`classify` over states of one ``dims`` and ``ToleranceConfig``:
    per state its report, or the error it raises alone, in order.

    Each numeric stage runs once over the group: the reduced states and
    their ``eigh`` per party size, then per set of local ranks, whose
    states share one compressed shape, the compression products
    (:func:`~sep4.states._compress_group`), the eigenvalue stack, whose
    PPT record picks each state's rule once (:func:`_rule`), one ``eigh``
    for the states whose rules read eigenvectors, and each rule's number:
    one :func:`~sep4.states._unit_factorize` call over the rank-1 states'
    leading eigenvectors, one :func:`~sep4.chow._chow_values` call over
    the Chow states' Plücker coordinates, each built alone.  A stacked
    call gives each matrix the bits one call on it alone gives, so a
    report does not depend on its group.  The verdicts and the
    decomposition run one state at a time.  No stage
    catches anything: the first error of any state, an invalid input, a
    failed stacked call or a rule's own, raises, and the group is then
    rerun one state at a time (:func:`~sep4.states._each_alone`, the one
    error boundary), so that each state gets the report or the error it
    gets alone.  The ``seed`` is checked first, for the whole group.
    """
    _check_seed(seed)
    return _each_alone(_classify_stacked, states, seed, decompose)


def _rule(ppt: PptReport, cdims) -> str:
    """The theorem's ladder: the rule of a compressed state of shape
    ``cdims`` from its PPT record, whose first record is the rank."""
    rank = ppt.records[0].rank
    if rank == 1:
        return RULE_RANK1_PRODUCT
    if not ppt.is_ppt:
        return RULE_NPT
    if rank == 2:
        return RULE_PPT_RANK2
    if rank == 3:
        return RULE_PPT_RANK3
    if rank == 4:
        return _CHOW_RULES.get(cdims, RULE_PPT_RANK4_SHAPE)
    return RULE_RANK_ABOVE_4


def _classify_stacked(states, seed, decompose) -> list:
    """:func:`_classify_group`'s stages, on the states
    :func:`~sep4.states.new_state` built or builds; an error of any state
    propagates."""
    states = [_validated(state) for state in states]
    comps, groups = _compress_group(states)
    # per state the rules' inputs: PPT record, whose first record is the
    # rank, rule, eigenvectors and the rule's number; a pure product has
    # only its rule
    ppts, sds, values = [None] * len(states), [None] * len(states), [None] * len(states)
    rules = [RULE_RANK1_PRODUCT] * len(states)
    reads = (None, SEPARABLE) if decompose else (None,)
    # the states that share their local ranks share a compressed shape
    for members, matrices in groups:
        cdims = comps[members[0]].state.dims
        # the one reader of each eigenvalue stack
        for i, spectra in zip(members, _members(_spectra(matrices, cdims), len(members))):
            small = comps[i].state
            _check_psd(spectra[0], small.cfg)
            ppts[i] = is_ppt(small, spectra)
            rules[i] = _rule(ppts[i], cdims)
        # the eigenvectors the rules read, one stacked call: a rule its
        # number settles, and a separable verdict's decomposition
        need = [i for i in members if _RULES[rules[i]][0] in reads]
        if not need:
            continue
        sd = spectral(_stacked([comps[i].state.matrix for i in need]))
        g = len(need)
        for i, w, v in zip(need, _members(sd.eigenvalues, g), _members(sd.eigenvectors, g)):
            sds[i] = SpectralData(w, v)
        # each rule's number, one kernel call over its states: the leading
        # eigenvector's flattening ratio at rank 1, the Chow value of the
        # range at rank 4
        ones = [i for i in need if rules[i] == RULE_RANK1_PRODUCT]
        chow = [i for i in need if rules[i] in (RULE_CHOW_33, RULE_CHOW_222)]
        if ones:
            _, ratios = _unit_factorize([sds[i].eigenvectors[:, 0] for i in ones], cdims)
            for i, ratio in zip(ones, ratios.tolist()):
                values[i] = ratio
        if chow:
            # eigh's columns are orthonormal, so the range rows need no
            # independence check; the wedge runs per state, since its
            # product with the signs does not give a stack's rows their
            # lone bits
            coords = [_pluecker_rows(sds[i].eigenvectors[:, :4].T)[1] for i in chow]
            found = _chow_values(builtin_chow(cdims), coords)
            for i, value in zip(chow, found.reshape(-1).tolist()):
                values[i] = value
    return [_verdict(state, comp, ppt, rule, sd, value, seed, decompose)
            for state, comp, ppt, rule, sd, value in zip(states, comps, ppts, rules, sds, values)]


def _verdict(state, comp, ppt, rule, sd, value, seed, decompose) -> ClassificationReport:
    """The report of one compressed state from its PPT record, whose first
    record is the rank, its :func:`_rule`, eigenvectors (``None`` where the
    rule reads none) and the rule's number ``value``, by which the product
    check's flattening ratio and the Chow rules' |F| settle their verdicts.
    A pure product, whose compressed state is ``None``, has rank 1, and a
    ``Rank1Product`` report no PPT record."""
    small = comp.state
    cdims = () if small is None else small.dims
    rank = 1 if ppt is None else ppt.records[0].rank
    # as is_product decides: a NaN ratio does not exceed the tolerance
    if rule == RULE_RANK1_PRODUCT and small is not None and value > small.cfg.tol_product:
        rule = RULE_RANK1_NON_PRODUCT
    verdict, note = _RULES[rule]
    chow = {}
    if rule == RULE_RANK1_PRODUCT:
        verdict, ppt = SEPARABLE, None
    elif verdict is None:  # a Chow rule
        mag = abs(value)
        tol = small.cfg.tol_chow
        chow = dict(chow_system=cdims, chow_value=value, chow_abs=mag,
                    low_confidence=bool(tol / 10 < mag < tol * 10))
        verdict = SEPARABLE if mag <= tol else ENTANGLED
        if verdict == ENTANGLED and rule == RULE_CHOW_222:
            bad = [rec for rec in ppt.records if rec.rank != 4]
            if bad:
                raise InconsistentTolerances(
                    "tolerance bug: entangled 2x2x2 rank-4 state has a partial "
                    f"transpose of rank != 4: {bad}"
                )

    bounds = dec = None
    if verdict == SEPARABLE:
        bounds = _bounds_for(rank, cdims, ppt)
        if bounds[0] > bounds[1]:
            raise InconsistentTolerances(
                f"tolerance bug: separable verdict with length bounds {bounds}: a partial "
                "transpose has more rank than a separable state of this rank allows"
            )
        if decompose:
            dec = _decompose(state, comp.isometries, small, sd, rank, bounds[1], seed)
    local_ranks = tuple([w.shape[1] for w in comp.isometries])
    return ClassificationReport(
        verdict, rule, state.dims, cdims, comp.dropped, rank, local_ranks, ppt, **chow,
        decomposition=dec, length_bounds=bounds, notes=(note,),
    )


# --- report serialization ---------------------------------------------------


def report_to_dict(report: ClassificationReport) -> dict:
    return to_dict(report)


def report_from_dict(obj: dict) -> ClassificationReport:
    return from_dict(ClassificationReport, obj)
