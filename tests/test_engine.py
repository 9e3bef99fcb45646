import contextlib
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sep4.chow import builtin_chow, eval_chow
from sep4.codec import from_dict, to_dict
import sep4.engine
import sep4.ppt
import sep4.states
from sep4.engine import (
    ClassificationReport,
    _classify_group,
    classify,
    length_bounds,
    report_from_dict,
    report_to_dict,
)
from sep4.errors import (
    DimensionMismatch,
    EigFailure,
    InconsistentTolerances,
    InvalidSeed,
    NotPositive,
    NotSeparableVerdict,
    Sep4Error,
    StateFormatError,
)
from sep4.gallery import (
    conjugate_local,
    divincenzo_state,
    random_local_unitaries,
    random_ppt_rank4_33,
    random_ppt_rank4_33,
    random_separable,
    two_qutrit_ab_state,
)
from sep4.grassmann import PlueckerVector, index_tuples
from sep4.oracle import (
    bipartite_kernel_product_vectors_2x2x2,
    count_kernel_product_vectors_3x3,
    find_product_vector,
    greedy_decompose,
)
from sep4.ppt import is_ppt
from sep4.states import (
    MultiState,
    ToleranceConfig,
    assemble_product,
    compress_support,
    local_ranks,
    kernel_basis,
    new_state,
    partial_transpose,
    range_basis,
    rank_of,
    spectral,
    state_from_dict,
    state_to_dict,
)


def ket(*amps):
    return np.asarray(amps, dtype=complex)


def two_qubit_curve_state(terms, seed=0):
    """Rank-3 two-qubit state: ``terms`` >= 3 weighted product vectors of one range.

    A random 2 x 2 matrix K is the kernel: a (x) b is orthogonal to it
    exactly when b is proportional to eps conj(K)^T a, eps = [[0, 1], [-1, 0]],
    so the range's product vectors form a conic, parametrized by a.  With
    four or more random points the partial transpose has rank 4, so the
    length is 4 although the rank is 3.
    """
    rng = np.random.default_rng(seed)
    kernel = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rho = np.zeros((4, 4), dtype=complex)
    for _ in range(terms):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a, eps @ kernel.conj().T @ a)
        rho += (0.5 + rng.random()) * np.outer(v, v.conj()) / np.vdot(v, v).real
    return new_state(rho, (2, 2))


def one_party_state(seed=1, rank=3):
    """A pure state of party 1 times a random state of rank ``rank`` of
    party 2 on 3x3: its support compresses to the one party (rank,)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, rank)) + 1j * rng.standard_normal((3, rank))
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u /= np.linalg.norm(u)
    return new_state(np.kron(np.outer(u, u.conj()), x @ x.conj().T), (3, 3))


def ghz_projector():
    v = np.zeros(8)
    v[0] = 1.0
    v[7] = 1.0
    return new_state(np.outer(v, v), (2, 2, 2))


class TestClassifyRules:
    def test_divincenzo_chow222(self):
        rep = classify(divincenzo_state())
        assert rep.verdict == "Entangled"
        assert rep.rule == "Chow222"
        assert rep.rank == 4
        assert rep.local_ranks == (2, 2, 2)
        assert all(rec.rank == 4 for rec in rep.ppt.records)

    def test_family_chow33_entangled(self):
        rep = classify(two_qutrit_ab_state(2.0, 0.5))
        assert rep.verdict == "Entangled"
        assert rep.rule == "Chow33"
        assert rep.chow_abs > 1e-5
        assert not rep.low_confidence

    def test_family_chow33_separable_with_decomposition(self):
        rep = classify(two_qutrit_ab_state(0.0, 1.0))
        assert rep.verdict == "Separable"
        assert rep.rule == "Chow33"
        assert rep.chow_abs <= 1e-8
        assert rep.decomposition is not None
        assert rep.decomposition.length_upper_bound <= 6

    def test_two_products_on_mixed_dims(self):
        rep = classify(random_separable((2, 3, 4), 2, seed=11))
        assert rep.verdict == "Separable"
        assert rep.rule == "PPTRank2"
        assert rep.decomposition.length_upper_bound == 2

    def test_ghz_projector_rank1_non_product(self):
        rep = classify(ghz_projector())
        assert rep.verdict == "Entangled"
        assert rep.rule == "Rank1NonProduct"
        assert rep.ppt is not None and not rep.ppt.is_ppt

    def test_pure_product(self):
        v = assemble_product((ket(1, 1j) / np.sqrt(2), ket(0, 1)))
        rep = classify(new_state(np.outer(v, v.conj()), (2, 2)))
        assert rep.verdict == "Separable"
        assert rep.rule == "Rank1Product"
        assert rep.length_bounds == (1, 1)
        assert rep.decomposition.length_upper_bound == 1

    def test_npt_rank_two(self):
        ghz = np.zeros(8)
        ghz[0] = ghz[7] = 1.0
        prod = np.zeros(8)
        prod[1] = 1.0
        m = np.outer(ghz, ghz) + np.outer(prod, prod)
        rep = classify(new_state(m, (2, 2, 2)))
        assert rep.verdict == "Entangled"
        assert rep.rule == "NPT"

    def test_full_rank_two_qubit_shape_branch(self):
        rep = classify(new_state(np.eye(4), (2, 2)))
        assert rep.verdict == "Separable"
        assert rep.rule == "PPTRank4Shape"
        assert rep.length_bounds == (4, 4)

    def test_rank4_on_2x4_shape_branch(self):
        rep = classify(random_separable((2, 4), 4, seed=9))
        assert rep.verdict == "Separable"
        assert rep.rule == "PPTRank4Shape"
        assert rep.length_bounds == (4, 4)

    def test_rank_above_four_out_of_scope(self):
        rep = classify(new_state(np.eye(6), (2, 3)))
        assert rep.verdict == "OutOfScope"
        assert rep.rule == "RankAbove4"
        assert rep.length_bounds is None

    def test_embedded_3x3_classified_after_compression(self):
        st = two_qutrit_ab_state(1.0, 1.0)
        rng = np.random.default_rng(0)

        def isometry(dout, din, seed):
            g = np.random.default_rng(seed)
            q, _ = np.linalg.qr(
                g.standard_normal((dout, din)) + 1j * g.standard_normal((dout, din))
            )
            return q

        w = np.kron(isometry(4, 3, 1), isometry(5, 3, 2))
        big = new_state(w @ st.matrix @ w.conj().T, (4, 5))
        rep = classify(big)
        assert rep.compressed_dims == (3, 3)
        assert rep.verdict == "Entangled"
        assert rep.rule == "Chow33"

    def test_product_times_qutrit_pair_compresses(self):
        sigma = random_separable((3, 3), 2, seed=13)
        m = np.kron(np.diag([1.0, 0.0]).astype(complex), sigma.matrix)
        rep = classify(new_state(m, (2, 3, 3)))
        assert rep.dropped_parties == (1,)
        assert rep.verdict == "Separable"
        assert rep.rule == "PPTRank2"


class TestLengthBounds:
    def test_rank2(self):
        rep = classify(random_separable((2, 2, 2), 2, seed=1))
        assert length_bounds(rep) == (2, 2)

    def test_rank3_two_qubit_support(self):
        rep = classify(random_separable((2, 2), 3, seed=2))
        assert length_bounds(rep) == (3, 4)

    def test_rank3_wider_support(self):
        rep = classify(random_separable((3, 3), 3, seed=3))
        assert length_bounds(rep) == (3, 3)

    def test_rank4_three_qubit(self):
        rep = classify(random_separable((2, 2, 2), 4, seed=4))
        assert rep.rank == 4 and rep.compressed_dims == (2, 2, 2)
        assert length_bounds(rep) == (4, 6)

    def test_rank4_with_local_rank_four(self):
        rep = classify(random_separable((2, 4), 4, seed=9))
        assert length_bounds(rep) == (4, 4)

    def test_rank4_tripartite_with_qutrit(self):
        rep = classify(random_separable((2, 2, 3), 4, seed=6))
        assert rep.rank == 4 and rep.compressed_dims == (2, 2, 3)
        assert length_bounds(rep) == (4, 5)

    def test_entangled_verdict_rejected(self):
        rep = classify(divincenzo_state())
        with pytest.raises(NotSeparableVerdict):
            length_bounds(rep)

    def test_reads_the_bounds_classify_stored(self):
        rep = classify(random_separable((2, 3), 3, seed=3), decompose=False)
        assert length_bounds(rep) is rep.length_bounds

    # every case decomposes: two-qubit rank 3 and 4 by Wootters' closed form
    MAY_LACK_DECOMPOSITION = set()

    BOUND_CASES = (
        [
            (f"sep-{'x'.join(map(str, dims))}-r{k}", random_separable(dims, k, seed=k))
            for dims in [(2, 3), (3, 4), (2, 2, 2), (2, 2, 3)]
            for k in (2, 3, 4)
        ]
        + [("ab-0-1", two_qutrit_ab_state(0, 1)), ("ab-1-0", two_qutrit_ab_state(1, 0))]
        + [(f"rank3-2x2-s{s}", random_separable((2, 2), 3, seed=s)) for s in range(3)]
        + [("eye-2x2", new_state(np.eye(4), (2, 2)))]
        + [(f"full-2x2-{k}", random_separable((2, 2), k, seed=k)) for k in (4, 5, 6)]
        + [(f"curve-2x2-s{s}", two_qubit_curve_state(5, seed=s)) for s in range(3)]
    )

    @pytest.mark.parametrize("name, state", BOUND_CASES, ids=[n for n, _ in BOUND_CASES])
    def test_decomposition_within_bounds(self, name, state):
        rep = classify(state)
        assert rep.verdict == "Separable"
        lo, hi = rep.length_bounds
        dec = rep.decomposition
        if dec is None:
            assert name in self.MAY_LACK_DECOMPOSITION
        else:
            assert lo <= len(dec.terms) <= hi

    @pytest.mark.parametrize("seed", range(6))
    def test_transpose_rank_raises_the_lower_bound(self, seed, check_decomposition):
        # five points of the range's product-vector conic: rank 3, but the
        # partial transpose has rank 4, so the length is exactly 4
        state = two_qubit_curve_state(5, seed=seed)
        rep = classify(state)
        assert rep.rule == "PPTRank3" and rep.rank == 3
        assert [rec.rank for rec in rep.ppt.records] == [3, 4]
        assert rep.length_bounds == length_bounds(rep) == (4, 4)
        check_decomposition(state, rep)

    @pytest.mark.parametrize(
        "state",
        [two_qubit_curve_state(3, seed=0), random_separable((2, 2), 3, seed=2)],
        ids=["curve-3", "random-3"],
    )
    def test_lower_bound_is_the_rank_when_transposes_agree(self, state, check_decomposition):
        # three product terms: the partial transpose also has rank 3
        rep = classify(state)
        assert rep.ppt.records[1].rank == 3
        assert rep.length_bounds == (3, 4)
        # Wootters' closed form always gives four terms, one more than the
        # three these states are built from: the bounds stay (3, 4) and the
        # length 3 is not certified.  An exact three-term route would show
        # here as a gain.
        assert len(rep.decomposition.terms) == 4
        check_decomposition(state, rep)

    def test_crossing_bounds_raise(self):
        # a Bell state plus product noise, let through as PPT by tol_psd:
        # rank 2 but a partial transpose of rank 4, which no sum of 2 allows
        bell = ket(1, 0, 0, 1) / np.sqrt(2)
        m = 0.9 * np.outer(bell, bell) + 0.1 * np.diag([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(InconsistentTolerances):
            classify(new_state(m, (2, 2), ToleranceConfig(tol_psd=1.0)), decompose=False)


class TestEngineConsistency:
    def test_chow_entangled_means_oracle_finds_nothing(self):
        st = two_qutrit_ab_state(1.0, 1.0)
        rep = classify(st)
        assert rep.verdict == "Entangled"
        assert find_product_vector(range_basis(st), restarts=300, seed=0) is None

    def test_chow_separable_means_oracle_finds_vector(self):
        st = two_qutrit_ab_state(0.0, 1.0)
        rep = classify(st)
        assert rep.verdict == "Separable"
        assert find_product_vector(range_basis(st), restarts=300, seed=0) is not None

    def test_verdict_invariant_under_local_unitaries(self):
        for seed, state in [(0, divincenzo_state()), (1, two_qutrit_ab_state(0.0, 1.0))]:
            base = classify(state).verdict
            rotated = conjugate_local(state, random_local_unitaries(state.dims, seed + 10))
            assert classify(rotated).verdict == base

    def test_verdict_invariant_under_partial_transposes(self):
        st = divincenzo_state()
        base = classify(st).verdict
        for subset in [(1,), (2,), (3,), (1, 2), (1, 2, 3)]:
            pt = partial_transpose(st, subset)
            assert classify(new_state(pt.matrix, pt.dims)).verdict == base

    def test_verdict_invariant_under_scaling(self):
        st = two_qutrit_ab_state(1.0, 1.0)
        base = classify(st).verdict
        for factor in (1e-3, 1e3):
            assert classify(new_state(st.matrix * factor, st.dims)).verdict == base

    @pytest.mark.parametrize(
        "state",
        [
            divincenzo_state(),
            two_qutrit_ab_state(1.0, 1.0),
            two_qutrit_ab_state(0.0, 1.0),
            two_qutrit_ab_state(0.0, 1 + 1j),
            random_ppt_rank4_33(seed=2),
            random_separable((2, 3, 4), 2, seed=11),
            random_separable((2, 2, 3), 4, seed=6),
            ghz_projector(),
            new_state(np.eye(6), (2, 3)),
            one_party_state(),
        ],
        ids=["divincenzo", "ab-1-1", "ab-0-1", "ab-npt", "ppt-rank4-33", "sep-rank2",
             "sep-rank4", "ghz", "full-rank", "one-party"],
    )
    def test_report_matches_public_helpers(self, state):
        """The engine reads local ranks, rank and PPT records off one spectral
        pass; they must equal what the public helpers compute on their own."""
        rep = classify(state, decompose=False)
        small = compress_support(state).state
        assert rep.local_ranks == tuple(local_ranks(state))
        assert rep.rank == rank_of(small)
        assert rep.ppt == is_ppt(small)


class TestEigensolveBudget:
    """Eigensolves per ``classify`` call, counted through ``numpy.linalg``
    so the bounds hold on any machine."""

    @pytest.fixture
    def eigensolves(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        def classify_counted(state, **kwargs):
            # the state is built (and validated by one eigensolve) before
            # this; the calls, each as (name, shape of its argument); a
            # list of states is classified as one group
            calls.clear()
            if isinstance(state, list):
                _classify_group(state, **kwargs)
            else:
                classify(state, **kwargs)
            return list(calls)

        return classify_counted

    # verdicts that read no eigenvector, on states with one party size: the
    # rule and the two calls classify makes
    NO_VECTORS = {
        "npt": (lambda: two_qutrit_ab_state(0.0, 1 + 1j), "NPT",
                [("eigh", (2, 3, 3)), ("eigvalsh", (2, 9, 9))]),
        "ppt-rank2": (lambda: random_separable((2, 2), 2, seed=1), "PPTRank2",
                      [("eigh", (2, 2, 2)), ("eigvalsh", (2, 4, 4))]),
        "ppt-rank3": (lambda: random_separable((2, 2, 2), 3, seed=1), "PPTRank3",
                      [("eigh", (3, 2, 2)), ("eigvalsh", (4, 8, 8))]),
        "ppt-rank4-shape": (lambda: random_separable((2, 2, 2, 2), 4, seed=1), "PPTRank4Shape",
                            [("eigh", (4, 2, 2)), ("eigvalsh", (8, 16, 16))]),
        "rank-above-4": (lambda: random_separable((3, 3), 6, seed=1), "RankAbove4",
                         [("eigh", (2, 3, 3)), ("eigvalsh", (2, 9, 9))]),
    }

    @pytest.mark.parametrize("name", list(NO_VECTORS))
    def test_verdict_without_eigenvectors_makes_two_calls(self, eigensolves, name):
        # the reduced states in one stacked eigh, then the compressed state
        # and its partial transposes in one stacked eigvalsh: no eigh on the
        # compressed state, which took a third call before the eigenvalue
        # stack
        make, rule, calls = self.NO_VECTORS[name]
        state = make()
        assert classify(state, decompose=False).rule == rule
        assert eigensolves(state, decompose=False) == calls

    def test_three_qubit_chow(self, eigensolves):
        # the 3 reduced states in one stacked call, the compressed state and
        # its 3 partial transposes in one stacked call, the compressed
        # state's eigenvectors for the Chow form; 13 before the single pass,
        # 7 before the stacked reduced states, 5 before the stacked partial
        # transposes
        assert len(eigensolves(divincenzo_state())) <= 3

    def test_two_qutrit_chow(self, eigensolves):
        # 2 reduced states stacked, the compressed state with its partial
        # transpose, its eigenvectors; 9 before the single pass, 4 before
        # the stacked ones
        assert len(eigensolves(two_qutrit_ab_state(1, 1))) <= 3

    def test_pure_product_with_decomposition(self, eigensolves):
        # the product factors come from the compression's one stacked
        # eigensolve of the reduced states; 6 before the single pass, then 2
        v = assemble_product((ket(1, 1j) / np.sqrt(2), ket(0, 1)))
        assert len(eigensolves(new_state(np.outer(v, v.conj()), (2, 2)), decompose=True)) <= 1

    def test_exact_cut_decomposition_makes_no_eigensolve(self, eigensolves):
        # the exact path reuses the compressed state's spectrum, which the
        # Chow form already read: SVDs and a non-Hermitian eig of at most
        # 4 x 4 only
        for state in (random_separable((2, 2, 2), 4, seed=1), two_qutrit_ab_state(0, 1)):
            assert eigensolves(state, decompose=True) == eigensolves(state, decompose=False)

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_two_qubit_decomposition_adds_one_eigensolve(self, eigensolves, k):
        # Wootters' Takagi step, one eigensolve of a real 2r x 2r matrix,
        # on top of the reduced states, the eigenvalue stack and the
        # compressed state's eigenvectors that the decomposition reads
        state = random_separable((2, 2), k, seed=k)
        assert len(eigensolves(state, decompose=True)) == 4


    GROUPS = {
        "ppt-rank3": lambda seed: random_separable((2, 2, 2), 3, seed=seed),
        "chow222": lambda seed: conjugate_local(
            divincenzo_state(), random_local_unitaries((2, 2, 2), seed=seed)),
        "chow33": lambda seed: random_separable((3, 3), 4, seed=seed),
    }

    @pytest.mark.parametrize("decompose", [False, True])
    @pytest.mark.parametrize("name", list(GROUPS))
    def test_group_makes_the_calls_of_one_state(self, eigensolves, name, decompose):
        # each stage is one stacked call for the whole group
        states = [self.GROUPS[name](seed) for seed in range(24)]
        one = eigensolves(states[:1], decompose=decompose)
        assert one == eigensolves(states[0], decompose=decompose)
        assert len(eigensolves(states, decompose=decompose)) <= len(one)


class TestDecompositionBudget:
    """Peel searches per ``classify`` call: none where the range's product
    vectors decompose the state, else one pass of at most
    ``length_bounds[1]`` searches, and no retry."""

    def test_forced_separable_divincenzo_searches_once(self, peel_searches):
        # its range holds no product vector, so the first search ends the pass
        state = divincenzo_state(ToleranceConfig(tol_chow=1e6))
        rep, searches = peel_searches(state)
        assert rep.verdict == "Separable" and rep.decomposition is None
        assert searches == 1

    def test_full_rank_two_qubit_within_upper_bound(self, peel_searches, check_decomposition):
        state = random_separable((2, 2), 4, seed=4)
        rep, searches = peel_searches(state)
        assert rep.length_bounds == (4, 4)
        assert searches == 0 and len(rep.decomposition.terms) == 4
        check_decomposition(state, rep)

    # a range whose r product vectors its minor quadrics cut out: exact, no peel
    EXACT = [((2, 4), 4), ((3, 3), 4), ((3, 4), 2), ((3, 4), 3), ((3, 4), 4), ((2, 2, 2), 3),
             ((2, 2, 2), 4), ((2, 2, 3), 4), ((2, 2, 2, 2), 2), ((2, 2, 2, 2), 3),
             ((2, 2, 2, 2), 4)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "dims, k", EXACT, ids=[f"{'x'.join(map(str, d))}-r{k}" for d, k in EXACT]
    )
    def test_rank_matching_cut_skips_the_peel(
        self, peel_searches, dims, k, seed, check_decomposition
    ):
        state = random_separable(dims, k, seed=seed)
        rep, searches = peel_searches(state)
        assert searches == 0
        assert rep.rank == k and len(rep.decomposition.terms) == k
        check_decomposition(state, rep)

    def test_degenerate_cut_pencil_decomposes_without_the_peel(
        self, peel_searches, check_decomposition
    ):
        # every cut pencil has a doubly degenerate spectrum: across 1 | 23 the
        # range holds the cut products |0>(x|00> + y|11>) and |1>(x|01> + y|10>);
        # its full product vectors are only the four basis vectors
        m = np.zeros((8, 8))
        for i in (0b000, 0b011, 0b101, 0b110):
            m[i, i] = 1.0
        state = new_state(m, (2, 2, 2))
        rep, searches = peel_searches(state)
        assert rep.verdict == "Separable" and searches == 0
        assert len(rep.decomposition.terms) == 4
        check_decomposition(state, rep)

    @pytest.mark.parametrize(
        "a, b", [(0, 1), (1, 0), (0, 0.7)], ids=["ab-0-1", "ab-1-0", "ab-0-0.7"]
    )
    def test_separable_two_qutrit_family_skips_the_peel(
        self, peel_searches, a, b, check_decomposition
    ):
        # no rest side has rank 4, but the range holds exactly four product vectors
        state = two_qutrit_ab_state(a, b)
        rep, searches = peel_searches(state)
        assert rep.rule == "Chow33" and searches == 0
        assert len(rep.decomposition.terms) == 4
        check_decomposition(state, rep)

    @pytest.mark.parametrize("state", [random_separable((2, 2), 3, seed=0)], ids=["2x2-r3"])
    def test_two_qubit_conic_range_skips_the_peel(self, peel_searches, state, check_decomposition):
        # a two-qubit rank-3 range holds a conic of product vectors: Wootters
        rep, searches = peel_searches(state)
        assert searches == 0
        check_decomposition(state, rep)

    def test_rank_one_range_makes_no_peel_search(self, peel_searches):
        # a loose tol_product calls |00> + 1e-4 |11> product with local ranks
        # (2, 2): its one range vector is the only candidate, and it misses
        # the state by about 1.4e-4 * trace
        v = ket(1, 0, 0, 1e-4)
        v /= np.linalg.norm(v)
        state = new_state(np.outer(v, v.conj()), (2, 2), ToleranceConfig(tol_product=1e-3))
        rep, searches = peel_searches(state)
        assert rep.rule == "Rank1Product" and rep.local_ranks == (2, 2)
        assert searches == 0 and rep.decomposition is None

    def test_dropped_party_lifted_to_original_dims(self, peel_searches, check_decomposition):
        pure = np.zeros((2, 2))
        pure[0, 0] = 1.0
        state = new_state(np.kron(pure, random_separable((2, 3), 3, seed=0).matrix), (2, 2, 3))
        rep, searches = peel_searches(state)
        assert rep.dropped_parties == (1,) and searches == 0
        for term in rep.decomposition.terms:
            assert [f.shape for f in term.factors] == [(2,), (2,), (3,)]
        check_decomposition(state, rep)

    @pytest.mark.parametrize("seed", range(4))
    def test_qubit_qutrit_rank_four_peel_within_upper_bound(
        self, peel_searches, seed, check_decomposition
    ):
        # the range holds a curve of product vectors, so only the peel answers
        state = random_separable((2, 3), 4, seed=seed)
        rep, searches = peel_searches(state)
        assert rep.compressed_dims == (2, 3) and rep.rank == 4
        assert 0 < searches <= rep.length_bounds[1]
        check_decomposition(state, rep)


class TestTwoQubitDecomposition:
    """Compressed two-qubit states of rank 3 and 4 decompose by Wootters'
    closed form into four product terms, with no peel search."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
    def test_random_separable(self, peel_searches, k, seed, check_decomposition):
        state = random_separable((2, 2), k, seed=seed)
        rep, searches = peel_searches(state)
        assert searches == 0
        check_decomposition(state, rep)

    def test_singular_tau(self, peel_searches, check_decomposition):
        # |00>, |01>, |10> weighted: tau = X^T (sigma_y x sigma_y) X pairs
        # |01> with |10> and sends |00> to zero
        base = new_state(np.diag([0.5, 0.3, 0.2, 0.0]), (2, 2))
        state = conjugate_local(base, random_local_unitaries((2, 2), 3))
        w, v = np.linalg.eigh(state.matrix)
        x = v[:, 1:] * np.sqrt(w[1:])
        yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
        s = np.linalg.svd(x.T @ yy @ x, compute_uv=False)
        assert s[-1] <= 1e-12 * s[0]
        rep, searches = peel_searches(state)
        assert rep.rank == 3 and searches == 0
        check_decomposition(state, rep)

    def test_identity(self, peel_searches, check_decomposition):
        # every Takagi value equal: the triangle is degenerate (s, s, 2s)
        state = new_state(np.eye(4), (2, 2))
        rep, searches = peel_searches(state)
        assert searches == 0 and len(rep.decomposition.terms) == 4
        check_decomposition(state, rep)

    @pytest.mark.parametrize("k", [3, 4])
    def test_lifted_through_a_compressed_party(self, peel_searches, k, check_decomposition):
        # the qutrit is supported on two dimensions only
        rng = np.random.default_rng(k)
        q, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        w = np.kron(np.eye(2), q)
        base = random_separable((2, 2), k, seed=k).matrix
        state = new_state(w @ base @ w.conj().T, (2, 3))
        rep, searches = peel_searches(state)
        assert rep.compressed_dims == (2, 2) and searches == 0
        check_decomposition(state, rep)

    def test_lifted_through_a_dropped_party(self, peel_searches, check_decomposition):
        pure = np.diag([0.0, 1.0])
        state = new_state(np.kron(pure, random_separable((2, 2), 4, seed=1).matrix), (2, 2, 2))
        rep, searches = peel_searches(state)
        assert rep.dropped_parties == (1,) and rep.compressed_dims == (2, 2)
        assert searches == 0
        for term in rep.decomposition.terms:
            assert [f.shape for f in term.factors] == [(2,), (2,), (2,)]
        check_decomposition(state, rep)

    # Bell weight p plus product noise: concurrence above tol_psd * lambda_max,
    # while tol_psd lets the negative partial-transpose eigenvalue pass
    LET_THROUGH = {
        # rank 3: p = 0.7 on |01>, |10> noise; eigenvalue -0.2, concurrence 0.4
        "rank3": (0.7, np.diag([0.0, 1.0, 1.0, 0.0]) / 2, 0.4),
        # rank 4: Werner p = 0.5; eigenvalue -0.125, concurrence 0.25
        "rank4": (0.5, np.eye(4) / 4, 0.3),
    }

    @pytest.mark.parametrize("name", list(LET_THROUGH))
    def test_entangled_state_let_through_raises(self, name):
        p, noise, tol_psd = self.LET_THROUGH[name]
        bell = ket(1, 0, 0, 1) / np.sqrt(2)
        state = new_state(p * np.outer(bell, bell) + (1 - p) * noise, (2, 2),
                          ToleranceConfig(tol_psd=tol_psd))
        rep = classify(state, decompose=False)
        assert rep.verdict == "Separable" and rep.rank == int(name[-1])
        with pytest.raises(InconsistentTolerances, match="concurrence"):
            classify(state)


def bell_plus_noise():
    bell = ket(1, 0, 0, 1) / np.sqrt(2)
    noise = ket(0, 1, 0, 0)
    return new_state(0.9 * np.outer(bell, bell) + 0.1 * np.outer(noise, noise), (2, 2))


class TestReportSerialization:
    REPORT_KEYS = [
        "verdict", "rule", "dims", "compressed_dims", "dropped_parties", "rank",
        "local_ranks", "ppt", "chow_system", "chow_value", "chow_abs",
        "low_confidence", "decomposition", "length_bounds", "notes",
    ]

    @pytest.mark.parametrize(
        "state, rule",
        [
            (divincenzo_state(), "Chow222"),
            (two_qutrit_ab_state(0.0, 1.0), "Chow33"),
            (new_state(np.eye(6), (2, 3)), "RankAbove4"),
            (new_state(np.outer(ket(0, 1, 0, 0), ket(0, 1, 0, 0)), (2, 2)), "Rank1Product"),
            (bell_plus_noise(), "NPT"),
        ],
        ids=["entangled", "separable", "out-of-scope", "pure-product", "npt"],
    )
    def test_json_round_trip(self, state, rule):
        report = classify(state)
        assert report.rule == rule
        blob = json.dumps(report_to_dict(report))
        payload = json.loads(blob)
        back = report_from_dict(payload)
        assert isinstance(back, ClassificationReport)
        # compare bytes: dict equality would not see a reordered field
        assert json.dumps(report_to_dict(back)) == blob
        assert list(payload) == self.REPORT_KEYS
        if payload["ppt"] is not None:
            assert list(payload["ppt"]) == ["is_ppt", "worst_subset", "records"]
            for record in payload["ppt"]["records"]:
                assert list(record) == ["subset", "min_eigenvalue", "rank"]
        if payload["decomposition"] is not None:
            assert list(payload["decomposition"]) == ["residual", "length_upper_bound", "terms"]
            for term in payload["decomposition"]["terms"]:
                assert list(term) == ["weight", "factors"]

    def test_field_without_a_json_form_is_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Counts:
            counts: dict[str, int]

        with pytest.raises(TypeError, match="no JSON form for annotation"):
            to_dict(Counts({"a": 1}))

    @pytest.mark.parametrize("call", [
        lambda: report_from_dict({}),
        lambda: from_dict(MultiState, {}),
        lambda: report_from_dict([]),
        lambda: to_dict(3),
        lambda: to_dict(MultiState),
    ], ids=["report-without-keys", "state-without-keys", "report-not-a-dict",
            "not-a-dataclass", "a-dataclass-class"])
    def test_what_is_not_a_json_form_is_a_format_error(self, call):
        with pytest.raises(StateFormatError):
            call()

    def test_negative_zero_survives_round_trip(self):
        # JSON keeps a real part of -0.0 beside a nonzero imaginary part
        from sep4.codec import from_pairs, to_pairs

        blob = json.dumps(to_pairs(np.array([complex(-0.0, 7.5e-19), complex(1.0, -0.0)])))
        assert json.dumps(to_pairs(from_pairs(json.loads(blob)))) == blob

    def test_rule_matches_enum_string(self):
        payload = report_to_dict(classify(divincenzo_state()))
        assert payload["rule"] == "Chow222"
        assert payload["verdict"] == "Entangled"


class TestBorderlineFlag:
    def test_low_confidence_near_threshold(self):
        state = divincenzo_state()
        base = classify(state)
        assert not base.low_confidence
        # pick the threshold so the Chow value lands within a factor 10
        cfg = ToleranceConfig(tol_chow=base.chow_abs / 3)
        shifted = new_state(state.matrix, state.dims, cfg)
        rep = classify(shifted, decompose=False)
        assert rep.verdict == "Entangled"
        assert rep.low_confidence


class TestSeed:
    """``classify``'s seed is checked once, where a group enters, before
    any stage: one that is not a non-negative integer raises
    ``InvalidSeed`` on every verdict, with or without decomposition,
    where numpy raised ``ValueError`` or ``TypeError`` on separable
    verdicts alone."""

    @pytest.mark.parametrize("decompose", [False, True])
    @pytest.mark.parametrize("seed", [-1, 1.5, "1", None], ids=repr)
    def test_bad_seed_raises_invalid_seed(self, seed, decompose):
        for state in (random_separable((3, 3), 3, seed=1), divincenzo_state()):
            with pytest.raises(InvalidSeed, match="non-negative integer"):
                classify(state, seed=seed, decompose=decompose)

    def test_checked_before_any_stage(self, monkeypatch):
        def stage(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(sep4.engine, "_classify_stacked", stage)
        with pytest.raises(InvalidSeed):
            _classify_group([divincenzo_state(), MultiState(-np.eye(4), (2, 2))], -1)

    @pytest.mark.parametrize("call", [
        lambda seed: greedy_decompose(random_separable((2, 3), 4, 0), seed=seed),
        lambda seed: find_product_vector(range_basis(random_separable((3, 3), 4, 1)), seed=seed),
        lambda seed: find_product_vector(range_basis(random_separable((3, 3), 4, 1)),
                                         restarts=seed),
        lambda seed: count_kernel_product_vectors_3x3(kernel_basis(random_ppt_rank4_33(0)),
                                                      seed=seed),
        lambda seed: bipartite_kernel_product_vectors_2x2x2(divincenzo_state(), 1, seed=seed),
        lambda seed: random_separable((2, 3), 3, seed=seed),
        lambda seed: random_local_unitaries((2, 3), seed=seed),
        lambda seed: random_ppt_rank4_33(seed=seed),
    ], ids=[
        "greedy_decompose", "find_product_vector", "find_product_vector-restarts",
        "count_kernel_product_vectors_3x3", "bipartite_kernel_product_vectors_2x2x2",
        "random_separable", "random_local_unitaries", "random_ppt_rank4_33",
    ])
    @pytest.mark.parametrize("seed", [-1, 1.5, None], ids=repr)
    def test_every_public_seed_is_checked(self, call, seed):
        # the one seed check, where numpy raised ValueError or TypeError
        with pytest.raises(InvalidSeed, match="non-negative integer"):
            call(seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        state = random_separable((3, 3), 3, seed=1)
        assert outcome(classify(state, seed=np.int64(7))) == outcome(classify(state, seed=7))


class TestOneRankRule:
    """``states._rank_from_eigenvalues`` counts each operator's rank once:
    the reduced states' in the compression, and the compressed state's
    with its partial transposes' in ``is_ppt``'s records, whose first is
    the report's rank."""

    @pytest.mark.parametrize("make, calls", [
        (divincenzo_state, 7),
        (lambda: random_separable((3, 3), 3, seed=1), 4),
    ], ids=["divincenzo", "separable-3x3"])
    def test_one_count_per_operator(self, make, calls, monkeypatch):
        state = make()
        counted = []
        real = sep4.states._rank_from_eigenvalues

        def spy(eigs, tol_rank):
            counted.append(len(eigs))
            return real(eigs, tol_rank)

        for module in (sep4.states, sep4.ppt):
            monkeypatch.setattr(module, "_rank_from_eigenvalues", spy)
        report = classify(state, decompose=False)
        assert len(counted) == calls
        assert report.rank == report.ppt.records[0].rank
        assert len(report.ppt.records) == calls - len(state.dims)


class TestUnvalidatedInput:
    """A MultiState built directly skips ``new_state``; ``classify`` runs
    ``new_state`` on it, so it rejects what ``new_state`` rejects, a bad
    layout or entry before any eigensolve."""

    @pytest.mark.parametrize("entry, error", [
        (0.0, NotPositive),
        (np.nan, DimensionMismatch),
        (np.inf, DimensionMismatch),
        (-np.inf, DimensionMismatch),
        (complex(1.0, np.nan), DimensionMismatch),
    ])
    def test_rejected_with_a_package_error(self, entry, error, monkeypatch):
        m = np.zeros((4, 4), dtype=complex)
        if entry != 0.0:
            m[0, 0], m[1, 1], m[0, 3] = 1.0, 1.0, entry

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve before the input check")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, no_eigensolve)
        for check in (classify, compress_support):
            with pytest.raises(error):
                check(MultiState(m, (2, 2)))

    @pytest.mark.parametrize("matrix, dims", [
        (np.eye(4)[:2], (2, 2)),
        (np.ones(4), (4,)),
        (np.eye(4), (2, 3)),
        (np.eye(4), ()),
    ], ids=["not-square", "1-d", "dims-product", "no-dims"])
    def test_shape_that_does_not_fit_dims(self, matrix, dims):
        for check in (classify, compress_support):
            with pytest.raises(DimensionMismatch):
                check(MultiState(matrix, dims))

    @pytest.mark.parametrize("dims, i, j", [((1, 3), 0, 2), ((2, 2), 0, 3)],
                             ids=["one-dim-party", "two-qubit"])
    def test_zero_reduced_state(self, dims, i, j):
        # a lone symmetric off-diagonal pair: the reduced state of party 1
        # (and on two qubits, of both parties) is zero, which no nonzero
        # PSD state has.  Its eigenvalues are -1 and 1, so new_state's PSD
        # check rejects it; tol_psd=1.0 lets it through to the compression
        m = np.zeros((np.prod(dims),) * 2, dtype=complex)
        m[i, j] = m[j, i] = 1.0
        for check in (classify, compress_support):
            with pytest.raises(NotPositive, match=r"eigenvalue -1\.000e\+00 below -tol_psd"):
                check(MultiState(m, dims))
            with pytest.raises(NotPositive, match="reduced state of party 1 is zero"):
                check(MultiState(m, dims, ToleranceConfig(tol_psd=1.0)))

    @staticmethod
    def repro(name):
        """Directly built matrices that got a verdict, or another error,
        when the verdict path checked only their layout and entries."""
        if name == "non-hermitian":
            a = np.random.default_rng(0).standard_normal((9, 9))
            return random_separable((3, 3), 4, seed=1).matrix + 0.5j * (a + a.T), (3, 3)
        if name == "nan-spectrum":
            z = 1.3e308 * (1 + 1j)
            return np.array([[1, z], [np.conj(z), 1]]), (2,)
        product = {"negated-01": (np.diag([0.0, 1, 0, 0]), (2, 2)),
                   "negated-one-dim": (np.eye(1), (1,)),
                   "negated-qutrit": (np.diag([1.0, 0, 0]), (3,))}
        m, dims = product[name]
        return -m, dims

    @pytest.mark.parametrize("name", [
        "non-hermitian", "negated-01", "negated-one-dim", "negated-qutrit", "nan-spectrum"])
    def test_raises_new_states_error(self, name):
        m, dims = self.repro(name)
        with pytest.raises(Sep4Error) as want:
            new_state(m, dims)
        same = pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$")
        for decompose in (False, True):
            with same:
                classify(MultiState(m, dims), decompose=decompose)
        with same:
            compress_support(MultiState(m, dims))

    def test_replaced_tolerances_are_checked_again(self):
        # new_state accepts the indefinite pair under tol_psd=1.0; a copy
        # with the default tolerances carries no mark, so it is checked
        m = np.zeros((4, 4), dtype=complex)
        m[0, 3] = m[3, 0] = 1.0
        loose = new_state(m, (2, 2), ToleranceConfig(tol_psd=1.0))
        strict = dataclasses.replace(loose, cfg=ToleranceConfig())
        with pytest.raises(NotPositive, match="below -tol_psd"):
            classify(strict)

    def test_non_finite_entry_outside_every_reduced_state(self):
        # |00><11| appears in no single-party reduced state
        m = np.eye(4, dtype=complex)
        m[0, 3] = m[3, 0] = np.nan
        with pytest.raises(DimensionMismatch):
            classify(MultiState(m, (2, 2)), decompose=False)

    @pytest.mark.parametrize("decompose", [False, True])
    @pytest.mark.parametrize("make", [
        lambda s: -s,
        lambda s: s - 1e-3 * np.eye(9),
        lambda s: 1e-320 * s,
    ], ids=["negated", "shifted", "subnormal"])
    def test_compressed_state_that_is_not_psd(self, make, decompose, monkeypatch):
        # new_state rejects each of these; classify runs new_state on a
        # directly built state, so the rejection, with new_state's message,
        # costs its one eigvalsh and no other eigensolve
        m = make(random_separable((3, 3), 4, seed=1).matrix)
        with pytest.raises(NotPositive) as want:
            new_state(m, (3, 3))
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *args, _real=real, **kw: calls.append(1) or _real(*args, **kw))
        with pytest.raises(NotPositive, match=re.escape(str(want.value))):
            classify(MultiState(m, (3, 3)), decompose=decompose)
        assert len(calls) == 1


class TestClassifyContract:
    """On any directly built ``MultiState`` of 1 to 3 parties of dimension 1
    to 3, ``classify`` returns a report or raises a ``Sep4Error``, with and
    without decomposition, and a negated state raises ``NotPositive``; on
    the states ``new_state`` accepts, a PPT state of rank 2 or 3 is
    separable and only a 3x3 or 2x2x2 support gets an entangled Chow
    verdict.

    Only a separable rank-4 state whose support compresses to 2x3 takes the
    greedy peel (47 to 226 ms a call): on 2x3, with any parties of
    dimension 1, the separable kind draws at most 3 terms unless ``peel``
    is 0, one example in 64, so that 200 examples run in a few seconds."""

    KINDS = ("random", "separable", "negated", "indefinite", "pair", "tiny", "huge")

    @staticmethod
    def matrix(kind, dims, rank, seed):
        rng = np.random.default_rng(seed)
        d = math.prod(dims)
        if kind == "pair":
            # a lone symmetric off-diagonal pair: indefinite, and with two
            # parties or more some reduced state is zero
            i, j = rng.choice(d, 2, replace=False)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            return m
        if kind == "separable":
            return random_separable(dims, rank, seed).matrix
        x = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        signs = np.ones(rank)
        if kind == "indefinite":
            signs[0] = -1.0
        m = (x * signs) @ x.conj().T
        if kind == "nonhermitian":
            a = rng.standard_normal((d, d))
            return m + 0.5j * (a + a.T)
        return {"negated": -m, "tiny": 1e-300 * m, "huge": 1e300 * m, "zero": 0 * m}.get(kind, m)

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 4),
           st.sampled_from(KINDS), st.integers(0, 2**16), st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_report_or_package_error(self, dims, rank, kind, seed, peel):
        dims = tuple(dims)
        d = math.prod(dims)
        assume(kind != "pair" or d > 1)
        if kind == "separable" and sorted(p for p in dims if p > 1) == [2, 3] and peel:
            rank = min(rank, 3)
        m = self.matrix(kind, dims, min(rank, d), seed)
        for decompose in (False, True):
            try:
                classify(MultiState(m, dims), decompose=decompose)
            except Sep4Error:
                pass
        if kind == "negated":
            for decompose in (False, True):
                with pytest.raises(NotPositive):
                    classify(MultiState(m, dims), decompose=decompose)
        try:
            state = new_state(m, dims)
        except Sep4Error:
            return
        rep = classify(state, decompose=False)
        if rep.ppt is not None and rep.ppt.is_ppt and rep.rank in (2, 3):
            assert rep.verdict == "Separable"
        if rep.verdict == "Entangled" and rep.rule in ("Chow33", "Chow222"):
            assert rep.compressed_dims in ((3, 3), (2, 2, 2))


def result_of(state, **kwargs):
    """``classify``'s report, or the package error it raises."""
    try:
        return classify(state, **kwargs)
    except Sep4Error as exc:
        return exc


@contextlib.contextmanager
def counted_eigensolves():
    """The eigensolver calls made through ``numpy.linalg`` inside the
    block, by name; patched and restored by hand, so that a Hypothesis
    test can count per example."""
    calls = []
    real = {name: getattr(np.linalg, name) for name in ("eig", "eigh", "eigvalsh")}

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)
            return real[name](*args, **kwargs)
        return call

    try:
        for name in real:
            setattr(np.linalg, name, counted(name))
        yield calls
    finally:
        for name, fn in real.items():
            setattr(np.linalg, name, fn)


class TestOneValidation:
    """``classify`` on a directly built ``MultiState`` raises exactly when
    ``new_state`` raises, with its class and message, and otherwise gives
    the report of the state ``new_state`` builds, byte for byte, in both
    ``decompose`` modes.  So does the state JSON round trip, whose parser
    raises ``new_state``'s message as a ``StateFormatError``.  Shapes of 1
    to 5 parties of dimension 1 to 4, at most 32 in all, ranks 1 to 5;
    :class:`TestClassifyContract`'s guard keeps the peel to one 2x3
    example in 64.  The ``classify`` seed is drawn as well: a negative one
    raises ``InvalidSeed`` on every state, valid or not, in both modes,
    and the example then goes on with its complement ``-seed - 1``.  On a
    ``new_state``-built state without decomposition, ``classify`` makes
    at most one eigensolver call per distinct party dimension (the reduced
    states) and two more (the eigenvalue stack and the eigenvectors)."""

    KINDS = TestClassifyContract.KINDS + ("nonhermitian", "zero")

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=5).filter(lambda ds: math.prod(ds) <= 32),
           st.integers(1, 5), st.sampled_from(KINDS), st.integers(0, 2**16), st.integers(0, 63),
           st.integers(-(2**16), 2**16))
    @settings(max_examples=200, deadline=None)
    def test_classify_raises_what_new_state_raises(self, dims, rank, kind, seed, peel, cseed):
        dims = tuple(dims)
        d = math.prod(dims)
        assume(kind != "pair" or d > 1)
        if kind == "separable" and sorted(p for p in dims if p > 1) == [2, 3] and peel:
            rank = min(rank, 3)
        m = TestClassifyContract.matrix(kind, dims, min(rank, d), seed)
        try:
            valid, error = new_state(m, dims), None
        except Sep4Error as exc:
            valid, error = None, exc
        try:
            parsed = state_from_dict(state_to_dict(MultiState(m, dims)))
        except StateFormatError as exc:
            assert error is not None and str(exc) == str(error)
            parsed = error
        if cseed < 0:
            for decompose in (False, True):
                for state in filter(None, (MultiState(m, dims), valid)):
                    assert isinstance(result_of(state, seed=cseed, decompose=decompose),
                                      InvalidSeed)
            cseed = -cseed - 1
        for decompose in (False, True):
            direct = result_of(MultiState(m, dims), seed=cseed, decompose=decompose)
            if valid is None:
                assert outcome(direct) == outcome(error)
                continue
            with counted_eigensolves() as calls:
                want = result_of(valid, seed=cseed, decompose=decompose)
            if not decompose:
                assert len(calls) <= len(set(dims)) + 2, calls
            assert isinstance(want, ClassificationReport)
            assert outcome(direct) == outcome(
                result_of(parsed, seed=cseed, decompose=decompose)) == outcome(want)
            if want.verdict == "Separable" and want.decomposition is not None:
                lo, hi = want.length_bounds
                assert lo <= len(want.decomposition.terms) <= hi


class TestScale:
    """A scale factor s moves the weights by exactly s: every decomposition,
    the peel's included, runs on the operators divided by an even power of
    two near the trace, so nothing in it overflows or underflows."""

    STATES = {
        "2x2-r3": lambda: two_qubit_curve_state(5, seed=0),
        "2x2-r4": lambda: random_separable((2, 2), 4, seed=0),
        "3x3-r4": lambda: random_separable((3, 3), 4, seed=0),
        "2x2x2-r4": lambda: random_separable((2, 2, 2), 4, seed=0),
        "2x3-r2": lambda: random_separable((2, 3), 2, seed=0),
        "2x2-r2": lambda: random_separable((2, 2), 2, seed=0),
        "2x3-r1": lambda: random_separable((2, 3), 1, seed=0),
        "2x3-r4-peel": lambda: random_separable((2, 3), 4, seed=4),
        "ab-0-0-peel": lambda: two_qutrit_ab_state(0, 0),
    }

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize("name", list(STATES))
    def test_weights_scale_exactly(self, name, scale, check_decomposition):
        base = self.STATES[name]()
        ref = classify(base)
        state = new_state(scale * base.matrix, base.dims)
        rep = classify(state)
        assert (rep.verdict, rep.rule) == (ref.verdict, ref.rule)
        assert rep.decomposition is not None
        assert rep.decomposition.residual <= 1e-8 * state.trace
        weights = np.sort([t.weight for t in rep.decomposition.terms])
        want = np.sort([t.weight for t in ref.decomposition.terms])
        np.testing.assert_allclose(weights, scale * want, rtol=1e-12)

    @pytest.mark.parametrize("name", list(STATES))
    def test_subnormal_trace(self, name, check_decomposition):
        # at a trace below 2^-1022 the rescale stops at 2^1022, so that it
        # stays finite; the scaled input is rounded to multiples of
        # 2^-1074, about 5e-14 of the trace, which bounds the weights'
        # agreement instead of rounding at 1
        base = self.STATES[name]()
        ref = classify(base)
        state = new_state(1e-310 * base.matrix, base.dims)
        rep = classify(state)
        assert (rep.verdict, rep.rule) == (ref.verdict, ref.rule)
        check_decomposition(state, rep)
        assert rep.decomposition.residual <= 1e-8 * state.trace
        weights = np.sort([t.weight for t in rep.decomposition.terms])
        want = np.sort([t.weight for t in ref.decomposition.terms])
        np.testing.assert_allclose(weights, 1e-310 * want, rtol=1e-10)

    @pytest.mark.parametrize("decompose", [False, True])
    def test_subnormal_chow33(self, decompose):
        state = new_state(1e-310 * random_separable((3, 3), 4, seed=1).matrix, (3, 3))
        rep = classify(state, decompose=decompose)
        assert (rep.verdict, rep.rule) == ("Separable", "Chow33")
        assert (rep.decomposition is not None) == decompose

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_pure_entangled_state(self, scale):
        # a complex rank-1 state whose squared entries overflow still reads
        # its leading eigenvector
        v = np.array([1, 0.3j, 0.2 - 0.1j, 1e-4])
        v = v / np.linalg.norm(v)
        rep = classify(new_state(scale * np.outer(v, v.conj()), (2, 2)))
        assert (rep.verdict, rep.rule, rep.rank) == ("Entangled", "Rank1NonProduct", 1)

    @pytest.mark.parametrize("decompose", [False, True])
    @pytest.mark.parametrize("make", [new_state, MultiState], ids=["new_state", "direct"])
    def test_trace_near_the_float_limit(self, make, decompose):
        # a trace of 1.78e308: the symmetrization halves before it adds, so
        # no entry overflows and no verdict is read off NaN
        state = make(8.9e307 * random_separable((2, 3), 2, seed=1).matrix, (2, 3))
        rep = classify(state, decompose=decompose)
        assert (rep.verdict, rep.rule, rep.rank) == ("Separable", "PPTRank2", 2)
        assert (rep.decomposition is not None) == decompose

    def test_trace_that_overflows_is_rejected(self):
        matrix = 1e308 * random_separable((2, 3), 2, seed=1).matrix
        with pytest.raises(DimensionMismatch, match="trace inf is not a finite float"):
            new_state(matrix, (2, 3))
        for decompose in (False, True):
            with pytest.raises(DimensionMismatch, match="trace inf is not a finite float"):
                classify(MultiState(matrix, (2, 3)), decompose=decompose)


class TestChowDrift:
    """The Chow value from wedge-product minors, against the same value
    from one LAPACK determinant per minor: the verdict, the rule and the
    ``low_confidence`` flag agree, an entangled |F| moves by at most
    1e-13 of itself and a separable one stays at rounding level."""

    GRID = [0.0, 0.5, 1.0, 1 + 1j, 2.0]

    @staticmethod
    def lu_chow_abs(state):
        small = compress_support(state).state
        rows = spectral(small).eigenvectors[:, :4].T
        k, d = rows.shape
        raw = np.linalg.det(np.moveaxis(rows[:, np.array(index_tuples(d, k)) - 1], 1, 0))
        lead = int(np.flatnonzero(np.abs(raw) > 1e-12 * np.abs(raw).max())[0])
        phase = raw[lead] / abs(raw[lead])
        normalized = raw / (np.linalg.norm(raw) * phase)
        p = PlueckerVector(k=k, d=d, tuples=index_tuples(d, k), raw=raw, normalized=normalized)
        return abs(eval_chow(builtin_chow(small.dims), p))

    def check(self, state):
        rep = classify(state, decompose=False)
        assert rep.rule in ("Chow33", "Chow222")
        ref = self.lu_chow_abs(state)
        tol = state.cfg.tol_chow
        assert rep.verdict == ("Separable" if ref <= tol else "Entangled")
        assert rep.low_confidence == (tol / 10 < ref < tol * 10)
        if ref > 1e-6:
            assert abs(rep.chow_abs - ref) <= 1e-13 * ref
        else:
            assert max(rep.chow_abs, ref) <= 1e-12

    def test_random_ppt_rank4_33(self):
        for seed in range(100):
            self.check(random_ppt_rank4_33(seed=seed))

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
    def test_random_separable(self, dims):
        for seed in range(20):
            self.check(random_separable(dims, 4, seed=seed))

    def test_divincenzo(self):
        self.check(divincenzo_state())

    def test_two_qutrit_grid(self):
        checked = 0
        for a in self.GRID:
            for b in self.GRID:
                state = two_qutrit_ab_state(a, b)
                if classify(state, decompose=False).rule in ("Chow33", "Chow222"):
                    self.check(state)
                    checked += 1
        assert checked > 0


def outcome(result) -> str:
    """A report as its JSON text, an error as its class and message."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return json.dumps(report_to_dict(result))


def alone(state, **kwargs) -> str:
    try:
        return outcome(classify(state, **kwargs))
    except Exception as exc:
        return outcome(exc)


def pure_state(dims, seed, product=False):
    """A random pure state on ``dims``: a random product vector, or a random
    vector (entangled)."""
    rng = np.random.default_rng(seed)
    if product:
        v = assemble_product([rng.standard_normal(dp) + 1j * rng.standard_normal(dp)
                              for dp in dims])
    else:
        d = int(np.prod(dims))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return new_state(np.outer(v, v.conj()), dims)


def npt_mixture(dims, seed):
    """A random pure state plus a little of a product: NPT."""
    pure, noise = pure_state(dims, seed), pure_state(dims, seed + 1, product=True)
    return new_state(pure.matrix + 0.2 * noise.matrix / noise.trace * pure.trace, dims)


GALLERY = {
    (2, 2): [bell_plus_noise, lambda: two_qubit_curve_state(5, seed=1)],
    (3, 3): [lambda: two_qutrit_ab_state(1.0, 1.0), lambda: two_qutrit_ab_state(0.0, 1.0),
             lambda: two_qutrit_ab_state(0.0, 1 + 1j), lambda: random_ppt_rank4_33(seed=1)],
    (2, 2, 2): [divincenzo_state, ghz_projector,
                lambda: conjugate_local(divincenzo_state(), random_local_unitaries((2, 2, 2), 3))],
}


def mixed_group(dims, decompose):
    """States of one ``dims`` from several families and rules, shuffled:
    random separable states of rank 1 to 6, pure product and entangled
    states, NPT mixtures and the gallery's states of these dims.  A 2x3
    rank-4 state would take the greedy peel, so it is left out of the
    groups that decompose."""
    ranks = [1, 2, 3, 5, 6] if decompose and dims == (2, 3) else [1, 2, 3, 4, 5, 6]
    states = [random_separable(dims, r, seed=10 * r + s) for r in ranks for s in range(2)]
    states += [pure_state(dims, 1), pure_state(dims, 2, product=True), npt_mixture(dims, 3)]
    states += [make() for make in GALLERY.get(dims, [])]
    order = np.random.default_rng(sum(dims)).permutation(len(states))
    return [states[k] for k in order]


class TestClassifyGroup:
    """``_classify_group`` gives each state the report, or the error, that
    ``classify`` gives it alone, byte for byte."""

    DIMS = [(2, 2), (2, 3), (3, 3), (3, 4), (2, 2, 2), (2, 2, 2, 2)]

    @pytest.mark.parametrize("decompose", [False, True])
    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: "x".join(map(str, d)))
    def test_reports_are_byte_identical(self, dims, decompose):
        states = mixed_group(dims, decompose)
        want = [alone(state, decompose=decompose) for state in states]
        got = [outcome(r) for r in _classify_group(states, decompose=decompose)]
        assert got == want
        assert all(text.startswith("{") for text in want)

    @pytest.mark.parametrize("dims, i, j", [((1, 3), 0, 2), ((2, 2), 0, 3)],
                             ids=["one-dim-party", "two-qubit"])
    def test_zero_reduced_state_fails_alone(self, dims, i, j):
        m = np.zeros((np.prod(dims),) * 2, dtype=complex)
        m[i, j] = m[j, i] = 1.0
        rng = np.random.default_rng(0)
        x = rng.standard_normal((np.prod(dims), 2)) + 1j * rng.standard_normal((np.prod(dims), 2))
        valid = new_state(x @ x.conj().T, dims)
        states = [valid, MultiState(m, dims), pure_state(dims, 5)]
        results = _classify_group(states)
        assert isinstance(results[1], NotPositive)
        assert [outcome(r) for r in results] == [alone(state) for state in states]

    def test_invalid_input_fails_alone(self):
        bad = np.eye(8, dtype=complex)
        bad[0, 7] = bad[7, 0] = np.nan
        states = [divincenzo_state(), MultiState(bad, (2, 2, 2)), ghz_projector(),
                  MultiState(np.zeros((8, 8)), (2, 2, 2))]
        results = _classify_group(states)
        assert [type(r) for r in results[1::2]] == [DimensionMismatch, NotPositive]
        assert [outcome(r) for r in results] == [alone(state) for state in states]

    @pytest.mark.parametrize("decompose", [False, True])
    def test_invalid_one_party_and_multi_party_states(self, decompose):
        # one 3x3 group: unvalidated inputs, states that compress to one
        # party, of ranks 3 and 2, and states that keep both parties
        bad = np.eye(9, dtype=complex)
        bad[0, 8] = bad[8, 0] = np.inf
        states = [
            random_separable((3, 3), 4, seed=1),
            MultiState(bad, (3, 3)),
            one_party_state(1),
            two_qutrit_ab_state(0.0, 1 + 1j),
            MultiState(np.zeros((9, 9)), (3, 3)),
            one_party_state(2),
            one_party_state(3, rank=2),
            random_separable((3, 3), 3, seed=2),
            pure_state((3, 3), 4, product=True),
            pure_state((3, 3), 5, product=True),
        ]
        want = [alone(state, decompose=decompose) for state in states]
        results = _classify_group(states, decompose=decompose)
        assert [outcome(r) for r in results] == want
        assert [type(results[1]), type(results[4])] == [DimensionMismatch, NotPositive]
        one_party = [results[i] for i in (2, 5, 6)]
        assert [r.compressed_dims for r in one_party] == [(3,), (3,), (2,)]
        assert [r.rule for r in one_party] == ["PPTRank3", "PPTRank3", "PPTRank2"]
        products = results[8:]
        assert [(r.rule, r.compressed_dims, r.dropped_parties) for r in products] == [
            ("Rank1Product", (), (1, 2))
        ] * 2
        assert all((r.decomposition is not None) == decompose for r in products)

    @pytest.mark.parametrize("decompose", [False, True])
    def test_large_operators_take_one_call_each(self, decompose, monkeypatch):
        # six qubits of local rank 2 compress to 64x64, whose stack of 32
        # representative operators holds 2^17 entries, above the gather
        # bound: each state's operators get one eigvalsh call each
        states = [random_separable((2,) * 6, 4, seed) for seed in range(3)]
        want = [alone(state, decompose=decompose) for state in states]
        shapes = []
        real_eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        results = _classify_group(states, decompose=decompose)
        assert shapes == [(64, 64)] * (3 * 32)
        assert [outcome(r) for r in results] == want
        assert [r.compressed_dims for r in results] == [(2,) * 6] * 3

    def test_tolerance_guard_fails_alone(self, monkeypatch):
        # an entangled 2x2x2 rank-4 state must have full-rank partial
        # transposes; report them at rank 3 to trip the guard, and keep the
        # first record, the state's own rank
        real_is_ppt = sep4.engine.is_ppt

        def lowered_ranks(state, *args):
            report = real_is_ppt(state, *args)
            lowered = [dataclasses.replace(r, rank=r.rank - 1) for r in report.records[1:]]
            records = (report.records[0], *lowered)
            return dataclasses.replace(report, records=records)

        monkeypatch.setattr(sep4.engine, "is_ppt", lowered_ranks)
        states = mixed_group((2, 2, 2), decompose=True)
        results = _classify_group(states)
        assert any(isinstance(r, InconsistentTolerances) for r in results)
        assert any(isinstance(r, ClassificationReport) for r in results)
        assert [outcome(r) for r in results] == [alone(state) for state in states]

    def test_states_that_raise_in_every_stage_fail_alone(self):
        # a 2x2 group: a state whose reduced state is zero (compression), a
        # directly built one whose compressed spectrum is not finite (the
        # PSD check in the rules) and the valid states around them
        z = 1.3e308 * (1 + 1j)
        zero = np.zeros((4, 4), dtype=complex)
        zero[0, 3] = zero[3, 0] = 1.0
        wide = np.eye(4, dtype=complex)
        wide[0, 3], wide[3, 0] = z, np.conj(z)
        states = mixed_group((2, 2), decompose=True)[:6]
        states[1:1] = [MultiState(zero, (2, 2))]
        states[4:4] = [MultiState(wide, (2, 2))]
        want = [alone(state) for state in states]
        results = _classify_group(states)
        assert [type(results[i]) for i in (1, 4)] == [NotPositive, NotPositive]
        assert "not positive and finite" in str(results[4])
        assert sum(isinstance(r, ClassificationReport) for r in results) == 6
        assert [outcome(r) for r in results] == want

    def test_failed_stacked_call_reruns_one_state_at_a_time(self, monkeypatch):
        # LAPACK fails on every call that holds the operators of the state
        # of trace 7, alone or stacked
        real_eigh = np.linalg.eigh

        def failing(a, *args, **kwargs):
            traces = np.trace(a, axis1=-2, axis2=-1).real
            if np.any(np.abs(traces - 7.0) < 1e-9):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        states = [random_separable((3, 3), r, seed=r) for r in (2, 3, 4, 6)]
        states[2] = new_state(7.0 * states[2].matrix / states[2].trace, (3, 3))
        results = _classify_group(states)
        assert [type(r) for r in results] == [ClassificationReport] * 2 + [EigFailure] + [
            ClassificationReport]
        assert [outcome(r) for r in results] == [alone(state) for state in states]
