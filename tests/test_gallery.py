import tracemalloc

import numpy as np
import pytest

from sep4.engine import classify
from sep4.errors import DegenerateComplement, DependentVectors, DimensionMismatch
from sep4.gallery import (
    ProductBasis,
    conjugate_local,
    divincenzo_state,
    random_ppt_rank4_33,
    random_separable,
    three_qubit_upb,
    two_qutrit_ab_rows,
    two_qutrit_ab_state,
    upb_complement_state,
)
from sep4.ppt import is_ppt
from sep4.states import local_ranks, new_state, range_basis, rank_of, spectral


def ket(*amps):
    return np.asarray(amps, dtype=complex)


class TestDivincenzo:
    def test_rank_and_local_ranks(self):
        st = divincenzo_state()
        assert rank_of(st) == 4
        assert local_ranks(st) == [2, 2, 2]

    def test_four_equal_eigenvalues(self):
        eigs = spectral(divincenzo_state()).eigenvalues
        assert np.allclose(eigs[:4], 1.0)
        assert np.allclose(eigs[4:], 0.0, atol=1e-12)

    def test_annihilates_every_upb_member(self):
        st = divincenzo_state()
        lam = spectral(st).eigenvalues[0]
        for member in three_qubit_upb().vectors():
            assert np.linalg.norm(st.matrix @ member) <= 1e-12 * lam

    def test_equals_scaled_upb_complement(self):
        st = divincenzo_state()
        comp = upb_complement_state(three_qubit_upb())
        assert np.abs(st.matrix - 4.0 * comp.matrix).max() <= 1e-12


class TestTwoQutritFamily:
    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    def test_always_ppt_rank_four_at_real_parameters(self, a, b):
        st = two_qutrit_ab_state(a, b)
        assert rank_of(st) == 4
        assert is_ppt(st).is_ppt

    def test_ppt_rank_four_at_complex_a_with_b_zero(self):
        st = two_qutrit_ab_state(1 + 1j, 0.0)
        assert rank_of(st) == 4
        assert is_ppt(st).is_ppt

    def test_local_ranks_at_unit_parameters(self):
        assert local_ranks(two_qutrit_ab_state(1.0, 1.0)) == [3, 3]

    def test_range_matches_row_matrix(self):
        st = two_qutrit_ab_state(1.0, 1.0)
        rows = two_qutrit_ab_rows(1.0, 1.0)
        got = range_basis(st).rows
        q1, _ = np.linalg.qr(rows.T)
        q2, _ = np.linalg.qr(got.T)
        # principal angles via the product of the orthonormal frames
        sv = np.linalg.svd(q1.conj().T @ q2, compute_uv=False)
        assert np.abs(sv - 1.0).max() <= 1e-10

    def test_classify_boundary(self):
        assert classify(two_qutrit_ab_state(1.0, 1.0)).verdict == "Entangled"
        assert classify(two_qutrit_ab_state(0.0, 1.0)).verdict == "Separable"


class TestUpbComplement:
    def test_full_product_basis_rejected(self):
        basis = ProductBasis(
            factors=(
                (ket(1, 0), ket(1, 0)),
                (ket(1, 0), ket(0, 1)),
                (ket(0, 1), ket(1, 0)),
                (ket(0, 1), ket(0, 1)),
            ),
            dims=(2, 2),
        )
        with pytest.raises(DegenerateComplement):
            upb_complement_state(basis)

    def test_two_orthogonal_vectors_in_two_qubits(self):
        basis = ProductBasis(
            factors=((ket(1, 0), ket(1, 0)), (ket(0, 1), ket(0, 1))), dims=(2, 2)
        )
        st = upb_complement_state(basis)
        assert rank_of(st) == 2
        assert st.trace == pytest.approx(1.0)
        eigs = spectral(st).eigenvalues
        assert np.allclose(eigs[:2], 0.5)

    def test_dependent_vectors_rejected(self):
        basis = ProductBasis(
            factors=((ket(1, 0), ket(1, 0)), (ket(2, 0), ket(1, 0))), dims=(2, 2)
        )
        with pytest.raises(DependentVectors):
            upb_complement_state(basis)


class TestRandomFamilies:
    def test_random_separable_deterministic(self):
        a = random_separable((2, 2, 2), 2, seed=9)
        b = random_separable((2, 2, 2), 2, seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_random_separable_two_terms_rule(self):
        rep = classify(random_separable((2, 2, 2), 2, seed=5))
        assert rep.verdict == "Separable"
        assert rep.rule == "PPTRank2"

    def test_random_separable_three_qutrit_terms(self):
        st = random_separable((3, 3), 3, seed=6)
        assert rank_of(st) == 3
        assert classify(st).verdict == "Separable"

    def test_random_ppt_rank4_is_entangled(self):
        for seed in (0, 1, 2):
            rep = classify(random_ppt_rank4_33(seed))
            assert rep.verdict == "Entangled"
            assert rep.rule == "Chow33"

    def test_random_separable_checks_dims_before_allocating(self):
        # a 4225 x 4225 complex matrix alone would take 285 MB
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match="total dimension 4225 exceeds"):
                random_separable((65, 65), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_random_ppt_rank4_deterministic(self):
        a = random_ppt_rank4_33(seed=4)
        b = random_ppt_rank4_33(seed=4)
        assert np.array_equal(a.matrix, b.matrix)


class TestConjugateLocal:
    def test_state_near_the_float_limit(self):
        # new_state symmetrizes by halving first; a sum taken before it
        # would overflow to Inf on this valid state
        state = new_state(1.5e308 * np.diag([1.0, 0, 0, 0]), (2, 2))
        with np.errstate(all="raise"):
            rotated = conjugate_local(state, [np.eye(2), np.eye(2)])
        assert np.array_equal(rotated.matrix, state.matrix)
