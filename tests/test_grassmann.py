import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sep4.errors import DuplicateIndex, RankDeficientBasis
from sep4.gallery import two_qutrit_ab_rows
from sep4.grassmann import (
    PlueckerVector,
    SubspaceBasis,
    _pluecker_rows,
    dual_pluecker,
    index_tuples,
    pluecker,
    pluecker_relations_residual,
    pluecker_to_dict,
)

from family_values import FAMILY_COORDINATES


def random_basis(k, d, seed, dims):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    return SubspaceBasis(rows, dims)


class TestSubspaceBasis:
    def test_dependent_rows_rejected(self):
        rows = np.array([[1, 0, 0, 0], [2, 0, 0, 0]], dtype=complex)
        with pytest.raises(RankDeficientBasis):
            SubspaceBasis(rows, (2, 2))

    def test_wrong_width_rejected(self):
        with pytest.raises(RankDeficientBasis):
            SubspaceBasis(np.eye(3), (2, 2))

    def test_more_rows_than_columns_rejected(self):
        rows = np.vstack([np.eye(4), np.ones((1, 4))])
        with pytest.raises(RankDeficientBasis, match="5 rows cannot be independent in C\\^4"):
            SubspaceBasis(rows, (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_rows_rejected(self, bad):
        # rejected before the SVD, which would raise numpy's LinAlgError
        rows = np.eye(2, 4, dtype=complex)
        rows[1, 2] = bad
        with pytest.raises(RankDeficientBasis, match=r"non-finite entries .*\(1, 2\)"):
            SubspaceBasis(rows, (2, 2))


class TestDegenerateInputs:
    def test_empty_basis_has_no_pluecker_vector(self):
        basis = SubspaceBasis(np.zeros((0, 4)), (2, 2))
        assert basis.k == 0
        with pytest.raises(RankDeficientBasis, match="empty basis"):
            pluecker(basis)

    def test_rows_whose_minors_all_vanish(self):
        # bare rows skip SubspaceBasis's independence check
        rows = np.array([[1, 0, 0, 0], [2, 0, 0, 0]], dtype=complex)
        with pytest.raises(RankDeficientBasis, match="all maximal minors vanish"):
            _pluecker_rows(rows)

    def test_relations_residual_of_the_trivial_grassmannians(self):
        # G(0, d) and G(d, d) are points: no relation to violate
        full = pluecker(SubspaceBasis(np.eye(4), (2, 2)))
        assert (full.k, full.d, full.raw.size) == (4, 4, 1)
        assert pluecker_relations_residual(full) == 0.0
        empty = PlueckerVector(k=0, d=4, tuples=index_tuples(4, 0), raw=[1.0], normalized=[1.0])
        assert pluecker_relations_residual(empty) == 0.0


class TestPluecker:
    def test_coordinate_subspace(self):
        rows = np.zeros((4, 9), dtype=complex)
        rows[0, 0] = rows[1, 1] = rows[2, 2] = rows[3, 3] = 1.0
        p = pluecker(SubspaceBasis(rows, (3, 3)))
        entries = p.entries
        assert entries[(1, 2, 3, 4)] == pytest.approx(1.0)
        others = [v for t, v in entries.items() if t != (1, 2, 3, 4)]
        assert np.abs(others).max() == 0.0

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 0.5), (1 + 1j, 2.0), (0.0, 1.0)])
    def test_family_golden_values(self, a, b):
        p = pluecker(SubspaceBasis(two_qutrit_ab_rows(a, b), (3, 3)))
        for tup, value in p.entries.items():
            expected = FAMILY_COORDINATES.get(tup, lambda a, b: 0)(a, b)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_row_scaling_scales_all_entries(self):
        basis = random_basis(3, 6, seed=0, dims=(3, 2))
        scaled_rows = np.array(basis.rows)
        scaled_rows[0] *= 2.0
        p1 = pluecker(basis)
        p2 = pluecker(SubspaceBasis(scaled_rows, (3, 2)))
        assert np.allclose(p2.raw, 2.0 * p1.raw)

    def test_basis_change_invariance_of_normalized(self):
        basis = random_basis(4, 9, seed=1, dims=(3, 3))
        rng = np.random.default_rng(2)
        mix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mixed = SubspaceBasis(mix @ basis.rows, (3, 3))
        assert np.allclose(pluecker(basis).normalized, pluecker(mixed).normalized)

    def test_normalization_convention(self):
        p = pluecker(random_basis(2, 4, seed=3, dims=(2, 2)))
        assert np.linalg.norm(p.normalized) == pytest.approx(1.0)
        lead = np.flatnonzero(np.abs(p.normalized) > 1e-12)[0]
        assert p.normalized[lead].imag == pytest.approx(0.0, abs=1e-15)
        assert p.normalized[lead].real > 0

    def test_cauchy_binet(self):
        basis = random_basis(3, 8, seed=4, dims=(2, 2, 2))
        p = pluecker(basis)
        gram = basis.rows @ basis.rows.conj().T
        assert np.sum(np.abs(p.raw) ** 2) == pytest.approx(abs(np.linalg.det(gram)))


def lu_minors(rows):
    """The maximal minors as one LAPACK determinant per gathered k x k block."""
    k, d = rows.shape
    idx = np.array(index_tuples(d, k)) - 1
    return np.linalg.det(np.moveaxis(rows[:, idx], 1, 0))


class TestWedgeMinors:
    """Minors built row by row by wedge products, against determinants."""

    @pytest.mark.parametrize("orthonormal", [False, True], ids=["generic", "orthonormal"])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_match_determinants(self, k, orthonormal):
        rng = np.random.default_rng(k)
        for d in range(k, 11):
            for _ in range(3):
                rows = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
                if orthonormal:
                    rows = np.linalg.qr(rows.T)[0].T
                got = pluecker(SubspaceBasis(rows, (d,))).raw
                bound = 1e-13 * np.prod(np.linalg.norm(rows, axis=1))
                assert np.abs(got - lu_minors(rows)).max() <= bound


class TestRelationsResidual:
    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_minor_vectors_satisfy_relations(self, seed):
        p = pluecker(random_basis(4, 9, seed=seed, dims=(3, 3)))
        assert pluecker_relations_residual(p) <= 1e-12

    def test_handmade_non_decomposable(self):
        # p_{12} = p_{34} = 1 in G(2,4): the single relation evaluates to
        # 1 on the raw entries, hence 1/2 after unit normalization
        tuples = index_tuples(4, 2)
        raw = np.zeros(6, dtype=complex)
        raw[tuples.index((1, 2))] = 1.0
        raw[tuples.index((3, 4))] = 1.0
        p = PlueckerVector(k=2, d=4, tuples=tuples, raw=raw, normalized=raw / np.sqrt(2))
        assert pluecker_relations_residual(p) == pytest.approx(0.5)

    def test_perturbed_vector_small_residual(self):
        base = pluecker(random_basis(4, 9, seed=5, dims=(3, 3)))
        rng = np.random.default_rng(6)
        noise = 1e-9 * (rng.standard_normal(126) + 1j * rng.standard_normal(126))
        raw = base.raw / np.linalg.norm(base.raw) + noise
        lead = np.flatnonzero(np.abs(raw) > 1e-12 * np.abs(raw).max())[0]
        normalized = raw / (np.linalg.norm(raw) * (raw[lead] / abs(raw[lead])))
        p = PlueckerVector(k=4, d=9, tuples=base.tuples, raw=raw, normalized=normalized)
        # measured headroom over the 1e-9 perturbation scale
        assert pluecker_relations_residual(p) <= 1e-7


class TestDualPluecker:
    def test_three_of_four(self):
        eps, comp = dual_pluecker((1, 2, 3), 4)
        assert comp == (4,)
        assert eps == -1

    def test_last_block_positive(self):
        eps, comp = dual_pluecker((3, 4, 5, 6), 6)
        assert comp == (1, 2)
        assert eps == 1

    def test_antisymmetry_of_input_order(self):
        eps1, comp1 = dual_pluecker((1, 2, 3), 4)
        eps2, comp2 = dual_pluecker((2, 1, 3), 4)
        assert comp1 == comp2
        assert eps2 == -eps1

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateIndex):
            dual_pluecker((1, 1, 2), 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dual_pluecker((0, 1, 2), 4)


class TestSerialization:
    def test_json_map_shape(self):
        p = pluecker(random_basis(2, 4, seed=7, dims=(2, 2)))
        blob = pluecker_to_dict(p)
        assert set(blob) == {"1,2", "1,3", "1,4", "2,3", "2,4", "3,4"}
        assert all(len(v) == 2 for v in blob.values())
