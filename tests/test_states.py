import dataclasses
import pickle
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sep4.errors import (
    AllPartiesTrivial,
    DimensionMismatch,
    EmptySubset,
    NotHermitian,
    NotPositive,
    StateFormatError,
    ZeroVector,
)
from sep4.states import (
    MultiState,
    _local_ranges,
    _partial_trace,
    _rank_from_eigenvalues,
    _reduced_states,
    ToleranceConfig,
    assemble_product,
    compress_support,
    is_product,
    kernel_basis,
    local_ranks,
    new_state,
    partial_transpose,
    range_basis,
    rank_of,
    reduced_state,
    spectral,
    state_from_dict,
    state_to_dict,
)


def ket(*amps):
    return np.asarray(amps, dtype=complex)


def product_state(factors, dims):
    v = assemble_product(factors)
    return new_state(np.outer(v, v.conj()), dims)


def random_state(dims, rank, seed):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    m = np.zeros((d, d), dtype=complex)
    for _ in range(rank):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        m += np.outer(v, v.conj())
    return new_state(m, dims)


class TestNewState:
    def test_identity_two_qubits(self):
        st_ = new_state(np.eye(4), (2, 2))
        assert st_.trace == pytest.approx(4.0)
        assert st_.dims == (2, 2)

    def test_marks_what_it_builds(self):
        # the mark survives pickling; a replaced copy, whose cfg may differ,
        # and a directly built state are unmarked; __init__ takes no mark
        st_ = new_state(np.eye(4), (2, 2))
        assert st_._valid
        assert pickle.loads(pickle.dumps(st_))._valid
        assert not dataclasses.replace(st_, cfg=ToleranceConfig(tol_psd=1.0))._valid
        assert not MultiState(st_.matrix, (2, 2))._valid
        assert "_valid" not in repr(st_)
        with pytest.raises(TypeError):
            MultiState(np.eye(4), (2, 2), _valid=True)

    def test_basis_projector_three_qubits(self):
        v = np.zeros(8)
        v[0] = 1.0
        st_ = new_state(np.outer(v, v), (2, 2, 2))
        assert rank_of(st_) == 1

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            new_state(np.diag([1.0, -0.1]), (2,))

    def test_dims_product_mismatch(self):
        with pytest.raises(DimensionMismatch):
            new_state(np.eye(4), (2, 3))

    def test_empty_dims_rejected(self):
        # prod(()) == 1, so a 1 x 1 matrix used to pass as a zero-party state
        with pytest.raises(DimensionMismatch):
            new_state(np.eye(1), ())

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            new_state(np.ones((2, 3)), (2,))

    def test_large_asymmetry_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(NotHermitian):
            new_state(m, (2, 2))

    def test_small_asymmetry_symmetrized(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-12
        st_ = new_state(m, (2, 2))
        assert np.abs(st_.matrix - st_.matrix.conj().T).max() == 0.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(NotPositive):
            new_state(np.zeros((2, 2)), (2,))

    def test_nan_rejected(self):
        m = np.eye(4)
        m[0, 0] = np.nan
        with pytest.raises(DimensionMismatch):
            new_state(m, (2, 2))

    # a finite entry whose modulus overflows: no PSD matrix has one, since
    # |m_ij| <= sqrt(m_ii m_jj)
    BIG = 1.3e308 * (1 + 1j)

    def test_entry_whose_modulus_overflows_rejected(self):
        with pytest.raises(NotHermitian):
            new_state([[self.BIG, 0], [0, 1]], (2,))

    @pytest.mark.parametrize("m", [
        [[1, BIG], [np.conj(BIG), 1]],
        [[1.7e308, 1.7e308], [1.7e308, 0]],
    ], ids=["nan", "inf"])
    def test_spectrum_that_is_not_finite_rejected(self, m):
        with pytest.raises(NotPositive, match="not positive and finite"):
            new_state(m, (2,))


class TestToleranceConfig:
    @pytest.mark.parametrize("tol_rank", [1.0, 2.0])
    def test_rank_cutoff_must_keep_largest_eigenvalue(self, tol_rank):
        with pytest.raises(ValueError):
            ToleranceConfig(tol_rank=tol_rank)

    def test_rank_cutoff_below_one_counts_largest_eigenvalue(self):
        cfg = ToleranceConfig(tol_rank=0.999)
        assert rank_of(new_state(np.diag([1.0, 0.5, 0.0, 0.0]), (2, 2), cfg)) == 1

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ToleranceConfig)])
    @pytest.mark.parametrize("value", [-1e-9, float("nan"), float("inf")])
    def test_every_tolerance_is_finite_and_nonnegative(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
            ToleranceConfig(**{field: value})


class TestPartialTranspose:
    def test_empty_subset_is_identity(self):
        st_ = random_state((2, 3), 2, seed=0)
        assert partial_transpose(st_, ()) is st_

    @pytest.mark.parametrize("subset", [(0,), (3,), (1, 3)])
    def test_subset_out_of_range(self, subset):
        st_ = random_state((2, 3), 2, seed=0)
        with pytest.raises(DimensionMismatch, match=r"not within parties 1\.\.2"):
            partial_transpose(st_, subset)

    def test_product_state_formula(self):
        a = ket(1, 2j)
        b = ket(3, 1 - 1j, 0.5)
        rho1 = np.outer(a, a.conj())
        rho2 = np.outer(b, b.conj())
        st_ = new_state(np.kron(rho1, rho2), (2, 3))
        got = partial_transpose(st_, (1,)).matrix
        assert np.allclose(got, np.kron(rho1.T, rho2))

    def test_real_symmetric_full_transpose_unchanged(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4))
        m = m @ m.T
        st_ = new_state(m, (2, 2))
        assert np.array_equal(partial_transpose(st_, (1, 2)).matrix, st_.matrix)

    def test_involution_bit_exact(self):
        st_ = random_state((2, 2, 2), 3, seed=2)
        twice = partial_transpose(partial_transpose(st_, (1, 3)), (1, 3))
        assert np.array_equal(twice.matrix, st_.matrix)

    def test_matches_bruteforce_loops(self):
        st_ = random_state((2, 3), 4, seed=3)
        d1, d2 = 2, 3
        expected = np.zeros_like(st_.matrix)
        for i in range(d1):
            for k in range(d2):
                for j in range(d1):
                    for l in range(d2):
                        expected[i * d2 + k, j * d2 + l] = st_.matrix[j * d2 + k, i * d2 + l]
        assert np.array_equal(partial_transpose(st_, (1,)).matrix, expected)

    @given(st.integers(0, 200), st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_group_law(self, seed, mask_a, mask_b):
        st_ = random_state((2, 2, 2), 2, seed=seed)
        sub_a = tuple(p for p in (1, 2, 3) if mask_a & (1 << (p - 1)))
        sub_b = tuple(p for p in (1, 2, 3) if mask_b & (1 << (p - 1)))
        xor = tuple(sorted(set(sub_a) ^ set(sub_b)))
        lhs = partial_transpose(partial_transpose(st_, sub_a), sub_b)
        rhs = partial_transpose(st_, xor)
        assert np.array_equal(lhs.matrix, rhs.matrix)

    def test_complement_is_full_transpose(self):
        st_ = random_state((2, 2, 3), 4, seed=4)
        lhs = partial_transpose(st_, (2, 3)).matrix
        rhs = partial_transpose(st_, (1,)).matrix.T
        assert np.array_equal(lhs, rhs)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(lhs)), np.sort(np.linalg.eigvalsh(rhs))
        )

    def test_local_rank_invariance(self):
        # a partial transpose need not be PSD, so local_ranks, which
        # validates, does not take it; its spectra come from _local_ranges
        st_ = random_state((2, 3, 2), 3, seed=5)
        base = local_ranks(st_)
        for subset in [(1,), (2,), (1, 3), (1, 2, 3)]:
            pt = partial_transpose(st_, subset)
            assert [w.shape[1] for w in _local_ranges([pt])[0]] == base


class TestReducedState:
    def test_ghz_single_party(self):
        v = np.zeros(8)
        v[0] = 1.0
        v[7] = 1.0
        st_ = new_state(np.outer(v, v), (2, 2, 2))
        red = reduced_state(st_, (1,))
        assert np.allclose(red.matrix, np.diag([1.0, 1.0]))

    def test_product_state_factor(self):
        a = ket(1, 1j) / np.sqrt(2)
        b = ket(2, 1, 1)
        st_ = product_state((a, b), (2, 3))
        red = reduced_state(st_, (2,))
        expect = np.outer(b, b.conj()) * np.vdot(a, a)
        assert np.allclose(red.matrix, expect)

    def test_keep_all_is_identity(self):
        st_ = random_state((2, 2), 2, seed=6)
        assert reduced_state(st_, (1, 2)) is st_

    def test_empty_keep_rejected(self):
        st_ = random_state((2, 2), 2, seed=7)
        with pytest.raises(EmptySubset):
            reduced_state(st_, ())

    def test_trace_preserved(self):
        st_ = random_state((2, 3, 2), 4, seed=8)
        for keep in [(1,), (2,), (3,), (1, 3)]:
            assert reduced_state(st_, keep).trace == pytest.approx(st_.trace)

    def test_several_kept_parties_match_a_loop(self):
        st_ = random_state((2, 3, 2), 4, seed=8)
        t = st_.matrix.reshape((2, 3, 2) * 2)
        outer = sum(t[:, j, :, :, j, :] for j in range(3)).reshape(4, 4)
        inner = sum(t[j, :, :, j, :, :] for j in range(2)).reshape(6, 6)
        assert np.allclose(reduced_state(st_, (1, 3)).matrix, outer, rtol=0, atol=1e-14)
        assert np.allclose(reduced_state(st_, (2, 3)).matrix, inner, rtol=0, atol=1e-14)

    def test_trace_of_transpose_commutes(self):
        st_ = random_state((2, 3), 3, seed=9)
        lhs = reduced_state(partial_transpose(st_, (1,)), (1,)).matrix
        rhs = reduced_state(st_, (1,)).matrix.T
        assert np.allclose(lhs, rhs)


class TestSpectral:
    def test_diagonal(self):
        sd = spectral(new_state(np.diag([3.0, 1.0]), (2,)))
        assert np.allclose(sd.eigenvalues, [3.0, 1.0])

    def test_all_ones(self):
        sd = spectral(new_state(np.ones((2, 2)), (2,)))
        assert np.allclose(sd.eigenvalues, [2.0, 0.0])

    def test_reconstruction_and_orthonormality(self):
        st_ = random_state((2, 2, 2), 5, seed=10)
        sd = spectral(st_)
        recon = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
        lam = sd.eigenvalues[0]
        assert np.linalg.norm(recon - st_.matrix) <= 1e-9 * lam
        gram = sd.eigenvectors.conj().T @ sd.eigenvectors
        assert np.abs(gram - np.eye(st_.d)).max() <= 1e-9


class TestRanks:
    def test_rank_one_projector(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert rank_of(new_state(np.outer(v, v), (2, 2, 2))) == 1

    def test_range_plus_kernel_dims(self):
        st_ = random_state((3, 3), 4, seed=11)
        assert range_basis(st_).k + kernel_basis(st_).k == 9
        assert range_basis(st_).k == 4

    def test_local_ranks_product(self):
        st_ = product_state((ket(1, 0), ket(1, 0), ket(1, 0)), (2, 2, 2))
        assert local_ranks(st_) == [1, 1, 1]

    @pytest.mark.parametrize("matrix, error", [
        (-np.eye(4), NotPositive),
        (np.where(np.arange(16).reshape(4, 4) == 1, np.nan, np.eye(4)), DimensionMismatch),
    ], ids=["negative", "nan-entry"])
    def test_local_ranks_validates_a_directly_built_state(self, matrix, error):
        # a state not built by new_state is checked as compress_support checks it
        for fn in (local_ranks, compress_support):
            with pytest.raises(error):
                fn(MultiState(matrix, (2, 2)))

    def test_scale_invariant(self):
        st_ = random_state((3, 3), 2, seed=12)
        small = new_state(st_.matrix * 1e-6, st_.dims)
        assert rank_of(small) == rank_of(st_) == 2


class TestRankFromEigenvalues:
    """The Python-float count agrees with the numpy formula it replaced."""

    @staticmethod
    def reference(eigs, tol_rank):
        scale = np.abs(eigs).max() if eigs.size else 0.0
        if scale == 0.0:
            return 0
        with np.errstate(invalid="ignore"):  # 0 * inf
            return int(np.count_nonzero(np.abs(eigs) > tol_rank * scale))

    def check(self, eigs, tols=(0.0, 1e-9, 0.5)):
        eigs = np.asarray(eigs, dtype=float)
        for tol in tols:
            got = _rank_from_eigenvalues(eigs, tol)
            assert type(got) is int
            assert got == self.reference(eigs, tol), (eigs, tol)

    @given(st.integers(0, 10_000), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_random_spectra(self, seed, size):
        rng = np.random.default_rng(seed)
        eigs = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        eigs[rng.random(size) < 0.3] = 0.0
        self.check(eigs)

    @pytest.mark.parametrize("eigs", [
        [], [0.0], [0.0, -0.0, 0.0], [-1.0, -2.0, 0.0], [3.0, -3.0, 1e-12],
        [np.inf, 1.0], [-np.inf, 1.0], [np.inf, -np.inf], [np.nan], [1.0, np.nan, 2.0],
        [np.nan, np.inf], [5e-324, 0.0], [1e308, 1e308, -1e308],
    ])
    def test_special_spectra(self, eigs):
        self.check(eigs)

    def test_ties_at_the_cutoff(self):
        # exactly tol * lambda_max is not above the cutoff; the next float is
        cut = 1e-9 * 2.0
        self.check([2.0, cut, -cut, np.nextafter(cut, 1.0), 0.0])
        self.check([2.0, 1.0, 1.0, -2.0], tols=(0.5, np.nextafter(0.5, 0.0)))


class TestCompressSupport:
    def test_drops_rank_one_party(self):
        sigma = random_state((3, 3), 9, seed=13)
        m = np.kron(np.diag([1.0, 0.0, 0.0]).astype(complex), sigma.matrix)
        st_ = new_state(m, (3, 3, 3))
        comp = compress_support(st_)
        assert comp.dropped == (1,)
        assert comp.state.dims == (3, 3)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(comp.state.matrix)),
            np.sort(np.linalg.eigvalsh(sigma.matrix)),
        )

    def test_full_support_keeps_spectrum(self):
        st_ = random_state((2, 2), 4, seed=14)
        comp = compress_support(st_)
        assert comp.state.dims == (2, 2)
        assert comp.dropped == ()
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(comp.state.matrix)),
            np.sort(np.linalg.eigvalsh(st_.matrix)),
        )

    def test_zero_padded_embedding_round_trip(self):
        small = random_state((2, 2, 2), 3, seed=15)
        iso = np.zeros((3, 2), dtype=complex)
        iso[:2, :] = np.eye(2)
        w = np.kron(np.kron(iso, iso), iso)
        big = new_state(w @ small.matrix @ w.conj().T, (3, 3, 3))
        comp = compress_support(big)
        assert comp.state.dims == (2, 2, 2)
        assert rank_of(comp.state) == rank_of(small) == 3

    def test_pure_product_raises(self):
        st_ = product_state((ket(1, 1j), ket(0, 1)), (2, 2))
        with pytest.raises(AllPartiesTrivial):
            compress_support(st_)

    def test_rank_preserved(self):
        st_ = random_state((2, 3, 2), 4, seed=16)
        comp = compress_support(st_)
        assert rank_of(comp.state) == rank_of(st_)


class TestStackedKernels:
    """The verdict path's stacked spectra and broadcast isometries are
    bit-identical to the public per-matrix helpers."""

    def test_spectral_stack_matches_single_calls(self):
        mats = np.stack([random_state((4,), rank, seed=rank).matrix for rank in (1, 2, 4)])
        for stack in (mats, mats.real.copy()):
            stacked = spectral(stack)
            for i, m in enumerate(stack):
                single = spectral(m)
                assert np.array_equal(stacked.eigenvalues[i], single.eigenvalues)
                assert np.array_equal(stacked.eigenvectors[i], single.eigenvectors)

    @staticmethod
    def reference(state):
        isometries = []
        for p in range(1, state.n + 1):
            reduced = reduced_state(state, (p,))
            r = rank_of(reduced)
            isometries.append(np.ascontiguousarray(spectral(reduced).eigenvectors[:, :r]))
        w = reduce(np.kron, isometries)
        m = w.conj().T @ state.matrix @ w
        return isometries, 0.5 * (m + m.conj().T)

    @pytest.mark.parametrize(
        "dims, rank", [((2, 3), 4), ((3, 4), 2), ((2, 2, 3), 3), ((2, 2, 2, 2), 4)]
    )
    def test_compress_support_matches_per_party_reference(self, dims, rank):
        state = random_state(dims, rank, seed=sum(dims) + rank)
        self.check(state)

    def test_compress_support_with_dropped_party(self):
        sigma = random_state((2, 3), 3, seed=17)
        state = new_state(np.kron(np.diag([0.0, 1.0]).astype(complex), sigma.matrix), (2, 2, 3))
        assert compress_support(state).dropped == (1,)
        self.check(state)

    @pytest.mark.parametrize("bound", [2 ** 16, 0], ids=["gather", "einsum"])
    def test_both_reduced_state_paths_match_reduced_state(self, bound, monkeypatch):
        # the table bound picks the path; reduced_state, local_ranks and
        # compress_support take the same one, bit for bit
        monkeypatch.setattr("sep4.states._GATHER_ENTRIES", bound)
        state = random_state((2, 3, 2), 3, seed=5)
        for parties in ((1, 3), (2,)):
            stack = _reduced_states(state.matrix, state.dims, parties)
            for got, p in zip(stack, parties):
                assert np.array_equal(got, reduced_state(state, (p,)).matrix)
                want = _partial_trace(state.matrix, state.dims, (p,))
                assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert local_ranks(state) == [2, 3, 2]
        self.check(state)

    @pytest.mark.parametrize("dims", [(3, 4), (2, 2, 2), (2, 2, 2, 2), (2, 2, 3)],
                             ids=lambda d: "x".join(map(str, d)))
    def test_reduced_states_are_the_same_bits_alone_and_stacked(self, dims):
        # the traced index leads the gather, so its sum adds whole slices in
        # index order, however many operators the stack holds
        mats = np.stack([random_state(dims, rank, seed=seed).matrix
                         for seed in range(5) for rank in (1, 2, 3, 4, 6)])
        n = len(dims)
        for dp in dict.fromkeys(dims):
            parties = tuple(p for p in range(1, n + 1) if dims[p - 1] == dp)
            stacked = _reduced_states(mats, dims, parties)
            assert stacked.shape == (25, len(parties), dp, dp)
            for m, got in zip(mats, stacked):
                assert np.array_equal(got, _reduced_states(m, dims, parties))

    def check(self, state):
        comp = compress_support(state)
        isometries, matrix = self.reference(state)
        assert len(comp.isometries) == len(isometries)
        for got, want in zip(comp.isometries, isometries):
            assert np.array_equal(got, want)
        assert np.array_equal(comp.state.matrix, matrix)
        assert comp.state.dims == tuple(w.shape[1] for w in isometries if w.shape[1] > 1)


class TestIsProduct:
    def test_basis_product(self):
        ok, factors = is_product(assemble_product((ket(1, 0), ket(1, 0), ket(1, 0))), (2, 2, 2))
        assert ok
        assert len(factors) == 3

    def test_ghz_not_product(self):
        v = np.zeros(8)
        v[0] = 1.0
        v[7] = 1.0
        ok, factors = is_product(v, (2, 2, 2))
        assert not ok
        assert factors is None

    def test_upb_member_with_factors(self):
        plus = ket(1, 1) / np.sqrt(2)
        one = ket(0, 1)
        minus = ket(1, -1) / np.sqrt(2)
        v = assemble_product((plus, one, minus))
        ok, factors = is_product(v, (2, 2, 2))
        assert ok
        assert np.linalg.norm(assemble_product(factors) - v) <= 1e-12

    def test_length_must_match_dims(self):
        with pytest.raises(DimensionMismatch):
            is_product(np.ones(5), (2, 2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            is_product(np.zeros(4), (2, 2))

    @pytest.mark.parametrize("dims", [(2, -1, -1), (-1, -2), (2, 0)])
    def test_party_dimension_below_one_rejected(self, dims):
        with pytest.raises(DimensionMismatch, match="must be at least 1"):
            is_product(np.ones(2), dims)

    def test_trivial_party_product(self):
        v = assemble_product((ket(1j), ket(1, 1), ket(1, -2j)))
        ok, factors = is_product(v, (1, 2, 2))
        assert ok
        assert [f.shape for f in factors] == [(1,), (2,), (2,)]
        assert np.linalg.norm(assemble_product(factors) - v) <= 1e-12 * np.linalg.norm(v)

    def test_trivial_party_entangled_rest(self):
        ok, factors = is_product(ket(1, 0, 0, 1), (1, 2, 2))
        assert not ok
        assert factors is None

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_random_products_factorize(self, seed):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 3, 2)]
        v = assemble_product(factors)
        ok, got = is_product(v, (2, 3, 2))
        assert ok
        assert np.linalg.norm(assemble_product(got) - v) <= 1e-10 * np.linalg.norm(v)


# JSON values: null, bools, ints (beyond the float range too), floats,
# strings, and lists and objects keyed like a state
_NUMBERS = st.integers(-1, 2) | st.integers() | st.sampled_from([10**400, -10**400]) | st.floats()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["dims", "matrix"]), inner, max_size=2),
    max_leaves=20,
)
# objects that reach the matrix parser: small dims and square grids of
# pairs, diagonal real ones among them, so that some are states
_GRIDS = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=n, max_size=n),
    min_size=n, max_size=n,
)) | st.lists(_NUMBERS, min_size=1, max_size=3).map(
    lambda diag: [[[x * (i == j), 0] for j in range(len(diag))] for i, x in enumerate(diag)]
)
_STATE_LIKE = st.fixed_dictionaries({
    "dims": st.lists(st.integers(-1, 3), min_size=1, max_size=2) | _JSON,
    "matrix": _GRIDS | _JSON,
})


class TestStateJson:
    def test_round_trip(self):
        st_ = random_state((2, 3), 3, seed=17)
        back = state_from_dict(state_to_dict(st_))
        assert back.dims == st_.dims
        assert np.array_equal(back.matrix, st_.matrix)

    def test_rejects_nan(self):
        obj = state_to_dict(random_state((2,), 1, seed=18))
        obj["matrix"][0][0][0] = float("nan")
        with pytest.raises(StateFormatError, match="^matrix contains non-finite entries$"):
            state_from_dict(obj)

    def test_rejects_missing_keys(self):
        with pytest.raises(StateFormatError):
            state_from_dict({"dims": [2]})

    def test_rejects_ragged(self):
        with pytest.raises(StateFormatError):
            state_from_dict({"dims": [2], "matrix": [[[1, 0]], [[0, 0], [1, 0]]]})

    @pytest.mark.parametrize("dims", [2, "2", [], [2.0], [True, 4], [4, True]])
    def test_rejects_dims_that_are_not_a_list_of_integers(self, dims):
        obj = state_to_dict(random_state((2, 2), 2, seed=19))
        obj["dims"] = dims
        with pytest.raises(StateFormatError, match="'dims'"):
            state_from_dict(obj)

    def test_rejects_a_non_square_grid(self):
        with pytest.raises(StateFormatError, match="expected"):
            state_from_dict({"dims": [2], "matrix": [[[1, 0], [0, 0]]]})

    def test_integer_beyond_the_float_range_is_a_format_error(self):
        obj = {"dims": [2], "matrix": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}
        with pytest.raises(StateFormatError, match="beyond the float range"):
            state_from_dict(obj)

    @settings(max_examples=300, deadline=None)
    @given(obj=_STATE_LIKE | _JSON)
    def test_any_json_value_is_a_state_or_a_format_error(self, obj):
        try:
            state = state_from_dict(obj)
        except StateFormatError:
            return
        assert isinstance(state, MultiState)

    @pytest.mark.parametrize("matrix, dims, cause", [
        ([[1, 1], [0, 1]], [2], "asymmetry"),
        ([[1, 0], [0, -1]], [2], "eigenvalue"),
        ([[1, 0], [0, 1]], [3], "multiply"),
    ], ids=["not-hermitian", "not-psd", "dims-product"])
    def test_state_errors_become_format_errors(self, matrix, dims, cause):
        grid = [[[float(x), 0.0] for x in row] for row in matrix]
        with pytest.raises(StateFormatError, match=cause):
            state_from_dict({"dims": dims, "matrix": grid})
