import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sep4.oracle as oracle
from sep4.engine import classify
from sep4.errors import DegenerateConfiguration, NotApplicable, WrongDimension
from sep4.gallery import (
    divincenzo_state,
    random_separable,
    two_qutrit_ab_state,
)
from sep4.grassmann import SubspaceBasis
from sep4.oracle import (
    MAX_SWEEPS,
    bipartite_kernel_product_vectors_2x2x2,
    check_general_position,
    count_kernel_product_vectors_3x3,
    find_product_vector,
    greedy_decompose,
)
from sep4.ppt import subset_representatives
from sep4.states import (
    assemble_product,
    compress_support,
    is_product,
    kernel_basis,
    new_state,
    partial_transpose,
    range_basis,
    rank_of,
    spectral,
)


def ket(*amps):
    return np.asarray(amps, dtype=complex)


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def planted_basis(seed, dims):
    """Four-dimensional span of one random product vector and three random vectors."""
    rng = np.random.default_rng(seed)
    planted = assemble_product([random_vec(rng, dp) for dp in dims])
    d = int(np.prod(dims))
    return SubspaceBasis(np.vstack([planted] + [random_vec(rng, d) for _ in range(3)]), dims)


def svd_flattening_ratio(vec, dims):
    """Largest s2/s1 over the party flattenings, computed independently of the oracle."""
    t = np.asarray(vec).reshape(dims)
    worst = 0.0
    for axis, dp in enumerate(dims):
        s = np.linalg.svd(np.moveaxis(t, axis, 0).reshape(dp, -1), compute_uv=False)
        worst = max(worst, s[1] / s[0])
    return worst


def peel_search(state, seed=0):
    """One peel search on ``state``: its stacked partial-transpose spectra,
    each split at ``tol_rank`` times its largest magnitude."""
    subsets = subset_representatives(state.n)
    sd = spectral(np.stack([partial_transpose(state, subset).matrix for subset in subsets]))
    cut = state.cfg.tol_rank * np.abs(sd.eigenvalues).max(axis=1, keepdims=True)
    ranks = (sd.eigenvalues > cut).sum(axis=1).tolist()
    return oracle._find_peelable_product_vector(sd, ranks, subsets, state.dims, state.cfg, seed)


@pytest.fixture
def calls(monkeypatch):
    """Counts of eigensolves, Newton steps and batched SVD ratio passes."""
    count = {"eig": 0, "newton": 0, "batched_svd": 0}

    def counting(owner, name, key, rows_over=None):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if rows_over is None or args[0].shape[0] > rows_over:
                count[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    counting(np.linalg, "eigh", "eig")
    counting(np.linalg, "eigvalsh", "eig")
    counting(oracle, "_truncated_step", "newton")
    counting(oracle, "_factorize", "batched_svd", rows_over=1)
    return count


class TestFindProductVector:
    def test_pencil_contains_single_product(self):
        # |01> meets the pencil tangentially, which caps the direction
        # accuracy near sqrt(tol); the residual certificate stays tight
        rows = np.array([[1, 0, 0, 1], [0, 1, 0, 0]], dtype=complex)
        hit = find_product_vector(SubspaceBasis(rows, (2, 2)), restarts=50, seed=1)
        assert hit is not None
        assert hit.residual <= 1e-8
        direction = hit.vector / hit.vector[np.argmax(np.abs(hit.vector))]
        assert np.allclose(direction, [0, 1, 0, 0], atol=1e-5)

    def test_ces_range_yields_none(self):
        basis = range_basis(two_qutrit_ab_state(1.0, 1.0))
        assert find_product_vector(basis, restarts=500, seed=0) is None

    def test_planted_three_qubit_product(self):
        rng = np.random.default_rng(7)
        planted = assemble_product([ket(1, 0), random_vec(rng, 2), random_vec(rng, 2)])
        rows = np.vstack([planted] + [random_vec(rng, 8) for _ in range(3)])
        hit = find_product_vector(SubspaceBasis(rows, (2, 2, 2)), restarts=200, seed=0)
        assert hit is not None
        assert hit.residual <= 1e-10

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_hit_stays_in_subspace(self, seed):
        rng = np.random.default_rng(seed)
        planted = assemble_product([random_vec(rng, 3), random_vec(rng, 3)])
        rows = np.vstack([planted] + [random_vec(rng, 9) for _ in range(3)])
        basis = SubspaceBasis(rows, (3, 3))
        hit = find_product_vector(basis, restarts=200, seed=seed)
        assert hit is not None
        q, _ = np.linalg.qr(rows.T)
        proj = q @ (q.conj().T @ hit.vector)
        assert np.linalg.norm(hit.vector - proj) <= 1e-10
        ok, _ = is_product(hit.vector, (3, 3))
        assert ok

    def test_empty_basis(self):
        st_ = two_qutrit_ab_state(1.0, 1.0)
        full_rank_kernel = kernel_basis(new_state(np.eye(4), (2, 2)))
        assert full_rank_kernel.k == 0
        assert find_product_vector(full_rank_kernel, restarts=10, seed=0) is None
        assert st_ is not None

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"chunk_size": -3}, "chunk_size"), ({"chunk_size": 0}, "chunk_size"),
         ({"restarts": -1}, "restarts")],
    )
    def test_search_knobs_that_sweep_nothing_rejected(self, kwargs, name):
        # a search over no start would return None, which reads as "no product vector"
        basis = planted_basis(0, (3, 3))
        with pytest.raises(ValueError, match=name):
            find_product_vector(basis, **kwargs)


class TestSearchCost:
    """Sweep passes, counted through ``_product_residuals``, so the bounds hold on any machine."""

    @pytest.fixture
    def passes(self, monkeypatch):
        count = [0]
        real = oracle._product_residuals

        def counted(*args):
            count[0] += 1
            return real(*args)

        monkeypatch.setattr(oracle, "_product_residuals", counted)
        return count

    def test_peel_search_stops_early(self, passes):
        hit = peel_search(random_separable((3, 3), 4, seed=0))
        assert hit is not None
        # 19 passes measured; waiting for every row to stall took 157
        assert passes[0] <= 60

    def test_planted_search_stops_early(self, passes):
        hit = find_product_vector(planted_basis(0, (3, 3)), restarts=200, seed=0)
        assert hit is not None
        # 49 passes measured; waiting for every row to stall took 202
        assert passes[0] <= MAX_SWEEPS // 2

    def test_ces_search_still_finds_nothing(self, passes):
        basis = range_basis(two_qutrit_ab_state(1.0, 1.0))
        assert find_product_vector(basis, restarts=64, seed=0) is None
        assert 0 < passes[0] <= MAX_SWEEPS


class TestHitResidualsAreExact:
    """Sweep ratios are power-step upper bounds on s2/s1, not exact values;
    every certified residual must be the SVD ratio of the returned vector."""

    def assert_exact(self, hit, dims):
        assert hit.residual <= 1e-8
        assert abs(hit.residual - svd_flattening_ratio(hit.vector, dims)) <= 1e-12
        # the factors multiply out to the vector, phase included
        assert np.linalg.norm(assemble_product(hit.factors) - hit.vector) <= 1e-7

    def test_find_product_vector(self):
        rows = np.array([[1, 0, 0, 1], [0, 1, 0, 0]], dtype=complex)
        hit = find_product_vector(SubspaceBasis(rows, (2, 2)), restarts=50, seed=1)
        self.assert_exact(hit, (2, 2))
        for seed, dims in [(0, (3, 3)), (1, (2, 2, 2)), (2, (2, 4))]:
            hit = find_product_vector(planted_basis(seed, dims), restarts=200, seed=seed)
            self.assert_exact(hit, dims)

    def test_peel(self):
        for seed, dims, rank in [(0, (3, 3), 4), (1, (2, 2, 2), 4), (2, (2, 3), 3)]:
            self.assert_exact(peel_search(random_separable(dims, rank, seed=seed)), dims)

    def test_kernel_count(self):
        hits = count_kernel_product_vectors_3x3(kernel_basis(two_qutrit_ab_state(1.0, 1.0)))
        assert len(hits) == 6
        for hit in hits:
            self.assert_exact(hit, (3, 3))


class TestPowerStepSweep:
    """The sweep takes each party's lead by a warm-started power step, not an eigensolve."""

    @pytest.mark.parametrize("seed, dims", [(0, (3, 3)), (1, (2, 2, 2))])
    def test_search_makes_no_eigensolve(self, calls, seed, dims):
        hit = find_product_vector(planted_basis(seed, dims), restarts=200, seed=seed)
        assert hit is not None
        assert calls["eig"] == 0
        # the hit ends the sweep, whose end-of-chunk SVD ratios would go unused
        assert calls["batched_svd"] == 0

    def test_negative_search_newton_stops_on_stagnation(self, calls):
        basis = range_basis(two_qutrit_ab_state(1.0, 1.0))
        assert find_product_vector(basis, restarts=64, seed=0) is None
        # 96 steps measured (8 on each of 12 candidates); running every
        # candidate to its 80-iteration cap took 960
        assert 0 < calls["newton"] <= 200

    def test_peel_step_diagonalizes_each_transpose_once(self, calls, monkeypatch):
        searches = [0]
        real = oracle._find_peelable_product_vector

        def counted(*args, **kwargs):
            searches[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "_find_peelable_product_vector", counted)
        st_ = random_separable((2, 2, 2), 4, seed=1)
        before = calls["eig"]
        assert greedy_decompose(st_, max_terms=6) is not None
        # one stacked eigensolve per round holds the state and its three
        # representative partial transposes
        assert searches[0] == 4
        assert calls["eig"] - before == searches[0]

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(2, 2), (3, 3), (2, 3), (2, 4), (2, 2, 2), (3, 2, 2)]),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_ratio_bound_dominates_svd_ratio(self, seed, dims, rows):
        rng = np.random.default_rng(seed)
        x = random_vec(rng, (rows, int(np.prod(dims))))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        leads = [random_vec(rng, (rows, dp)) for dp in dims]
        exact = oracle._factorize(x, dims)[1]
        for prev in (None, leads):
            ratios, _, _ = oracle._product_residuals(x, dims, prev)
            assert np.all(ratios >= exact - 1e-12)


class TestKernelCounting:
    def test_family_kernel_has_exactly_six(self):
        hits = count_kernel_product_vectors_3x3(kernel_basis(two_qutrit_ab_state(1.0, 1.0)))
        assert len(hits) == 6
        kernel = kernel_basis(two_qutrit_ab_state(1.0, 1.0))
        q, _ = np.linalg.qr(kernel.rows.T)
        for hit in hits:
            ok, _ = is_product(hit.vector, (3, 3))
            assert ok
            proj = q @ (q.conj().T @ hit.vector)
            assert np.linalg.norm(hit.vector - proj) <= 1e-8

    def test_six_vectors_in_general_position(self):
        hits = count_kernel_product_vectors_3x3(kernel_basis(two_qutrit_ab_state(1.0, 1.0)))
        assert check_general_position([h.factors for h in hits], (3, 3))

    @pytest.mark.parametrize("count", [1, 3, 5])
    @pytest.mark.parametrize("seed", range(10))
    def test_planted_product_recovered(self, count, seed):
        # Bezout forces a sixth product vector even beside five planted ones
        rng = np.random.default_rng(seed)
        planted = [assemble_product([random_vec(rng, 3) for _ in range(2)]) for _ in range(count)]
        rows = np.vstack(planted + [random_vec(rng, 9) for _ in range(5 - count)])
        hits = count_kernel_product_vectors_3x3(SubspaceBasis(rows, (3, 3)))
        assert len(hits) == 6
        for target in planted:
            overlaps = [abs(np.vdot(h.vector, target)) / np.linalg.norm(target) for h in hits]
            assert max(overlaps) >= 1 - 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_perturbed_line_kernel_has_six(self, seed):
        # the line e0 (x) span(e0, e1) moved off the kernel by 1e-4 leaves
        # six isolated product vectors, close to degenerate but certifiable
        rng = np.random.default_rng(seed)
        e = np.eye(3)
        rows = np.vstack(
            [np.kron(e[0], e[j]) + 1e-4 * random_vec(rng, 9) for j in (0, 1)]
            + [random_vec(rng, 9) for _ in range(3)]
        )
        kernel = SubspaceBasis(rows, (3, 3))
        hits = count_kernel_product_vectors_3x3(kernel)
        assert len(hits) == 6
        q, _ = np.linalg.qr(kernel.rows.T)
        for hit in hits:
            assert svd_flattening_ratio(hit.vector, (3, 3)) <= 1e-8
            assert np.linalg.norm(hit.vector - q @ (q.conj().T @ hit.vector)) <= 1e-8

    @pytest.mark.parametrize("kind", ["separable", "random"])
    @pytest.mark.parametrize("seed", range(10))
    def test_separable_rank4_kernel_recorded_behavior(self, kind, seed):
        # complement of four generic product projectors, or a random
        # 5-dim subspace: the generic count of six, each hit exact
        if kind == "separable":
            kernel = kernel_basis(random_separable((3, 3), 4, seed=seed))
        else:
            rng = np.random.default_rng(seed)
            kernel = SubspaceBasis(np.vstack([random_vec(rng, 9) for _ in range(5)]), (3, 3))
        hits = count_kernel_product_vectors_3x3(kernel)
        assert len(hits) == 6
        q, _ = np.linalg.qr(kernel.rows.T)
        for hit in hits:
            assert svd_flattening_ratio(hit.vector, (3, 3)) <= 1e-8
            assert np.linalg.norm(hit.vector - q @ (q.conj().T @ hit.vector)) <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_order_survives_a_change_of_kernel_basis(self, seed):
        # the phase of each hit comes from LAPACK and moves with the basis;
        # the order, taken with each largest entry turned real positive,
        # must not
        kernel = kernel_basis(random_separable((3, 3), 4, seed=seed))
        rng = np.random.default_rng(seed)
        mix, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        hits = count_kernel_product_vectors_3x3(kernel)
        mixed = count_kernel_product_vectors_3x3(SubspaceBasis(mix @ kernel.rows, (3, 3)))
        for a, b in zip(hits, mixed):
            assert abs(np.vdot(a.vector, b.vector)) >= 1 - 1e-8

    @pytest.mark.parametrize("planted", [
        [(0, 0), (0, 1), (0, 2)],  # the plane e0 (x) C^3
        [(0, 0), (0, 1)],  # the line e0 (x) span(e0, e1)
        [(0, 0), (1, 0)],  # the line span(e0, e1) (x) e0
    ])
    def test_non_isolated_families_raise(self, planted):
        # every 5-dim subspace meets the Segre variety, and these meet it
        # in infinitely many points: no finite answer is right
        rng = np.random.default_rng(0)
        e = np.eye(3)
        rows = np.vstack(
            [np.kron(e[i], e[j]) for i, j in planted]
            + [random_vec(rng, 9) for _ in range(5 - len(planted))]
        )
        with pytest.raises(DegenerateConfiguration):
            count_kernel_product_vectors_3x3(SubspaceBasis(rows, (3, 3)))

    def test_transversality_certificate(self):
        # the counted hits are transverse; a point on a line of product
        # vectors inside the kernel is not, its tangent holding the line
        kernel = kernel_basis(two_qutrit_ab_state(1.0, 1.0))
        bilinear = np.linalg.svd(kernel.rows)[2][5:].conj().reshape(4, 3, 3)
        for hit in count_kernel_product_vectors_3x3(kernel):
            assert oracle._transverse(*hit.factors, bilinear)
        rng = np.random.default_rng(0)
        e = np.eye(3)
        rows = np.vstack(
            [np.kron(e[0], e[0]), np.kron(e[0], e[1])] + [random_vec(rng, 9) for _ in range(3)]
        )
        bilinear = np.linalg.svd(rows)[2][5:].conj().reshape(4, 3, 3)
        assert not oracle._transverse(e[0], (e[0] + 2 * e[1]) / np.sqrt(5), bilinear)

    def test_wrong_dimension_rejected(self):
        rng = np.random.default_rng(12)
        rows = np.vstack([random_vec(rng, 9) for _ in range(4)])
        with pytest.raises(WrongDimension):
            count_kernel_product_vectors_3x3(SubspaceBasis(rows, (3, 3)))

    def test_deterministic_in_seed(self):
        kernel = kernel_basis(two_qutrit_ab_state(1.0, 1.0))
        a = count_kernel_product_vectors_3x3(kernel, seed=5)
        b = count_kernel_product_vectors_3x3(kernel, seed=5)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.vector, y.vector)


class TestBipartiteKernelVectors:
    def test_divincenzo_all_cuts(self):
        st_ = divincenzo_state()
        lam = spectral(st_).eigenvalues[0]
        for cut in (1, 2, 3):
            vecs = bipartite_kernel_product_vectors_2x2x2(st_, cut)
            assert len(vecs) == 4
            for v in vecs:
                assert np.linalg.norm(st_.matrix @ v) <= 1e-10 * lam

    def test_one_spectral_pass_per_cut(self, calls):
        st_ = divincenzo_state()
        for cut in (1, 2, 3):
            before = calls["eig"]
            assert len(bipartite_kernel_product_vectors_2x2x2(st_, cut)) == 4
            # the eigenvalue stack is_ppt reads and spectral(state)
            assert calls["eig"] - before == 2

    def test_cut_one_vectors_are_bipartite_products(self):
        vecs = bipartite_kernel_product_vectors_2x2x2(divincenzo_state(), 1)
        for v in vecs:
            ok, _ = is_product(v, (2, 4))
            assert ok

    def test_separable_input_rejected(self):
        with pytest.raises(NotApplicable):
            bipartite_kernel_product_vectors_2x2x2(random_separable((2, 2, 2), 4, seed=1), 1)

    def test_rank_three_input_rejected(self):
        with pytest.raises(NotApplicable, match="does not have rank four"):
            bipartite_kernel_product_vectors_2x2x2(random_separable((2, 2, 2), 3, seed=1), 1)

    def test_npt_input_rejected(self):
        # GHZ plus a little of three random product projectors: rank 4, NPT
        rng = np.random.default_rng(0)
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 2 ** -0.5
        m = np.outer(ghz, ghz.conj())
        for _ in range(3):
            v = assemble_product([random_vec(rng, 2) for _ in range(3)])
            m += 0.1 * np.outer(v, v.conj()) / np.vdot(v, v).real
        state = new_state(m, (2, 2, 2))
        assert rank_of(state) == 4
        with pytest.raises(NotApplicable, match="not PPT"):
            bipartite_kernel_product_vectors_2x2x2(state, 1)

    def test_wrong_dims_rejected(self):
        with pytest.raises(NotApplicable):
            bipartite_kernel_product_vectors_2x2x2(two_qutrit_ab_state(1.0, 1.0), 1)

    def test_bad_cut_rejected(self):
        with pytest.raises(NotApplicable):
            bipartite_kernel_product_vectors_2x2x2(divincenzo_state(), 4)


class TestCutDecomposition:
    @pytest.mark.parametrize("coherence, decomposes", [(0.0, True), (0.5, False)])
    def test_products_that_do_not_reconstruct_are_declined(self, coherence, decomposes):
        # the range of psi W psi^H holds exactly the two products psi; with an
        # off-diagonal W the state is NPT and no mixture of them
        rng = np.random.default_rng(3)
        psi = np.column_stack([assemble_product([random_vec(rng, 2), random_vec(rng, 2)])
                               for _ in range(2)])
        psi /= np.linalg.norm(psi, axis=0)
        w = np.array([[1.0, coherence], [coherence, 1.0]])
        st_ = new_state(psi @ w @ psi.conj().T, (2, 2))
        comp = compress_support(st_)
        dec = oracle._decompose(st_, comp.isometries, comp.state, spectral(comp.state), 2, 2, 0)
        assert (dec is not None) == decomposes
        if decomposes:
            assert np.linalg.norm(dec.reconstruct() - st_.matrix) <= 1e-8 * st_.trace
            assert sorted(t.weight for t in dec.terms) == pytest.approx([1.0, 1.0])


def two_product_npt():
    # the range holds exactly the two products psi, but the state is NPT
    rng = np.random.default_rng(3)
    psi = np.column_stack([assemble_product([random_vec(rng, 2), random_vec(rng, 2)])
                           for _ in range(2)])
    psi /= np.linalg.norm(psi, axis=0)
    return new_state(psi @ np.array([[1.0, 0.5], [0.5, 1.0]]) @ psi.conj().T, (2, 2))


def kernel_projector():
    # a 5-dim range of 3 x 3 holds six product vectors
    rows = kernel_basis(two_qutrit_ab_state(1.0, 1.0)).rows
    return new_state(rows.T @ rows.conj(), (3, 3))


class TestRangeProducts:
    """Ranges the quadric kernel cannot decompose: it declines, raises
    nothing, and ``classify`` goes on to Wootters' closed form (two qubits),
    the spectral decomposition (one party), the peel or no decomposition."""

    DECLINED = {
        "2x2-r3": lambda: random_separable((2, 2), 3, seed=0),
        "2x2-r4": lambda: random_separable((2, 2), 4, seed=4),
        # compresses to dims (2,): a single party has no flattening minors
        "one-party": lambda: new_state(
            np.kron(np.diag([1.0, 0.0]), np.diag([0.6, 0.4, 0.0])), (2, 3)),
        "six-in-five": kernel_projector,
        "npt-two-products": two_product_npt,
    }

    @pytest.mark.parametrize("name", list(DECLINED))
    def test_declined_without_raising(self, name, check_decomposition):
        st_ = self.DECLINED[name]()
        comp = compress_support(st_)
        sd = spectral(comp.state)
        rank = rank_of(comp.state)
        found = oracle._range_products(
            sd.eigenvectors[:, :rank], sd.eigenvalues[:rank], comp.state.dims, 0
        )
        # the NPT range has exactly its two products; the residual check declines them
        assert (found is None) == (name != "npt-two-products")
        rep = classify(st_)
        # no peel round: only the exact sources answer
        dec = oracle._decompose(st_, comp.isometries, comp.state, sd, rank, 0, 0)
        if name.startswith("2x2") or name == "one-party":
            # two-qubit rank 3 and 4 go to Wootters' closed form instead, and
            # one party's spectral decomposition is a product one
            assert dec is not None
            check_decomposition(st_, rep)
        else:
            assert dec is None

    def test_chow33_range_gives_its_four_vectors(self):
        st_ = random_separable((3, 3), 4, seed=5)
        sd = spectral(st_)
        psi, weights = oracle._range_products(sd.eigenvectors[:, :4], sd.eigenvalues[:4], (3, 3), 0)
        assert psi.shape == (4, 9) and np.all(weights > 0)
        for v in psi:
            assert svd_flattening_ratio(v, (3, 3)) <= 1e-10
        recon = (psi.T * weights) @ psi.conj()
        assert np.linalg.norm(recon - st_.matrix) <= 1e-10 * st_.trace


class TestRangeDecompositionKernels:
    """The cached pencil mix and the stacked flattening SVD give the bits of
    the per-call formulas they replace, kept here as references."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_pencil_mix_is_a_fresh_draw(self, seed, r):
        rng = np.random.default_rng(seed)
        fresh = rng.standard_normal((2, r)) + 1j * rng.standard_normal((2, r))
        for _ in range(2):  # built once, then served from the cache
            mix = oracle._pencil_mix(seed, r)
            assert np.array_equal(mix, fresh)
            assert not mix.flags.writeable

    @staticmethod
    def per_party_factors(comp, psi):
        """The leading left singular vectors from one SVD per party, lifted."""
        svds = [np.linalg.svd(m) for m in oracle._flattenings(psi, comp.state.dims)]
        local = iter(u[:, :, 0] for u, _, _ in svds)
        return [
            next(local) @ w.T if w.shape[1] > 1 else np.broadcast_to(w[:, 0], (len(psi), len(w)))
            for w in comp.isometries
        ]

    @pytest.mark.parametrize("dims, rank, seed", [
        ((3, 3), 4, 5), ((2, 2, 2), 4, 1), ((2, 2, 3), 3, 2), ((2, 3), 2, 3),
        ((2, 2), 4, 4), ((2, 2, 2, 2), 3, 6), ((3, 2, 2), 2, 7),
    ])
    def test_stacked_svd_matches_one_per_party(self, dims, rank, seed):
        st_ = random_separable(dims, rank, seed=seed)
        comp = compress_support(st_)
        sd = spectral(comp.state)
        r = rank_of(comp.state)
        vecs, eigs = sd.eigenvectors[:, :r], sd.eigenvalues[:r]
        if comp.state.dims == (2, 2) and r >= 3:
            psi, _ = oracle._wootters_products(vecs, eigs, comp.state.cfg.tol_psd)
        else:
            psi, _ = oracle._range_products(vecs, eigs, comp.state.dims, 0)
        dec = oracle._decompose(st_, comp.isometries, comp.state, sd, r, 0, 0)
        assert dec is not None
        want = self.per_party_factors(comp, psi)
        for i, term in enumerate(dec.terms):
            for got, factor in zip(term.factors, want):
                assert np.array_equal(got, factor[i])

    @pytest.mark.parametrize("seed", range(20))
    def test_row_kron_matches_kron_and_outer(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(1, 5)))
        rows = [rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d)) for d in dims]
        got = oracle._row_kron(rows)
        for i in range(3):
            parts = [f[i] for f in rows]
            assert np.array_equal(got[i], functools.reduce(np.kron, parts))
            assert np.array_equal(got[i], functools.reduce(lambda u, v: np.outer(u, v).ravel(), parts))
            assert np.array_equal(got[i], assemble_product(parts))


def old_inline_guard(a, b):
    """The guard each caller spelled out before :func:`oracle._isolated_eig`."""
    try:
        a_inv = np.linalg.inv(a)
        if np.abs(a).sum(0).max() * np.abs(a_inv).sum(0).max() * 1e-6 >= 1.0:
            return None
        mu, coeffs = np.linalg.eig(b @ a_inv)
        gaps = np.abs(np.subtract.outer(mu, mu))[~np.eye(len(mu), dtype=bool)]
        if gaps.min() < 1e-6 * np.abs(mu).max():
            return None
        coeffs /= np.linalg.norm(coeffs, axis=0)
    except np.linalg.LinAlgError:
        return None
    return mu, coeffs, a_inv


class TestIsolatedEig:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("r", range(2, 10))
    def test_random_pencils_match_the_inline_guard(self, r, seed):
        rng = np.random.default_rng([r, seed])
        a, b = (rng.standard_normal((2, r, r)) + 1j * rng.standard_normal((2, r, r)))
        want = old_inline_guard(a, b)
        got = oracle._isolated_eig(a, b)
        assert want is not None and got is not None
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    @staticmethod
    def unitary(rng, r):
        return np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))[0]

    def test_ill_conditioned_a_is_declined(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 3))
        # 1-norm condition number exactly 1e6, then 1e9 behind a rotation
        edge = np.diag([1.0, 1e-6, 1.0])
        q = self.unitary(rng, 3)
        worse = q @ np.diag([1.0, 1e-9, 0.5]) @ q.conj().T
        for a in (edge, worse):
            assert oracle._isolated_eig(a, b) is None
            assert old_inline_guard(a, b) is None

    def test_clustered_pair_is_declined(self):
        rng = np.random.default_rng(2)
        a = self.unitary(rng, 4)
        p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = p @ np.diag([1.0, 1.0 + 1e-9, 2.0, -3.0]) @ np.linalg.inv(p) @ a
        assert oracle._isolated_eig(a, b) is None
        assert old_inline_guard(a, b) is None

    @pytest.mark.parametrize("a", [np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])])
    def test_singular_a_is_declined_without_raising(self, a):
        b = np.eye(a.shape[0])
        assert oracle._isolated_eig(a, b) is None
        assert old_inline_guard(a, b) is None


def single_product_state():
    rng = np.random.default_rng(9)
    vec = assemble_product([random_vec(rng, 2), random_vec(rng, 3)])
    return new_state(np.outer(vec, vec.conj()), (2, 3))


class TestDecompositionTerms:
    """Every decomposer's terms are their weight and factors: the vector is
    the factors' product, and JSON, which carries no vector, rebuilds the
    same operator."""

    DECOMPOSERS = {
        "pure-product": single_product_state,
        "one-party": TestRangeProducts.DECLINED["one-party"],
        "wootters": lambda: random_separable((2, 2), 4, seed=4),
        "quadric": lambda: random_separable((3, 3), 4, seed=5),
        "peel": lambda: random_separable((2, 3), 4, seed=1),
    }

    @pytest.mark.parametrize("name", list(DECOMPOSERS))
    def test_term_is_its_factors(self, name, check_decomposition):
        import json

        from sep4.engine import report_from_dict, report_to_dict

        st_ = self.DECOMPOSERS[name]()
        rep = classify(st_)
        check_decomposition(st_, rep)
        dec = rep.decomposition
        for term in dec.terms:
            assert np.array_equal(term.vector, assemble_product(term.factors))
        back = report_from_dict(json.loads(json.dumps(report_to_dict(rep))))
        assert np.array_equal(back.decomposition.reconstruct(), dec.reconstruct())

    @pytest.mark.parametrize("name", list(DECOMPOSERS))
    @pytest.mark.parametrize("scale", [1.0, 3e-7, 7e5])
    def test_stated_residual_is_the_reconstruction_residual(self, name, scale):
        st_ = self.DECOMPOSERS[name]()
        st_ = new_state(st_.matrix * scale, st_.dims)
        dec = classify(st_).decomposition
        assert np.linalg.norm(st_.matrix - dec.reconstruct()) == dec.residual


class TestGreedyDecompose:
    def test_two_orthogonal_products(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        m[3, 3] = 1.0
        dec = greedy_decompose(new_state(m, (2, 2)), max_terms=4)
        assert dec is not None
        assert dec.length_upper_bound == 2
        assert np.linalg.norm(dec.reconstruct() - m) <= 1e-10

    def test_rank3_multipartite(self):
        st_ = random_separable((2, 2, 3), 3, seed=21)
        assert rank_of(st_) == 3
        dec = greedy_decompose(st_, max_terms=4)
        assert dec is not None
        assert dec.length_upper_bound == 3
        assert dec.residual <= 1e-8 * st_.trace

    def test_family_with_b_zero(self):
        st_ = two_qutrit_ab_state(1.0, 0.0)
        dec = greedy_decompose(st_, max_terms=6)
        assert dec is not None
        assert dec.length_upper_bound <= 6
        assert dec.residual <= 1e-8 * st_.trace
        assert np.linalg.norm(dec.reconstruct() - st_.matrix) <= 1e-7

    def test_every_term_is_product(self):
        dec = greedy_decompose(random_separable((2, 3), 3, seed=22), max_terms=4)
        assert dec is not None
        for term in dec.terms:
            assert term.weight > 0
            ok, _ = is_product(term.vector, (2, 3))
            assert ok

    def test_transpose_rank_sum_strictly_decreases(self):
        # each peel lowers the combined rank over partial transposes
        from sep4.ppt import subset_representatives
        from sep4.states import MultiState, partial_transpose, _rank_from_eigenvalues

        st_ = random_separable((2, 2), 4, seed=3)
        dec = greedy_decompose(st_, max_terms=6)
        assert dec is not None
        remainder = np.array(st_.matrix)
        subsets = subset_representatives(2)

        def total_rank(m):
            s = MultiState(m, st_.dims, st_.cfg)
            return sum(
                _rank_from_eigenvalues(
                    np.linalg.eigvalsh(partial_transpose(s, sub).matrix), 1e-9
                )
                for sub in subsets
            )

        prev = total_rank(remainder)
        for term in dec.terms:
            remainder = remainder - term.weight * np.outer(term.vector, term.vector.conj())
            remainder = 0.5 * (remainder + remainder.conj().T)
            if np.linalg.norm(remainder) <= 1e-8 * st_.trace:
                break
            cur = total_rank(remainder)
            assert cur < prev
            prev = cur

    def test_party_of_dimension_one(self):
        st_ = random_separable((1, 2, 2), 2, seed=3)
        dec = greedy_decompose(st_, max_terms=4)
        assert dec is not None and dec.length_upper_bound == 2
        assert [f.shape for f in dec.terms[0].factors] == [(1,), (2,), (2,)]
        assert np.linalg.norm(dec.reconstruct() - st_.matrix) <= 1e-8 * st_.trace

    def test_entangled_input_fails_cleanly(self):
        dec = greedy_decompose(two_qutrit_ab_state(1.0, 1.0), max_terms=6)
        assert dec is None


class TestSerialization:
    def test_hit_round_trip(self):
        import json

        from sep4 import from_dict, to_dict
        from sep4.oracle import ProductVectorHit

        rows = np.array([[1, 0, 0, 1], [0, 1, 0, 0]], dtype=complex)
        hit = find_product_vector(SubspaceBasis(rows, (2, 2)), restarts=50, seed=1)
        blob = json.dumps(to_dict(hit))
        back = from_dict(ProductVectorHit, json.loads(blob))
        assert np.array_equal(back.vector, hit.vector)
        assert back.residual == hit.residual

    def test_decomposition_round_trip(self):
        import json

        from sep4 import from_dict, to_dict
        from sep4.oracle import Decomposition

        dec = greedy_decompose(random_separable((2, 2), 2, seed=8), max_terms=3)
        assert dec is not None
        blob = json.dumps(to_dict(dec))
        back = from_dict(Decomposition, json.loads(blob))
        assert back.length_upper_bound == dec.length_upper_bound
        assert np.linalg.norm(back.reconstruct() - dec.reconstruct()) <= 1e-10


class TestGeneralPosition:
    def test_three_independent_qubit_pairs(self):
        e = ket(1, 1)
        vectors = [(ket(1, 0), ket(1, 0)), (ket(0, 1), ket(0, 1)), (e, e)]
        assert check_general_position(vectors, (2, 2))

    def test_repeated_first_factor_fails(self):
        vectors = [(ket(1, 0), ket(1, 0)), (ket(1, 0), ket(0, 1)), (ket(0, 1), ket(1, 0))]
        assert not check_general_position(vectors, (2, 2))

    def test_empty_list(self):
        assert check_general_position([], (2, 2))
