import numpy as np
import pytest

from sep4 import from_dict, to_dict
from sep4.errors import NotBipartite
from sep4.gallery import (
    conjugate_local, divincenzo_state, random_local_unitaries, random_separable,
    two_qutrit_ab_state,
)
from sep4.ppt import PptReport, birank, is_ppt, subset_representatives
from sep4.states import (
    MultiState, _rank_from_eigenvalues, new_state, partial_transpose, rank_of
)


def ghz_projector():
    v = np.zeros(8)
    v[0] = 1.0
    v[7] = 1.0
    return new_state(np.outer(v, v), (2, 2, 2))


class TestSubsetEnumeration:
    def test_never_contains_last_party(self):
        for n in (1, 2, 3, 4):
            subs = subset_representatives(n)
            assert len(subs) == 2 ** (n - 1)
            assert all(n not in s for s in subs)
            assert subs[0] == ()

    def test_order_popcount_then_lex(self):
        assert subset_representatives(4) == [
            (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
        ]


def schmidt_pair_mixture(dims, seed):
    """A Schmidt pair on parties 1 and 2, times a random product on the
    rest, plus a little of a random product: NPT, and the partial
    transposes on (1), (2), (1, 3) and (2, 3) have the same spectrum in
    exact arithmetic."""
    rng = np.random.default_rng(seed)

    def product(ds):
        vec = np.ones(1, dtype=complex)
        for dp in ds:
            vec = np.kron(vec, rng.standard_normal(dp) + 1j * rng.standard_normal(dp))
        return vec

    t = rng.uniform(0.5, np.pi / 4)
    pair = np.zeros(dims[0] * dims[1], dtype=complex)
    pair[0], pair[dims[1] + 1] = np.cos(t), np.sin(t)
    psi, phi = np.kron(pair, product(dims[2:])), product(dims)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    return new_state(np.outer(psi, psi.conj()) + 0.2 * np.outer(phi, phi.conj()), dims)


class TestIsPpt:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2)])
    def test_tied_worst_subsets_name_the_first_in_every_frame(self, dims):
        # minima within tol_psd * lambda_max of the lowest tie: rounding,
        # which the local frame moves, does not pick among them
        for seed in range(3):
            state = schmidt_pair_mixture(dims, seed)
            for frame in range(20):
                moved = conjugate_local(state, random_local_unitaries(dims, 100 * seed + frame))
                report = is_ppt(moved)
                assert not report.is_ppt
                assert report.worst_subset == (1,)

    def test_separable_sums_are_ppt(self):
        for seed in range(5):
            st = random_separable((2, 2, 2), 3, seed=seed)
            assert is_ppt(st).is_ppt

    def test_ghz_projector_npt(self):
        report = is_ppt(ghz_projector())
        assert not report.is_ppt
        # min eigenvalue of the party-1 transpose computed independently
        pt = partial_transpose(ghz_projector(), (1,))
        expected = np.linalg.eigvalsh(pt.matrix)[0]
        rec = {r.subset: r.min_eigenvalue for r in report.records}
        assert rec[(1,)] == pytest.approx(expected)
        assert expected == pytest.approx(-1.0)
        assert report.worst_subset != ()

    def test_two_qutrit_family_ppt_at_real_parameters(self):
        st = two_qutrit_ab_state(2.0, 0.5)
        assert is_ppt(st).is_ppt

    def test_rank_matches_complement(self):
        st = two_qutrit_ab_state(1.0, 1.0)
        for subset in [(), (1,), (2,)]:
            pt_s = partial_transpose(st, subset)
            comp = tuple(sorted({1, 2} - set(subset)))
            pt_c = partial_transpose(st, comp)
            r_s = rank_of(MultiState(pt_s.matrix, pt_s.dims, pt_s.cfg))
            r_c = rank_of(MultiState(pt_c.matrix, pt_c.dims, pt_c.cfg))
            assert r_s == r_c

    def test_scale_invariance(self):
        st = two_qutrit_ab_state(1.0, 1.0)
        for factor in (1e-3, 1e3):
            scaled = new_state(st.matrix * factor, st.dims)
            assert is_ppt(scaled).is_ppt == is_ppt(st).is_ppt

    def test_record_count(self):
        st = random_separable((2, 2, 2), 2, seed=1)
        assert len(is_ppt(st).records) == 4

    def test_worst_subset_ignores_noise_within_tol_psd(self):
        # both minima are rounding-size; which one reads lower must not
        # decide the worst subset: a minimum within the band counts as 0
        def state(p, q):
            m = np.zeros((4, 4))
            m[0, 0] = m[3, 3] = 0.5
            m[1, 2] = m[2, 1] = p  # the state's minimum is -p
            m[0, 3] = m[3, 0] = q  # the party-1 transpose's minimum is -q
            return new_state(m, (2, 2))

        reports = [is_ppt(state(1e-16, 2e-16)), is_ppt(state(2e-16, 1e-16))]
        assert all(r.is_ppt for r in reports)
        assert [r.worst_subset for r in reports] == [(), ()]

    def test_worst_subset_beyond_the_band_is_the_lowest(self):
        # full-rank PPT state: every minimum is positive and outside the band
        m = np.diag([1.0, 0.5, 0.25, 1.0]).astype(complex)
        m[0, 3] = m[3, 0] = 0.3  # moves to the 01/10 block under transpose
        report = is_ppt(new_state(m, (2, 2)))
        mins = [rec.min_eigenvalue for rec in report.records]
        assert report.is_ppt
        assert mins == pytest.approx([0.25, 0.05])
        assert report.worst_subset == (1,)


class TestStackedSpectra:
    """Stacked partial transposes give the records of one call per subset."""

    # each state with the shapes of the eigvalsh calls is_ppt makes on it,
    # the state itself first
    STATES = {
        "2x2x2": (lambda: random_separable((2, 2, 2), 4, seed=3), [(4, 8, 8)]),
        "2x2x3": (lambda: random_separable((2, 2, 3), 4, seed=3), [(4, 12, 12)]),
        "2x2x2x2": (lambda: random_separable((2, 2, 2, 2), 4, seed=3), [(8, 16, 16)]),
        # a stack of the state and its 63 transposes would hold 2^20 entries
        "2^7": (lambda: random_separable((2,) * 7, 3, seed=3), [(128, 128)] * 64),
        "one-party": (lambda: random_separable((5,), 2, seed=3), [(1, 5, 5)]),
        "ghz-npt": (ghz_projector, [(4, 8, 8)]),
    }

    @staticmethod
    def reference(state):
        records = []
        for subset in subset_representatives(state.n):
            eigs = np.linalg.eigvalsh(partial_transpose(state, subset).matrix)
            rank = _rank_from_eigenvalues(eigs, state.cfg.tol_rank)
            records.append((subset, float(eigs[0]), rank))
        return records

    @pytest.mark.parametrize("name", list(STATES))
    def test_records_bit_equal_to_one_call_per_subset(self, name):
        state = self.STATES[name][0]()
        got = [(r.subset, r.min_eigenvalue, r.rank) for r in is_ppt(state).records]
        assert got == self.reference(state)

    @pytest.mark.parametrize("name", list(STATES))
    def test_one_call_while_the_stack_is_small(self, name, monkeypatch):
        make, shapes = self.STATES[name]
        state = make()
        seen = []
        for solver in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, solver)

            def recorded(a, *args, _real=real, _solver=solver, **kwargs):
                seen.append((_solver, a.shape))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, solver, recorded)
        is_ppt(state)
        assert seen == [("eigvalsh", shape) for shape in shapes]


class TestBirank:
    def test_product_projector(self):
        v = np.kron(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        st = new_state(np.outer(v, v), (2, 2))
        assert birank(st) == (1, 1)

    def test_divincenzo_grouped(self):
        st = divincenzo_state()
        grouped = new_state(st.matrix, (2, 4))
        assert birank(grouped) == (4, 4)

    def test_two_qutrit_entangled_family(self):
        assert birank(two_qutrit_ab_state(1.0, 1.0)) == (4, 4)

    def test_not_bipartite(self):
        with pytest.raises(NotBipartite):
            birank(divincenzo_state())

    @pytest.mark.parametrize("make", [
        lambda: random_separable((2, 3), 4, seed=1),
        lambda: two_qutrit_ab_state(0.0, 0.0),
        lambda: two_qutrit_ab_state(1.0, 1.0),
    ], ids=["2x3-rank4", "ab-separable", "ab-entangled"])
    def test_one_eigenvalue_call(self, make, monkeypatch):
        # both ranks are read off the PPT eigenvalue stack: one eigvalsh
        # call, no eigh, and the ranks one call per operator gives
        state = make()
        want = tuple(_rank_from_eigenvalues(np.linalg.eigvalsh(m), state.cfg.tol_rank)
                     for m in (state.matrix, partial_transpose(state, (1,)).matrix))
        seen = []
        for solver in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, solver)

            def recorded(a, *args, _real=real, _solver=solver, **kwargs):
                seen.append(_solver)
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, solver, recorded)
        assert birank(state) == want
        assert seen == ["eigvalsh"]


class TestReportJson:
    def test_round_trip(self):
        report = is_ppt(two_qutrit_ab_state(1.0, 1.0))
        back = from_dict(PptReport, to_dict(report))
        assert back == report
