import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sep4.chow import (
    MAX_MX2,
    ChowForm,
    _check_form,
    builtin_chow,
    delta1,
    eval_chow,
    form_checksum,
    form_to_dict,
    generate_chow_Mx2,
    permute_form,
    subspace_meets_segre,
    supported_systems,
)
from sep4.errors import (
    NotBijective,
    ShapeMismatch,
    UnsupportedSystem,
    WrongDimension,
)
from sep4.gallery import divincenzo_state, two_qutrit_ab_rows, two_qutrit_ab_state
from sep4.grassmann import SubspaceBasis, pluecker
from sep4.states import assemble_product, range_basis


def normalized_cells(form):
    return [[tuple(sorted(cell)) for cell in row] for row in form.entries]


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestDelta1:
    @pytest.mark.parametrize(
        "dims,expected",
        [((2, 2), 1), ((3, 2), 2), ((4, 2), 3), ((2, 3), 2), ((3, 3), 4), ((2, 2, 2), 4)],
    )
    def test_values(self, dims, expected):
        assert delta1(dims) == expected


class TestBuiltinTables:
    def test_two_qubit_structure(self):
        form = builtin_chow((2, 2))
        assert normalized_cells(form) == [
            [((1, (1,)),), ((1, (2,)),)],
            [((1, (3,)),), ((1, (4,)),)],
        ]

    def test_3x3_corner_entries(self):
        form = builtin_chow((3, 3))
        assert form.matrix_size == 6
        assert form.entries[0][0] == ((1, (1, 2, 4, 5)),)

    def test_2x2x2_entry(self):
        form = builtin_chow((2, 2, 2))
        assert form.matrix_size == 6
        assert tuple(sorted(form.entries[0][4])) == ((-1, (1, 3, 5, 6)), (1, (1, 2, 5, 7)))

    def test_tuple_lengths_match_delta1(self):
        for dims in supported_systems():
            form = builtin_chow(dims)
            for row in form.entries:
                for cell in row:
                    for _, tup in cell:
                        assert len(tup) == delta1(dims)

    def test_unsupported_system(self):
        with pytest.raises(UnsupportedSystem):
            builtin_chow((2, 4))

    def test_checksum_stable(self):
        a = form_checksum(builtin_chow((3, 3)))
        b = form_checksum(builtin_chow((3, 3)))
        assert a == b and len(a) == 64


class TestCheckForm:
    """A table is checked when it is loaded: every row as long as the
    matrix, every index tuple of length k, within [1, d] and strictly
    increasing."""

    @staticmethod
    def with_first_cell(form, tup):
        """``form`` with its first cell replaced by the lone term ``tup``."""
        first = (((1, tup),), *form.entries[0][1:])
        return ChowForm(form.dims, form.matrix_size, (first, *form.entries[1:]))

    def test_builtin_tables_pass(self):
        for dims in supported_systems():
            _check_form(builtin_chow(dims))

    def test_ragged_rows(self):
        form = builtin_chow((3, 3))
        ragged = (form.entries[0][:-1], *form.entries[1:])
        with pytest.raises(UnsupportedSystem, match="ragged rows"):
            _check_form(ChowForm(form.dims, form.matrix_size, ragged))

    @pytest.mark.parametrize("tup", [(0, 1, 2, 3), (1, 2, 3, 10), (1, 2, 3)],
                             ids=["below-1", "above-d", "short"])
    def test_tuple_out_of_range(self, tup):
        # the 3x3 form takes 4-tuples over [1, 9]
        with pytest.raises(UnsupportedSystem, match=r"malformed Chow table tuple"):
            _check_form(self.with_first_cell(builtin_chow((3, 3)), tup))

    @pytest.mark.parametrize("tup", [(2, 1, 3, 4), (1, 1, 2, 3)], ids=["unsorted", "repeated"])
    def test_tuple_not_increasing(self, tup):
        with pytest.raises(UnsupportedSystem, match="not strictly increasing"):
            _check_form(self.with_first_cell(builtin_chow((3, 3)), tup))


class TestGenerator:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_tables(self, m):
        assert normalized_cells(generate_chow_Mx2(m)) == normalized_cells(builtin_chow((m, 2)))

    def test_m5_shape_and_first_row(self):
        form = generate_chow_Mx2(5)
        assert form.matrix_size == 5
        # base sequence for the first row is (1, 3, 5, 7): no increments in
        # column 1, a single increment in column 2
        assert form.entries[0][0] == ((1, (1, 3, 5, 7)),)
        assert tuple(sorted(form.entries[0][1])) == (
            (1, (1, 3, 5, 8)),
            (1, (1, 3, 6, 7)),
            (1, (1, 4, 5, 7)),
            (1, (2, 3, 5, 7)),
        )

    def test_builtin_delegates_above_four(self):
        assert normalized_cells(builtin_chow((5, 2))) == normalized_cells(generate_chow_Mx2(5))

    @pytest.mark.parametrize("m", [-1, 0, 1, MAX_MX2 + 1, 24])
    def test_bounded_in_m(self, m):
        # the form has M 2^(M-1) terms: no M above the bound is built
        with pytest.raises(UnsupportedSystem, match=f"2 <= M <= {MAX_MX2}, got {m}"):
            generate_chow_Mx2(m)

    def test_builtin_obeys_the_bound(self):
        assert builtin_chow((MAX_MX2, 2)).matrix_size == MAX_MX2
        with pytest.raises(UnsupportedSystem):
            builtin_chow((MAX_MX2 + 1, 2))


class TestPermuteForm:
    def test_identity(self):
        form = builtin_chow((3, 2))
        assert normalized_cells(permute_form(form, range(1, 7))) == normalized_cells(form)

    def test_derives_2x3_from_3x2(self):
        permuted = permute_form(builtin_chow((3, 2)), [1, 4, 2, 5, 3, 6])
        assert normalized_cells(permuted) == normalized_cells(builtin_chow((2, 3)))

    def test_round_trip_inverse(self):
        form = builtin_chow((3, 2))
        perm = [3, 1, 6, 2, 5, 4]
        inverse = [perm.index(i) + 1 for i in range(1, 7)]
        back = permute_form(permute_form(form, perm), inverse)
        assert normalized_cells(back) == normalized_cells(form)

    def test_non_bijection_rejected(self):
        with pytest.raises(NotBijective):
            permute_form(builtin_chow((2, 2)), [1, 1, 2, 3])


class TestEvalChow:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(1.0, 1.0, -1.0), (0.0, 2.0, 0.0), (2.0, 1.0, -16.0), (1 + 1j, 1.0, -(1 + 1j) ** 4)],
    )
    def test_family_identity_unnormalized(self, a, b, expected):
        p = pluecker(SubspaceBasis(two_qutrit_ab_rows(a, b), (3, 3)))
        value = eval_chow(builtin_chow((3, 3)), p, normalized=False)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_degree_homogeneity(self):
        rng = np.random.default_rng(0)
        rows = np.vstack([random_vec(rng, 9) for _ in range(4)])
        scaled = np.array(rows)
        scaled[0] *= 1.7
        form = builtin_chow((3, 3))
        v1 = eval_chow(form, pluecker(SubspaceBasis(rows, (3, 3))), normalized=False)
        v2 = eval_chow(form, pluecker(SubspaceBasis(scaled, (3, 3))), normalized=False)
        assert v2 == pytest.approx(1.7**form.degree * v1, rel=1e-9)

    def test_normalized_eval_basis_invariant(self):
        rng = np.random.default_rng(1)
        rows = np.vstack([random_vec(rng, 8) for _ in range(4)])
        mix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        form = builtin_chow((2, 2, 2))
        v1 = eval_chow(form, pluecker(SubspaceBasis(rows, (2, 2, 2))))
        v2 = eval_chow(form, pluecker(SubspaceBasis(mix @ rows, (2, 2, 2))))
        assert abs(v1) == pytest.approx(abs(v2), rel=1e-9)

    def test_shape_mismatch(self):
        p = pluecker(SubspaceBasis(np.eye(4, dtype=complex)[:1], (2, 2)))
        with pytest.raises(ShapeMismatch):
            eval_chow(builtin_chow((3, 3)), p)

    def test_permuted_form_consistency(self):
        # the permuted form evaluated on coordinates written in the
        # permuted basis equals the original form on the original ones
        rng = np.random.default_rng(2)
        rows = np.vstack([random_vec(rng, 6) for _ in range(2)])
        perm = [1, 4, 2, 5, 3, 6]
        form = builtin_chow((3, 2))
        permuted_form = permute_form(form, perm)
        permuted_rows = np.zeros_like(rows)
        for i, target in enumerate(perm):
            permuted_rows[:, target - 1] = rows[:, i]
        v1 = eval_chow(permuted_form, pluecker(SubspaceBasis(permuted_rows, (2, 3))), normalized=False)
        v2 = eval_chow(form, pluecker(SubspaceBasis(rows, (3, 2))), normalized=False)
        assert v1 == pytest.approx(v2, rel=1e-9)


class TestCompiledEvaluation:
    """``eval_chow`` gathers each form's terms from its compiled tables; the
    value is bit-identical to the literal cell-by-cell sum over the entries,
    signs of zero included."""

    @staticmethod
    def literal(form, p, normalized):
        vec = p.normalized / np.abs(p.normalized).max() if normalized else p.raw
        values = dict(zip(p.tuples, vec))
        mat = np.zeros((form.matrix_size, form.matrix_size), dtype=complex)
        for i, row in enumerate(form.entries):
            for j, cell in enumerate(row):
                mat[i, j] = sum(sign * values[tup] for sign, tup in cell)
        return complex(np.linalg.det(mat))

    def check(self, form, seed):
        rng = np.random.default_rng(seed)
        rows = np.vstack([random_vec(rng, form.d) for _ in range(form.k)])
        self.check_rows(form, rows)

    def check_rows(self, form, rows):
        p = pluecker(SubspaceBasis(rows, form.dims))
        for normalized in (True, False):
            assert repr(eval_chow(form, p, normalized)) == repr(self.literal(form, p, normalized))

    @pytest.mark.parametrize("dims", supported_systems())
    def test_coordinate_subspaces(self, dims):
        # one nonzero Plücker coordinate, every other an exact zero
        form = builtin_chow(dims)
        rng = np.random.default_rng(sum(dims))
        for _ in range(8):
            pick = rng.choice(form.d, size=form.k, replace=False)
            self.check_rows(form, np.eye(form.d, dtype=complex)[pick])

    @pytest.mark.parametrize("name", ["divincenzo", "ab-1-1", "ab-2-0.5", "ab-1-0", "ab-0-1"])
    def test_unrotated_gallery_ranges(self, name):
        if name == "divincenzo":
            form, rows = builtin_chow((2, 2, 2)), range_basis(divincenzo_state()).rows
        else:
            a, b = (float(x) for x in name.split("-")[1:])
            form, rows = builtin_chow((3, 3)), range_basis(two_qutrit_ab_state(a, b)).rows
        self.check_rows(form, rows)

    @pytest.mark.parametrize("dims", supported_systems())
    def test_every_table(self, dims):
        self.check(builtin_chow(dims), seed=len(dims) * 10 + dims[0])

    def test_fresh_forms_never_share_cells(self):
        # new forms of one shape, each dropped before the next is built: a
        # cache keyed by dims or by id() would hand one form another's cells
        for seed in range(4):
            form = generate_chow_Mx2(5)
            if seed % 2:
                form = permute_form(form, np.random.default_rng(seed).permutation(10) + 1)
            self.check(form, seed)

    def test_permuted_form_after_its_original(self):
        form = builtin_chow((3, 3))
        self.check(form, seed=7)
        self.check(permute_form(form, [3, 1, 2, 6, 4, 5, 9, 7, 8]), seed=7)


class TestSubspaceMeetsSegre:
    def test_single_product_vector_span(self):
        rows = np.zeros((1, 4), dtype=complex)
        rows[0, 0] = 1.0
        meets, value = subspace_meets_segre(SubspaceBasis(rows, (2, 2)))
        assert meets
        assert value <= 1e-12

    def test_family_range_is_ces(self):
        basis = SubspaceBasis(two_qutrit_ab_rows(1.0, 1.0), (3, 3))
        meets, value = subspace_meets_segre(basis)
        assert not meets
        assert value > 1e-5

    @given(st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_planted_product_always_meets(self, seed):
        rng = np.random.default_rng(seed)
        planted = assemble_product((random_vec(rng, 3), random_vec(rng, 3)))
        rows = np.vstack([planted] + [random_vec(rng, 9) for _ in range(3)])
        meets, value = subspace_meets_segre(SubspaceBasis(rows, (3, 3)))
        assert meets
        assert value <= 1e-10

    def test_wrong_dimension(self):
        rng = np.random.default_rng(3)
        rows = np.vstack([random_vec(rng, 9) for _ in range(3)])
        with pytest.raises(WrongDimension):
            subspace_meets_segre(SubspaceBasis(rows, (3, 3)))

    def test_unsupported_dims(self):
        rng = np.random.default_rng(4)
        rows = np.vstack([random_vec(rng, 8) for _ in range(delta1((2, 4)))])
        with pytest.raises(UnsupportedSystem):
            subspace_meets_segre(SubspaceBasis(rows, (2, 4)))


class TestFormSerialization:
    def test_dict_round_trip_exact(self):
        form = builtin_chow((2, 2, 2))
        blob = form_to_dict(form)
        assert blob["size"] == 6
        assert blob["dims"] == [2, 2, 2]
        assert len(blob["rows"]) == 6
