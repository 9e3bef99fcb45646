"""Invariants of the package source, read from its syntax tree.

README "Numerical conventions": every eigendecomposition goes through
``states.spectral``, and only ``new_state``'s PSD check (its stacked
pass, ``states._new_states``) and the PPT eigenvalue stack (``ppt._spectra``: an operator and its partial
transposes) ask for eigenvalues alone.  Every finite
product-vector set comes from one guarded non-Hermitian eigenproblem,
the only ``eig`` call, and no polynomial is built or rooted.  Plücker
minors are wedge products of the rows, so the Chow matrix is the only
determinant.  Every decomposition takes one path,
``oracle._decompose``: it alone rescales by a power of two and builds
decomposition terms, and it is all ``engine`` imports from ``oracle``
besides the ``Decomposition`` type.  ``states.py`` owns the tensor
layout: party flattenings, row Kronecker products, the one product
factorization and the one weighted projector sum are its kernels, and
only operator Kronecker products are written out elsewhere.  The greedy
peel works on bare operators: ``oracle`` builds no ``MultiState``.
There is one verdict path: ``classify`` is ``engine._classify_group`` on
a group of one, whose stages take every compressed state's eigenvalues
from the PPT eigenvalue stack and its eigenvectors from one shared
``spectral`` call.  A state is validated in one place, ``new_state``'s
stacked pass ``states._new_states`` (``new_state`` is its group of one,
``sep4 batch`` runs it once per ``dims``), which alone marks what it
builds; the verdict path passes an unmarked state through ``new_state``
(``states._validated``) before anything is stacked, and ``new_state``'s
PSD check, ``states._check_psd``, also reads each compressed state's own
spectrum.  One rule counts every rank, ``states._rank_from_eigenvalues``;
the verdict path reads a compressed state's rank off ``is_ppt``'s first
record, and reads its eigenvalue stack in one place.  A pure product
state is a compression result with no state, and
``states.compress_support`` alone raises
``AllPartiesTrivial``.  The rules are one ladder in ``engine._verdict``,
the one place a ``ClassificationReport`` is built.  The stages catch
nothing: an error raises, and the one rerun, ``states._each_alone``,
which validation and ``engine._classify_group`` share, alone turns it
into a state's result.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sep4"

ALLOWED = {
    "eigh": {"states.spectral"},
    "eigvalsh": {"states._new_states", "ppt._spectra"},
    "eig": {"oracle._isolated_eig"},
    "det": {"chow.eval_chow"},
}


def top_levels(skip=()):
    """``(module.function, node)`` of every top-level statement of the
    package, a function or class named as such, anything else by its
    module; the modules in ``skip`` are left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in skip:
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = path.stem
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{path.stem}.{top.name}"
            yield where, top


def uses(names, skip=()) -> dict[str, set[str]]:
    """``module.function`` of every reference to each of ``names``: an
    attribute (``np.linalg.eigh``), a bare name or an import of it.  A
    reference inside a nested function or a method counts for the
    top-level function or class that holds it."""
    found = defaultdict(set)
    for where, top in top_levels(skip):
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                ref = [node.attr]
            elif isinstance(node, ast.Name):
                ref = [node.id]
            elif isinstance(node, ast.ImportFrom):
                ref = [alias.name for alias in node.names]
            else:
                continue
            for name in set(ref) & set(names):
                found[name].add(where)
    return found


def test_eigensolvers_called_only_where_documented():
    found = uses(set(ALLOWED))
    for name, allowed in ALLOWED.items():
        assert found[name] == allowed, f"{name} referenced in {sorted(found[name])}"


def test_no_polynomial_roots_or_fft():
    found = uses({"roots", "fft"})
    assert not found, f"referenced in {dict(found)}"


DECOMPOSE = "oracle._decompose"


def test_only_the_decomposition_entry_rescales():
    found = uses({"frexp", "ldexp"})
    assert found["frexp"] == found["ldexp"] == {DECOMPOSE}, dict(found)


def test_only_the_decomposition_entry_builds_terms():
    found = uses({"DecompositionTerm"})["DecompositionTerm"]
    assert found == {DECOMPOSE, "oracle.Decomposition"}, sorted(found)


def test_engine_imports_only_the_decomposition_entry_from_oracle():
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "oracle"
        for alias in node.names
    }
    assert imported == {"_decompose", "Decomposition"}


# Party flattenings (states._flattenings, by transposes), row Kronecker
# products and their reductions stay in states.py; the Kronecker products left elsewhere are of operators:
# _kernel_pv_round's operator determinants and the module's _HADAMARD_4.
# np.subtract.outer in _isolated_eig is a table of eigenvalue gaps.
# gallery.py builds states and is not scanned.
LAYOUT = {
    "moveaxis": set(),
    "reduce": {"states", "states._row_kron", "states._compress_group"},
    "kron": {"oracle", "oracle._kernel_pv_round"},
    "outer": {"oracle._isolated_eig"},
}


def test_tensor_layout_only_in_states():
    found = uses(set(LAYOUT), skip={"gallery"})
    for name, allowed in LAYOUT.items():
        assert found[name] == allowed, f"{name} referenced in {sorted(found[name])}"


def test_one_factorization():
    # a singular value decomposition of party flattenings is a product
    # factorization; there is one
    found = uses({"svd", "_flattenings", "moveaxis"})
    assert found["svd"] & (found["_flattenings"] | found["moveaxis"]) == {"states._factorize"}


def is_projector_sum(node) -> bool:
    """Whether ``node`` is ``(rows.T * weights) @ rows.conj()``, or the same
    with the factors of the left product swapped."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
        return False
    left, right = node.left, node.right
    conj = (isinstance(right, ast.Call) and isinstance(right.func, ast.Attribute)
            and right.func.attr == "conj")
    scaled = isinstance(left, ast.BinOp) and isinstance(left.op, ast.Mult) and any(
        isinstance(side, ast.Attribute) and side.attr == "T" for side in (left.left, left.right)
    )
    return conj and scaled


def test_one_projector_sum():
    sums = {where for where, top in top_levels() for node in ast.walk(top) if is_projector_sum(node)}
    assert sums == {"states._projector_sum"}, sorted(sums)
    # the stated residual, the reconstruction and the peel's remainder
    assert uses({"_projector_sum"})["_projector_sum"] >= {
        "oracle.Decomposition", "oracle._decompose", "oracle._peel"
    }


def test_the_peel_works_on_bare_operators():
    # oracle builds no MultiState, and one subset conjugation of product
    # factors serves the Gauss-Newton conditions and the peel weight
    built = {
        where
        for where, top in top_levels()
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "MultiState"
    }
    assert built and not {where for where in built if where.startswith("oracle")}, sorted(built)
    assert uses({"_subset_conjugate"})["_subset_conjugate"] == {
        "oracle._compatible_newton", "oracle._peel_weight"
    }


def test_scan_sees_every_module():
    # a scan that parsed nothing would pass the test above vacuously
    assert {"states", "ppt", "oracle", "engine"} <= {p.stem for p in PACKAGE.glob("*.py")}
    assert uses({"spectral"})["spectral"] >= {"engine._classify_stacked", "states._local_ranges"}
    assert uses({"_spectra"})["_spectra"] >= {"engine._classify_stacked", "ppt.is_ppt"}


def function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    (node,) = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == name]
    return node


def called(node) -> list[str]:
    """The names called in ``node``, bare or as attributes, once per call."""
    return [getattr(call.func, "id", getattr(call.func, "attr", None))
            for call in ast.walk(node) if isinstance(call, ast.Call)]


def test_one_verdict_path():
    # classify is the group of one: the rules live in one function, which
    # only the group's stages call, and the group is entered from classify
    # and from sep4 batch's chunk function alone; its rerun is the shared
    # error boundary's
    found = uses({"_classify_group", "_classify_stacked", "_verdict", "RULE_NPT"})
    assert found["_classify_group"] == {"engine.classify", "cli", "cli._classify_files"}
    assert found["_classify_stacked"] == {"engine._classify_group"}
    assert "_each_alone" in called(function("engine", "_classify_group"))
    assert found["_verdict"] == {"engine._classify_stacked"}
    assert found["RULE_NPT"] == {"engine", "engine._verdict"}
    assert "_classify_group" in called(function("engine", "classify"))


def test_group_stages_take_one_spectral_path():
    # every compressed state, one party or several, takes its eigenvalues
    # from the one eigenvalue stack and its eigenvectors from one stacked
    # spectral call; no branch on the party count, no re-entry, and the
    # rules diagonalize nothing themselves
    stages = called(function("engine", "_classify_stacked"))
    assert stages.count("_spectra") == stages.count("spectral") == 1
    assert "_classify_stacked" not in stages and "_classify_group" not in stages
    one_party = [
        node for node in ast.walk(function("engine", "_classify_stacked"))
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
        and getattr(node.left.func, "id", None) == "len"
    ]
    assert not one_party
    eigensolvers = {"spectral", "_spectra", "eigh", "eigvalsh"}
    assert not eigensolvers & set(called(function("engine", "_verdict")))


def test_a_pure_product_is_a_compression_result():
    # a valid pure product state compresses to no state, and its report
    # comes from the rules every state takes: engine never sees
    # AllPartiesTrivial, which compress_support alone raises
    names = {where for where, _ in top_levels()}
    assert "engine._pure_product" not in names
    found = uses({"AllPartiesTrivial", "_pure_product"})
    assert not found["_pure_product"]
    assert found["AllPartiesTrivial"] == {"states", "states.compress_support"}


def test_one_rule_ladder():
    # the rules pick a verdict and a rule in one chain, with no nested
    # helper, and the one report is built after it; the group's
    # eigenvectors are split by states._members
    built = [
        where
        for where, top in top_levels()
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ClassificationReport"
    ]
    assert built == ["engine._verdict"], built
    verdict = function("engine", "_verdict")
    nested = [node for node in ast.walk(verdict) if node is not verdict
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert not nested
    assert "engine._split" not in {where for where, _ in top_levels()}
    assert not uses({"_split"})["_split"]


def test_one_psd_check():
    # new_state's PSD check is the one the verdict path runs on each
    # compressed state's own spectrum, where the group's stages read the
    # eigenvalue stack
    assert uses({"_check_psd"})["_check_psd"] == {
        "engine", "states._new_states", "engine._classify_stacked"
    }


def names_tol_rank(node) -> bool:
    return getattr(node, "attr", getattr(node, "id", None)) == "tol_rank"


def test_one_rank_rule():
    # one rule counts every rank: only _rank_from_eigenvalues compares or
    # scales tol_rank against data (the tolerance's own range check
    # compares it with a constant), the verdict path takes the rank from
    # is_ppt's first record, whose one call in engine sits in the group's
    # stages, and the rules call no rank or PPT counter of their own
    cutoffs = set()
    for where, top in top_levels():
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
            elif isinstance(node, ast.BinOp):
                sides = [node.left, node.right]
            else:
                continue
            if any(map(names_tol_rank, sides)) and not all(
                names_tol_rank(side) or isinstance(side, ast.Constant) for side in sides
            ):
                cutoffs.add(where)
    assert cutoffs == {"states._rank_from_eigenvalues"}, sorted(cutoffs)
    assert not {where for where in uses({"_rank_from_eigenvalues"})["_rank_from_eigenvalues"]
                if where.split(".")[0] == "engine"}
    calls = [name for where, top in top_levels() if where.split(".")[0] == "engine"
             for name in called(top)]
    assert calls.count("is_ppt") == called(function("engine", "_classify_stacked")).count(
        "is_ppt") == 1
    assert not {"is_ppt", "_rank_from_eigenvalues", "rank_of"} & set(
        called(function("engine", "_verdict")))


def test_directly_built_states_are_checked_in_one_place():
    # new_state's stacked pass alone checks entries and alone sets the
    # mark (and the layout, which random_separable also checks before it
    # allocates), new_state and the state files' reader are its groups,
    # and the verdict path's two entries and local_ranks pass an unmarked
    # state through new_state
    found = uses({"_check_state", "_check_layout", "_check_entries", "_check_input",
                  "_valid", "_validated", "_new_states"})
    assert "states._check_state" not in {where for where, _ in top_levels()}
    assert not found["_check_state"] | found["_check_input"]
    assert found["_check_entries"] == {"states._new_states"}
    assert found["_check_layout"] == {
        "states._new_states", "gallery", "gallery.random_separable"
    }
    assert found["_new_states"] == {"states.new_state", "states._checked_states"}
    assert found["_valid"] == {"states.MultiState", "states._validated"}
    marks = {where for where, top in top_levels() for node in ast.walk(top)
             if isinstance(node, ast.Constant) and node.value == "_valid"}
    assert marks == {"states._new_states"}
    assert found["_validated"] == {
        "engine", "engine._classify_stacked", "states.compress_support", "states.local_ranks"
    }


def test_one_partial_trace_kernel():
    # the reduced states come from the cached gather or from one
    # transpose-reshape-trace kernel; the einsum path and its subscript
    # alphabet, and the batch's one-file wrapper, are gone
    names = {where for where, _ in top_levels()}
    assert not names & {"cli._classify_file", "states._trace_subscripts", "states._reduced"}
    found = uses({"_LETTERS", "_trace_subscripts", "_classify_file", "einsum", "_partial_trace"})
    assert not found["_LETTERS"] | found["_trace_subscripts"] | found["_classify_file"]
    assert not {where for where in found["einsum"] if where.startswith("states")}
    assert found["_partial_trace"] == {"states._reduced_states", "states.reduced_state"}


def test_one_error_boundary():
    # a stage raises, and the groups' one rerun gives each state its lone
    # outcome: the stages hold no try, every other handler of the verdict
    # path's modules re-raises, and no helper unpacks a group of one
    stages = (("states", "_new_states"), ("states", "_compress_group"),
              ("engine", "_classify_stacked"))
    for module, name in stages:
        assert not [node for node in ast.walk(function(module, name)) if isinstance(node, ast.Try)]
    tries = {where for where, top in top_levels() if where.split(".")[0] == "engine"
             for node in ast.walk(top) if isinstance(node, ast.Try)}
    assert not tries
    kept = {
        where
        for where, top in top_levels()
        if where.split(".")[0] in {"engine", "states", "ppt"}
        for node in ast.walk(top)
        if isinstance(node, ast.ExceptHandler) and not isinstance(node.body[-1], ast.Raise)
    }
    assert kept == {"states._each_alone"}, sorted(kept)
    assert uses({"_each_alone"})["_each_alone"] == {
        "engine", "engine._classify_group", "states._checked_states", "states._each_alone",
    }
    assert "states._only" not in {where for where, _ in top_levels()}
    assert not uses({"_only"})["_only"]
