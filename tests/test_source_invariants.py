"""Invariants of the package source, read from its syntax tree.

README "Numerical conventions": every eigendecomposition goes through
``states.spectral``, and only ``new_state``'s PSD check and ``is_ppt``'s
partial transposes ask for eigenvalues alone.  Every finite
product-vector set comes from one guarded non-Hermitian eigenproblem,
the only ``eig`` call, and no polynomial is built or rooted.  Plücker
minors are wedge products of the rows, so the Chow matrix is the only
determinant.  Every decomposition takes one path,
``oracle._decompose``: it alone rescales by a power of two and builds
decomposition terms, and it is all ``engine`` imports from ``oracle``
besides the ``Decomposition`` type.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sep4"

ALLOWED = {
    "eigh": {"states.spectral"},
    "eigvalsh": {"states.new_state", "ppt.is_ppt"},
    "eig": {"oracle._isolated_eig"},
    "det": {"chow.eval_chow"},
}


def uses(names) -> dict[str, set[str]]:
    """``module.function`` of every reference to each of ``names``: an
    attribute (``np.linalg.eigh``), a bare name or an import of it.  A
    reference inside a nested function or a method counts for the
    top-level function or class that holds it."""
    found = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = path.stem
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{path.stem}.{top.name}"
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


def test_scan_sees_every_module():
    # a scan that parsed nothing would pass the test above vacuously
    assert {"states", "ppt", "oracle", "engine"} <= {p.stem for p in PACKAGE.glob("*.py")}
    assert uses({"spectral"})["spectral"] >= {"engine.classify", "ppt.is_ppt"}
