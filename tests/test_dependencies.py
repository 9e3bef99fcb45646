"""sep4 needs numpy only: scipy, sympy and mpmath may be installed
beside it, but the package must import and run without them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
for name in ("scipy", "sympy", "mpmath"):
    sys.modules[name] = None

import sep4
from sep4.gallery import divincenzo_state, random_separable

assert sep4.classify(divincenzo_state()).verdict == "Entangled"
report = sep4.classify(random_separable((2, 3), 3, seed=0))
assert report.verdict == "Separable" and report.decomposition is not None
report = sep4.classify(random_separable((2, 2), 5, seed=0))
assert report.rank == 4 and len(report.decomposition.terms) == 4
assert sep4.greedy_decompose(random_separable((2, 2, 2), 3, seed=1), max_terms=4) is not None
print("ok")
"""


def test_runs_without_undeclared_dependencies():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
