"""One cold start of sep4: import, load both Chow tables, first verdicts.

Run by the benchmark in a fresh interpreter; prints one JSON line with the
milliseconds the Chow tables took to load, and exits 1 on a wrong verdict.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sep4 import chow, engine, gallery  # noqa: E402

start = time.perf_counter()
chow.builtin_chow((3, 3))
chow.builtin_chow((2, 2, 2))
chow_ms = (time.perf_counter() - start) * 1000
for state, rule in ((gallery.random_ppt_rank4_33(0), "Chow33"), (gallery.divincenzo_state(), "Chow222")):
    report = engine.classify(state, decompose=False)
    if (report.verdict, report.rule) != ("Entangled", rule):
        print(f"cold start: {rule} state classified {report.verdict}/{report.rule}", file=sys.stderr)
        sys.exit(1)
print(json.dumps({"chow_first_ms": chow_ms}))
