"""Outside-in tracing of sep4's layers.

The package source is untouched: a :class:`Tracer` replaces functions with
timing or counting wrappers in every module that holds a reference to
them (``engine``, ``oracle``, ``ppt`` and ``cli`` bind names at import),
and puts the originals back on exit.  A span's self time is its duration
minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name, record whether the result is not None)
TIMED = [
    ("sep4.states", "compress_support", "states.compress_support", False),
    ("sep4.states", "local_ranks", "states.local_ranks", False),
    ("sep4.states", "rank_of", "states.rank_of", False),
    ("sep4.states", "range_basis", "states.range_basis", False),
    ("sep4.ppt", "is_ppt", "ppt.is_ppt", False),
    ("sep4.engine", "classify", "engine.classify", False),
    ("sep4.grassmann", "pluecker", "grassmann.pluecker", False),
    ("sep4.chow", "eval_chow", "chow.eval_chow", False),
    ("sep4.oracle", "find_product_vector", "oracle.find_product_vector", True),
    ("sep4.oracle", "_alternate_to_product", "oracle.alternate", False),
    ("sep4.oracle", "_newton_product_polish", "oracle.newton", True),
    ("sep4.oracle", "_compatible_newton", "oracle.newton", True),
    ("sep4.oracle", "greedy_decompose", "oracle.greedy_decompose", True),
    ("sep4.oracle", "_find_peelable_product_vector", "oracle.peel", True),
]
# wrapped in sep4.cli only, so that only the front end's calls count
CLI_TIMED = [
    ("_load_state", "cli.parse"),
    ("report_to_dict", "cli.serialize"),
    ("_classify_file", "cli.classify_file"),
]
COUNTED = [
    ("numpy.linalg", "eigh", "eigensolves"),
    ("numpy.linalg", "eigvalsh", "eigensolves"),
    ("sep4.oracle", "_product_residuals", "sweep_passes"),
]


class _TimedJson:
    """Stand-in for the ``json`` module inside ``sep4.cli`` with a timed ``dumps``."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Install with ``with Tracer(busy_dir) as t:``; read the totals afterwards.

    ``busy_dir`` receives one line per ``cli._classify_file`` call made in a
    forked batch worker, holding its busy seconds.
    """

    def __init__(self, busy_dir: str | None = None):
        self.busy_dir = busy_dir
        self.pid = os.getpid()
        self.calls: Counter = Counter()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.parents: dict[str, Counter] = defaultdict(Counter)
        self.outcomes: dict[str, Counter] = defaultdict(Counter)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, span: str, outcome: bool):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                self._close(span, duration, duration - frame[1])
                if stack:
                    stack[-1][1] += duration
            if outcome:
                self.outcomes[span]["hit" if result is not None else "miss"] += 1
            return result

        return wrapper

    def _close(self, span: str, duration: float, self_seconds: float) -> None:
        if os.getpid() != self.pid:
            if self.busy_dir is not None and span == "cli.classify_file":
                path = os.path.join(self.busy_dir, f"busy-{os.getpid()}.txt")
                with open(path, "a") as fh:
                    fh.write(f"{duration!r}\n")
            return
        self.calls[span] += 1
        self.total[span] += duration
        self.self_time[span] += self_seconds
        self.parents[span][self._stack[-1][2] if self._stack else None] += 1

    def _counted(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, owner: str, attr: str, make, everywhere: bool = True) -> None:
        module = sys.modules.get(owner)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{owner}.{attr}")
            return
        wrapper = make(original)
        holders = [module]
        if everywhere:
            holders += [m for name, m in list(sys.modules.items())
                        if m is not None and m is not module
                        and (name == "sep4" or name.startswith("sep4."))]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    self._undo.append((holder, name, original))

    def __enter__(self) -> "Tracer":
        import json

        self.absent = []
        for owner, attr, span, outcome in TIMED:
            self._replace(owner, attr, lambda fn, s=span, o=outcome: self._timed(fn, s, o))
        for attr, span in CLI_TIMED:
            self._replace("sep4.cli", attr, lambda fn, s=span: self._timed(fn, s, False), False)
        for owner, attr, counter in COUNTED:
            self._replace(owner, attr, lambda fn, c=counter: self._counted(fn, c))
        cli = sys.modules.get("sep4.cli")
        if cli is not None and getattr(cli, "json", None) is json:
            dumps = self._timed(json.dumps, "cli.serialize", False)
            cli.json = _TimedJson(json, dumps)
            self._undo.append((cli, "json", json))
        else:
            self.absent.append("sep4.cli.json")
        return self

    def __exit__(self, *exc) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()
