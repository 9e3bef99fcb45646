"""Closed-loop measurement of the benchmark workloads and their metrics.

Each workload is one client that sends its next call only after the
previous one returned.  Inputs are built from the seed before timing and
visited in rounds of one input per family.  ``seconds`` sets how many
rounds a run makes: as many as take that long at the workload's nominal
round cost.  Every run of a workload thus makes the same number of calls
with the same family mix, and a percentile means the same order statistic
in every run, however fast the machine is at the moment.  Every output is
checked against its construction label.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sep4 import chow, cli, engine, oracle
from sep4.grassmann import SubspaceBasis
from sep4.states import state_to_dict

import workloads as wl
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TAIL_BEYOND = 10
COLD_LAUNCHES = {False: 9, True: 3}
# a traced run spends this share of --seconds on each of its untraced and
# traced passes over the same rounds
TRACE_SHARE = 0.35
# measuring stops here, counted from the start of the process, so that a run
# ends within three minutes even on a machine several times slower than
# nominal; a run stopped early is flagged as truncated
MEASURE_LIMIT_S = 150.0
STARTED = time.perf_counter()
# The host flips between a fast and a 1.6x slower state many times a
# second, in proportions that drift over tens of seconds, so each timed
# metric is scaled to the reference machine (2 vCPUs, Xeon at 2.1 GHz) by a
# short fixed kernel timed between calls: its mean time over the run,
# against KERNEL_REF_S there, is the run's host slowdown.
KERNEL_REF_S = 0.0040
KERNEL_EVERY_S = 0.1

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

_OR = "sep4.oracle."
# metric, unit, functions it is measured from (absent when all of them are)
PER_LAYER = [
    ("states.eigensolves_per_op", "count", ["numpy.linalg.eigh", "numpy.linalg.eigvalsh"]),
    ("states.compress_support.self_ms", "ms", ["sep4.states.compress_support"]),
    ("states.local_ranks.self_ms", "ms", ["sep4.states.local_ranks"]),
    ("states.rank_of.self_ms", "ms", ["sep4.states.rank_of"]),
    ("states.range_basis.self_ms", "ms", ["sep4.states.range_basis"]),
    ("ppt.is_ppt.self_ms", "ms", ["sep4.ppt.is_ppt"]),
    ("engine.classify.self_ms", "ms", ["sep4.engine.classify"]),
    ("grassmann.pluecker.self_ms", "ms", ["sep4.grassmann.pluecker"]),
    ("chow.eval_chow.self_ms", "ms", ["sep4.chow.eval_chow"]),
    ("chow.builtin_chow.first_ms", "ms", ["sep4.chow.builtin_chow"]),
    ("oracle.find_product_vector.self_ms", "ms", [_OR + "find_product_vector"]),
    ("oracle.find_product_vector.hit_ratio", "ratio", [_OR + "find_product_vector"]),
    ("oracle.sweep_passes_per_search", "count", [_OR + "_product_residuals"]),
    ("oracle.alternate.self_ms", "ms", [_OR + "_alternate_to_product"]),
    ("oracle.newton.self_ms", "ms", [_OR + "_newton_product_polish", _OR + "_compatible_newton"]),
    ("oracle.newton.success_ratio", "ratio",
     [_OR + "_newton_product_polish", _OR + "_compatible_newton"]),
    ("oracle.greedy_decompose.calls_per_op", "count", [_OR + "greedy_decompose"]),
    ("oracle.greedy_decompose.success_ratio", "ratio", [_OR + "greedy_decompose"]),
    ("oracle.peel_searches_per_op", "count", [_OR + "_find_peelable_product_vector"]),
    ("oracle.peel.hit_ratio", "ratio", [_OR + "_find_peelable_product_vector"]),
    ("oracle.greedy_decompose.full_rank_2x2_failed_ratio", "ratio", []),
    ("cli.parse_ms", "ms", ["sep4.cli._load_state"]),
    ("cli.serialize_ms", "ms", ["sep4.cli.report_to_dict", "sep4.cli.json"]),
    ("cli.dispatch_overhead_ms", "ms", ["sep4.cli._classify_file"]),
    ("trace.overhead_ratio", "ratio", []),
]

@dataclass
class Sample:
    """One timed call: ``ops`` operations, the failures among them."""

    family: str
    seconds: float
    ops: int = 1
    failures: list = field(default_factory=list)
    kind: str = "main"
    terms_per_rank: float | None = None


# --- workloads ------------------------------------------------------------


class Workload:
    families: dict
    per_family: int
    round_seconds: float  # nominal cost of one round on 2 cores at 2.1 GHz
    op_name: str
    window_rounds: int | None = None

    def __init__(self, seed: int, work_dir: Path):
        self.cases = wl.make_cases(self.families, seed, self.per_family)
        self.width = len(self.families)
        self.host: HostSpeed | None = None

    def round(self, index: int) -> list:
        start = (index % self.per_family) * self.width
        return self.cases[start : start + self.width]

    def call(self, case):
        raise NotImplementedError

    def check(self, case, output) -> str | None:
        raise NotImplementedError

    def warm(self) -> None:
        for case in self.round(0):
            engine.classify(case.payload, decompose=False)

    def run_round(self, index: int) -> list[Sample]:
        out = []
        for case in self.round(index):
            if self.host:
                self.host.sample()
            start = time.perf_counter()
            try:
                output = self.call(case)
            except Exception as exc:  # a failed operation, counted, never fatal
                elapsed = time.perf_counter() - start
                out.append(Sample(case.family, elapsed, failures=[
                    f"{case.family}: raised {type(exc).__name__}: {exc}"]))
                continue
            elapsed = time.perf_counter() - start
            problem = self.check(case, output)
            out.append(self.sample(case, elapsed, output, problem))
        return out

    def sample(self, case, elapsed, output, problem) -> Sample:
        return Sample(case.family, elapsed, failures=[problem] if problem else [])

    def extra_metrics(self, samples) -> list[tuple]:
        return []


class VerdictMix(Workload):
    families = wl.VERDICT_MIX
    per_family = 32
    round_seconds = 0.008
    op_name = "verdicts"
    # ~1150 calls, three whole cycles of the inputs: the slowest 10 are then
    # slow calls, not the scheduler stalls of a few milliseconds that a 30 s
    # run collects dozens of
    window_rounds = 96

    def call(self, case):
        return engine.classify(case.payload, decompose=False)

    def check(self, case, report):
        return wl.check_verdict(case, report)


class DecomposeSeparable(Workload):
    families = wl.DECOMPOSE_SEPARABLE
    per_family = 48
    round_seconds = 1.65
    op_name = "decompositions"
    probe_inputs = 3

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        # a stream of its own, so the probe never shifts the timed inputs
        self.probe_cases = wl.make_cases(wl.FULL_RANK_2X2_PROBE, seed + 2**32,
                                         self.probe_inputs)

    def probe(self) -> dict:
        """Decompose the known-defect inputs, untimed, with the same check."""
        failures = []
        for case in self.probe_cases:
            try:
                problem = self.check(case, self.call(case))
            except Exception as exc:
                problem = f"{case.family}: raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(problem)
        return {"inputs": len(self.probe_cases), "failed": len(failures),
                "failures": failures}

    def call(self, case):
        return engine.classify(case.payload)

    def check(self, case, report):
        return wl.check_decomposition(case, report)

    def sample(self, case, elapsed, report, problem):
        s = super().sample(case, elapsed, report, problem)
        if report.decomposition is not None:
            s.terms_per_rank = len(report.decomposition.terms) / report.rank
        return s

    def extra_metrics(self, samples):
        ratios = [s.terms_per_rank for s in samples if s.terms_per_rank is not None]
        if not ratios:
            return []
        return [("decomp_terms_per_rank", sum(ratios) / len(ratios), "terms/rank",
                 f"mean over {len(ratios)} decompositions")]


class OracleCes(Workload):
    families = wl.ORACLE_CES
    per_family = 16
    round_seconds = 4.0
    op_name = "subspaces"

    def call(self, case):
        rows, dims, seed = case.payload
        basis = SubspaceBasis(rows, dims)
        meets, _ = chow.subspace_meets_segre(basis)
        hit = oracle.find_product_vector(basis, restarts=500, seed=seed, chunk_size=500)
        return meets, hit

    def check(self, case, result):
        return wl.check_search(case, result)

    def warm(self):
        for case in self.round(0):
            rows, dims, _ = case.payload
            chow.subspace_meets_segre(SubspaceBasis(rows, dims))


class BatchCli(Workload):
    """Each round runs ``sep4 batch`` twice over the same files: serially
    (the single-worker baseline) and with ``--parallel`` workers (timed)."""

    families = wl.BATCH_CLI
    per_family = 50
    round_seconds = 0.7
    op_name = "files"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.input_dir = work_dir / "states"
        self.input_dir.mkdir()
        self.out_file = work_dir / "out.jsonl"
        self.busy_dir = work_dir / "busy"
        self.busy_dir.mkdir()
        self.labels = {}
        for index, case in enumerate(self.cases):
            name = f"{index:04d}-{case.family}.json"
            (self.input_dir / name).write_text(json.dumps(state_to_dict(case.payload)))
            self.labels[name] = case

    def invoke(self, workers: int, kind: str) -> Sample:
        argv = ["batch", "--input", str(self.input_dir), "--out", str(self.out_file),
                "--parallel", str(workers)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        failures = [] if code == 0 else [f"batch exited {code}"]
        seen = set()
        with open(self.out_file) as fh:
            for line in fh:
                record = json.loads(line)
                name = record.get("file")
                case = self.labels.get(name)
                seen.add(name)
                if case is None:
                    failures.append(f"unexpected file {name}")
                elif "error" in record:
                    failures.append(f"{name}: {record['error']}")
                else:
                    problem = wl.check_verdict(case, engine.report_from_dict(record["report"]))
                    if problem:
                        failures.append(f"{name}: {problem}")
        failures += [f"{name}: no output line" for name in self.labels if name not in seen]
        return Sample("all", elapsed, ops=len(self.labels), failures=failures, kind=kind)

    def run_round(self, index):
        out = []
        for workers, kind in ((1, "serial"), (self.workers, "main")):
            if self.host:
                self.host.sample()
            out.append(self.invoke(workers, kind))
        return out

    def warm(self):
        self.run_round(0)

    def extra_metrics(self, samples):
        serial = [s.seconds for s in samples if s.kind == "serial"]
        parallel = [s.seconds for s in samples if s.kind == "main"]
        efficiency = statistics.median(serial) / (self.workers * statistics.median(parallel))
        return [("scaling_efficiency", efficiency, "ratio",
                 f"median serial / ({self.workers} x median --parallel {self.workers}), "
                 f"{len(parallel)} pairs of {len(self.labels)} files")]


WORKLOAD_CLASSES = {
    "verdict-mix": VerdictMix,
    "decompose-separable": DecomposeSeparable,
    "oracle-ces": OracleCes,
    "batch-cli": BatchCli,
}


# --- measurement ----------------------------------------------------------


def kernel_seconds() -> float:
    """Time of a fixed piece of work like sep4's own, made without sep4:
    small Hermitian eigensolves, a partial transpose, an interpreter loop."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(100):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        h = a @ a.conj().T
        np.linalg.eigvalsh(h)
        np.linalg.eigvalsh(h.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9))
        sum(x * x for x in range(60))
    return time.perf_counter() - start


def cold_starts(count: int) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters that import sep4 and give their
    first verdicts, each divided by the host slowdown the kernel shows just
    before and after it, and the Chow-table load time each reports."""
    walls, chow_ms = [], []
    for _ in range(count):
        before = kernel_seconds()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "cold_start.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        walls.append(wall * 2 * KERNEL_REF_S / (before + kernel_seconds()))
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
        chow_ms.append(json.loads(proc.stdout.strip().splitlines()[-1])["chow_first_ms"])
    return walls, chow_ms


def planned_rounds(work: Workload, seconds: float) -> int:
    return max(1, round(seconds / work.round_seconds))


class HostSpeed:
    """Kernel times sampled between timed calls, at most every KERNEL_EVERY_S."""

    def __init__(self):
        self.kernels: list[float] = []
        self.last = -math.inf

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.last >= KERNEL_EVERY_S:
            self.kernels.append(kernel_seconds())
            self.last = time.perf_counter()

    def slowdown(self) -> float:
        return statistics.fmean(self.kernels) / KERNEL_REF_S


def run_rounds(work: Workload, count: int, deadline: float, host: HostSpeed | None = None):
    """Up to ``count`` rounds, one sample list per round, and their wall
    time; no round starts after ``deadline`` (a ``time.perf_counter``
    value).  ``host``, when given, samples the host's speed between calls
    and after the last."""
    work.host = host
    rounds = []
    start = time.perf_counter()
    while len(rounds) < count and time.perf_counter() < deadline:
        rounds.append(work.run_round(len(rounds)))
    elapsed = time.perf_counter() - start
    if host:
        host.sample(force=True)
    work.host = None
    return rounds, elapsed


def family_p50(samples: list[Sample]) -> float:
    """Geometric mean over families of each family's median call time.

    Families differ in cost by up to 20x, so a median pooled over them
    falls in a gap between two families and jumps with either; this one
    moves by the same factor as every family does.
    """
    by_family = {}
    for s in samples:
        by_family.setdefault(s.family, []).append(s.seconds)
    logs = [math.log(statistics.median(v)) for v in by_family.values()]
    return math.exp(sum(logs) / len(logs))


def window_metrics(work: Workload, rounds: list[list[Sample]]) -> dict:
    """Throughput, family median (:func:`family_p50`) and pooled tail of
    each window of ``work.window_rounds`` rounds (the whole run when unset),
    and their medians over windows."""
    size = min(work.window_rounds or len(rounds), len(rounds))
    per_window = []
    for start in range(0, len(rounds) - size + 1, size):
        main = [s for r in rounds[start : start + size] for s in r if s.kind == "main"]
        lat = [s.seconds for s in main]
        per_window.append((sum(s.ops for s in main) / sum(lat), family_p50(main),
                           *tail(lat), len(lat)))
    columns = list(zip(*per_window))
    return {"windows": len(per_window), "ops_per_s": statistics.median(columns[0]),
            "p50": statistics.median(columns[1]), "tail": statistics.median(columns[2]),
            "tail_pct": columns[3][0], "beyond": columns[4][0], "calls": columns[5][0]}


def traced_rounds(work: Workload, rounds: int):
    """The same rounds under a tracer: samples, wall time, tracer, the
    operations it saw, and batch dispatch overheads.  batch-cli's serial
    calls are traced in-process; its parallel calls only log worker busy
    time."""
    tracer = Tracer()
    samples, dispatch = [], []
    start = time.perf_counter()
    if isinstance(work, BatchCli):
        pool_tracer = Tracer(busy_dir=str(work.busy_dir))
        for _ in range(rounds):
            with tracer:
                samples.append(work.invoke(1, "serial"))
            with pool_tracer:
                parallel = work.invoke(work.workers, "main")
            samples.append(parallel)
            busy = []
            for path in work.busy_dir.iterdir():
                busy += [float(x) for x in path.read_text().split()]
                path.unlink()
            if len(busy) == parallel.ops:
                dispatch.append(parallel.seconds - sum(busy) / work.workers)
        tracer.absent += pool_tracer.absent
        traced_kind = "serial"
    else:
        with tracer:
            for index in range(rounds):
                samples += work.run_round(index)
        traced_kind = "main"
    wall = time.perf_counter() - start
    ops = sum(s.ops for s in samples if s.kind == traced_kind)
    return samples, wall, tracer, ops, dispatch


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above it) for the highest percentile
    with TAIL_BEYOND samples above it; the maximum when there are fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def _ratio(counter) -> tuple[float, int]:
    base = counter["hit"] + counter["miss"]
    return (counter["hit"] / base if base else 0.0), base


def layer_metrics(tracer: Tracer, ops: int, wall: float, chow_ms, dispatch, overhead, probe):
    """Per-layer values with a note each: (value, note)."""
    t = tracer
    out = {}

    def self_ms(metric, span):
        out[metric] = (t.self_time[span] * 1000 / ops,
                       f"{t.calls[span]} calls, {100 * t.self_time[span] / wall:.1f}% of traced wall")

    def ratio(metric, span):
        value, base = _ratio(t.outcomes[span])
        out[metric] = (value, f"base {base} calls")

    searches = t.calls["oracle.find_product_vector"] + t.calls["oracle.peel"]
    out["states.eigensolves_per_op"] = (t.counts["eigensolves"] / ops, f"{t.counts['eigensolves']} over {ops} ops")
    for metric, span in [
        ("states.compress_support.self_ms", "states.compress_support"),
        ("states.local_ranks.self_ms", "states.local_ranks"),
        ("states.rank_of.self_ms", "states.rank_of"),
        ("states.range_basis.self_ms", "states.range_basis"),
        ("ppt.is_ppt.self_ms", "ppt.is_ppt"),
        ("engine.classify.self_ms", "engine.classify"),
        ("grassmann.pluecker.self_ms", "grassmann.pluecker"),
        ("chow.eval_chow.self_ms", "chow.eval_chow"),
        ("oracle.find_product_vector.self_ms", "oracle.find_product_vector"),
        ("oracle.alternate.self_ms", "oracle.alternate"),
        ("oracle.newton.self_ms", "oracle.newton"),
    ]:
        self_ms(metric, span)
    out["chow.builtin_chow.first_ms"] = (statistics.median(chow_ms),
                                         f"median of {len(chow_ms)} cold starts")
    ratio("oracle.find_product_vector.hit_ratio", "oracle.find_product_vector")
    out["oracle.sweep_passes_per_search"] = (
        t.counts["sweep_passes"] / searches if searches else 0.0, f"base {searches} searches")
    ratio("oracle.newton.success_ratio", "oracle.newton")
    out["oracle.greedy_decompose.calls_per_op"] = (
        t.calls["oracle.greedy_decompose"] / ops, f"{t.calls['oracle.greedy_decompose']} calls")
    ratio("oracle.greedy_decompose.success_ratio", "oracle.greedy_decompose")
    out["oracle.peel_searches_per_op"] = (t.calls["oracle.peel"] / ops,
                                          f"{t.calls['oracle.peel']} searches")
    ratio("oracle.peel.hit_ratio", "oracle.peel")
    out["oracle.greedy_decompose.full_rank_2x2_failed_ratio"] = (
        (probe["failed"] / probe["inputs"], f"{probe['failed']} of {probe['inputs']} probe inputs, untraced")
        if probe else (0.0, "not probed on this workload"))
    for metric, span in (("cli.parse_ms", "cli.parse"), ("cli.serialize_ms", "cli.serialize")):
        out[metric] = (t.total[span] * 1000 / ops, f"{t.calls[span]} calls")
    out["cli.dispatch_overhead_ms"] = (
        (statistics.median(dispatch) * 1000, f"median of {len(dispatch)} --parallel calls")
        if dispatch else (0.0, "no --parallel call with worker busy times"))
    out["trace.overhead_ratio"] = (overhead, "traced wall / untraced wall, same rounds")
    return out


# --- one run --------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        return _run(name, seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(name, seed, seconds, trace, work_dir) -> dict:
    env = environment(seed)
    work = WORKLOAD_CLASSES[name](seed, work_dir)
    kernel_seconds()  # its first call pays numpy's lazy set-up
    walls, chow_ms = cold_starts(COLD_LAUNCHES[trace])
    work.warm()
    lines = [f"workload {name}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
             f"{len(work.cases)} inputs in {work.width} families",
             "env: " + ", ".join(f"{k}={v}" for k, v in env.items())]
    record = {"workload": name, "seconds": seconds, "trace": int(trace), "env": env}

    if trace:
        # the traced pass repeats the untraced one, so each gets under half
        planned = planned_rounds(work, TRACE_SHARE * seconds)
        plain, plain_wall = run_rounds(work, planned, STARTED + 0.45 * MEASURE_LIMIT_S)
        rounds = done = len(plain)
        traced, wall, tracer, ops, dispatch = traced_rounds(work, rounds)
        samples = [s for r in plain for s in r] + traced
        probe = work.probe() if isinstance(work, DecomposeSeparable) else None
        values = layer_metrics(tracer, ops, wall, chow_ms, dispatch, wall / plain_wall, probe)
        absent = set(tracer.absent)
        metrics = {}
        for metric, unit, sources in PER_LAYER:
            value, note = values[metric]
            missing = [s for s in sources if s in absent]
            if sources and len(missing) == len(sources):
                value, note = 0.0, "absent"
            if missing:
                note += "; absent: " + ", ".join(missing)
            metrics[metric] = {"value": value, "unit": unit}
            lines.append(f"{metric} = {value:.6g} {unit} ({note})")
        lines.append(f"traced {rounds} of {planned} planned rounds twice: "
                     f"{plain_wall:.3f} s untraced, {wall:.3f} s traced")
        record["spans"] = {
            span: {"calls": tracer.calls[span], "total_s": tracer.total[span],
                   "self_s": tracer.self_time[span], "self_share": tracer.self_time[span] / wall,
                   "parents": {str(k): v for k, v in tracer.parents[span].items()}}
            for span in sorted(tracer.calls)}
        record["absent"] = sorted(absent)
    else:
        planned = planned_rounds(work, seconds)
        host = HostSpeed()
        rounds, elapsed = run_rounds(work, planned, STARTED + MEASURE_LIMIT_S, host)
        slowdown = host.slowdown()
        lines.append(f"measured {len(rounds)} of {planned} planned rounds in {elapsed:.3f} s; "
                     f"host slowdown {slowdown:.4f} (mean of {len(host.kernels)} kernel times "
                     f"/ {KERNEL_REF_S} s)")
        done = len(rounds)
        samples = [s for r in rounds for s in r]
        main = [s for s in samples if s.kind == "main"]
        timed = window_metrics(work, rounds)
        w = dict(timed, ops_per_s=timed["ops_per_s"] * slowdown,
                 p50=timed["p50"] / slowdown, tail=timed["tail"] / slowdown)
        per = (f"median of {w['windows']} windows of {w['calls']} calls" if w["windows"] > 1
               else f"{w['calls']} calls")
        # (value at reference speed, value as timed here, note)
        values = {
            "setup_s": (statistics.median(walls), None,
                        f"median of {len(walls)} cold starts, each scaled"),
            "ops_per_s": (w["ops_per_s"], timed["ops_per_s"],
                          f"{work.op_name} per busy second, {per}"),
            "latency_p50_ms": (w["p50"] * 1000, timed["p50"] * 1000,
                               f"geometric mean of family medians, {per}"),
            "latency_tail_ms": (w["tail"] * 1000, timed["tail"] * 1000,
                                f"p{w['tail_pct']:.2f}, {w['beyond']} calls beyond it, {per}"),
            "peak_rss_mb": (peak_rss_mb(), None, "largest process of the run"),
        }
        metrics = {}
        for metric, unit in END_TO_END:
            value, as_timed, note = values[metric]
            metrics[metric] = {"value": value, "unit": unit}
            if as_timed is not None:
                note = f"{as_timed:.6g} {unit} as timed, scaled by the host slowdown; {note}"
                record.setdefault("as_timed", {})[metric] = as_timed
            lines.append(f"{metric} = {value:.6g} {unit} ({note})")
        for metric, value, unit, note in work.extra_metrics(samples):
            lines.append(f"{metric} = {value:.6g} {unit} ({note})")
            record.setdefault("extra_metrics", {})[metric] = {"value": value, "unit": unit}
        by_family = {}
        for s in main:
            by_family.setdefault(s.family, []).append(s.seconds * 1000)
        record["family_p50_ms"] = {k: statistics.median(v) for k, v in by_family.items()}
        record["latency_tail_percentile"] = w["tail_pct"]
        record["windows"] = w["windows"]
        probe = work.probe() if isinstance(work, DecomposeSeparable) else None

    record.update(planned_rounds=planned, rounds=done, truncated=done < planned,
                  host_slowdown=None if trace else slowdown)
    if done < planned:
        lines.append(f"TRUNCATED at the {MEASURE_LIMIT_S:g} s limit: {done} of {planned} "
                     "planned rounds, so its percentiles are not those of a full run")
    if probe:
        lines.append(f"known defect, full-rank 2x2 (untimed, not in failed): {probe['failed']} "
                     f"of {probe['inputs']} decompositions fail the check")
        lines += [f"known defect: {f}" for f in probe["failures"]]
        record["known_defect_probe"] = probe

    attempted = sum(s.ops for s in samples)
    failures = [f for s in samples for f in s.failures]
    lines.append(f"failed_ratio = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} attempted)")
    lines += [f"failure: {f}" for f in failures[:20]]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record.update(result)
    record["failures"] = failures
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    out_path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"record: {out_path.relative_to(ROOT)}")
    result["lines"] = lines
    return result
