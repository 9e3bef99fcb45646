"""Command-line front end: classify, chow, batch and gallery subcommands.

Exit codes for ``classify``: 0 separable, 1 entangled, 2 out of scope,
3 for parse/validation errors.  ``SEP4_TOL_CHOW`` overrides the Chow
tolerance when no explicit flag is given.  ``batch --parallel N`` runs
in N processes: this one and N - 1 forked children, joined over pipes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pickle
import signal
import sys
from pathlib import Path

from . import __version__
from .chow import (
    builtin_chow,
    eval_chow,
    form_checksum,
    form_to_dict,
    generate_chow_Mx2,
    supported_systems,
    _check_fits,
)
from .codec import from_dict
from .engine import (
    ENTANGLED,
    OUT_OF_SCOPE,
    SEPARABLE,
    _classify_group,
    classify,
    report_to_dict,
)
from .errors import Sep4Error, ShapeMismatch, StateFormatError
from .gallery import (
    divincenzo_state,
    random_ppt_rank4_33,
    random_separable,
    two_qutrit_ab_state,
)
from .grassmann import SubspaceBasis, pluecker
from .states import (
    DEFAULT_TOLERANCES,
    MultiState,
    ToleranceConfig,
    _check_seed,
    _checked_states,
    _decoded,
    state_from_dict,
    state_to_dict,
)

_EXIT_BY_VERDICT = {SEPARABLE: 0, ENTANGLED: 1, OUT_OF_SCOPE: 2}
# what exits 3, and what one file's line in sep4 batch reports as its error
_INPUT_ERRORS = (Sep4Error, OSError, ValueError)
# each gallery name, in --help order, and its state from the parsed flags
_GALLERY = {
    "divincenzo": lambda args: divincenzo_state(),
    "two-qutrit-ab": lambda args: two_qutrit_ab_state(complex(args.a), complex(args.b)),
    "random-separable": lambda args: random_separable(
        tuple(int(x) for x in args.dims.split(",")), args.terms, args.seed
    ),
    "random-ppt-rank4-33": lambda args: random_ppt_rank4_33(args.seed),
}
_TOL_FIELDS = [f.name for f in dataclasses.fields(ToleranceConfig)]


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 reserved for OutOfScope
        raise CliUsageError(message)


def _add_tolerance_flags(parser: argparse.ArgumentParser, names=_TOL_FIELDS) -> None:
    for name in names:
        parser.add_argument(
            f"--{name.replace('_', '-')}",
            type=float,
            default=None,
            metavar="X",
            help=f"override {name} (default {getattr(DEFAULT_TOLERANCES, name):g})",
        )


def _tolerances_from_args(args) -> ToleranceConfig:
    values = {}
    for name in _TOL_FIELDS:
        given = getattr(args, name, None)
        if given is not None:
            values[name] = given
    if "tol_chow" not in values and os.environ.get("SEP4_TOL_CHOW"):
        values["tol_chow"] = float(os.environ["SEP4_TOL_CHOW"])
    return ToleranceConfig(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sep4", description=__doc__)
    parser.add_argument(
        "--version", action="store_true", help="print version and Chow-table checksums"
    )
    sub = parser.add_subparsers(dest="command")

    p_classify = sub.add_parser("classify", help="classify one state JSON file")
    p_classify.set_defaults(run=_cmd_classify)
    p_classify.add_argument("--input", required=True, metavar="FILE")
    p_classify.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_classify.add_argument("--seed", type=int, default=0)
    _add_tolerance_flags(p_classify)

    p_chow = sub.add_parser("chow", help="print or evaluate a Chow form")
    p_chow.set_defaults(run=_cmd_chow)
    p_chow.add_argument(
        "--system", required=True, metavar="SYS", help="2x2, 3x2, 4x2, 2x3, 3x3, 2x2x2 or Mx2:M"
    )
    p_chow.add_argument("--print", action="store_true", dest="print_form")
    p_chow.add_argument("--eval", metavar="BASIS_FILE", dest="eval_file")
    _add_tolerance_flags(p_chow, ["tol_chow"])

    p_batch = sub.add_parser("batch", help="classify every state file in a directory")
    p_batch.set_defaults(run=_cmd_batch)
    p_batch.add_argument("--input", required=True, metavar="DIR")
    p_batch.add_argument("--out", required=True, metavar="FILE")
    p_batch.add_argument("--parallel", type=int, default=1, metavar="N")
    p_batch.add_argument("--seed", type=int, default=0)
    _add_tolerance_flags(p_batch)

    p_gallery = sub.add_parser("gallery", help="emit a named state as state JSON")
    p_gallery.set_defaults(run=_cmd_gallery)
    p_gallery.add_argument("--name", required=True, choices=list(_GALLERY))
    p_gallery.add_argument("--a", default="1", help="complex parameter, e.g. '1+1j'")
    p_gallery.add_argument("--b", default="1", help="complex parameter, e.g. '0.5'")
    p_gallery.add_argument("--dims", default="2,2", help="comma-separated party dimensions")
    p_gallery.add_argument("--terms", type=int, default=2)
    p_gallery.add_argument("--seed", type=int, default=0)
    p_gallery.add_argument("--out", default="-", metavar="FILE")
    return parser


def _read_json(path: str):
    """The JSON value in the file ``path``; one nested too deeply to decode
    is a :class:`StateFormatError`."""
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise StateFormatError("JSON nested too deeply to decode") from exc


def _load_state(path: str) -> tuple:
    """The matrix and ``dims`` of the state file ``path``, not yet validated."""
    return _decoded(_read_json(path))


def _load_basis(path: str) -> SubspaceBasis:
    return from_dict(SubspaceBasis, _read_json(path))


def _human_report(report_dict: dict) -> str:
    lines = [
        f"verdict: {report_dict['verdict']}",
        f"rule: {report_dict['rule']}",
        f"rank: {report_dict['rank']}",
        f"dims: {report_dict['dims']}  compressed: {report_dict['compressed_dims']}",
        f"local ranks: {report_dict['local_ranks']}",
    ]
    if report_dict["ppt"] is not None:
        lines.append(f"ppt: {report_dict['ppt']['is_ppt']}")
    if report_dict["chow_abs"] is not None:
        flag = "  (low confidence)" if report_dict["low_confidence"] else ""
        lines.append(f"|F|: {report_dict['chow_abs']:.3e}{flag}")
    if report_dict["length_bounds"] is not None:
        lines.append(f"length bounds: {report_dict['length_bounds']}")
    if report_dict["decomposition"] is not None:
        dec = report_dict["decomposition"]
        lines.append(
            f"decomposition: {dec['length_upper_bound']} terms, residual {dec['residual']:.3e}"
        )
    lines.append("notes: " + "; ".join(report_dict["notes"]))
    return "\n".join(lines)


def _print(text: str) -> None:
    """``print``; a closed stdout is pointed at ``os.devnull``, so that the
    command keeps its exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_classify(args) -> int:
    cfg = _tolerances_from_args(args)
    state = state_from_dict(_read_json(args.input), cfg)
    report = classify(state, seed=args.seed)
    payload = report_to_dict(report)
    _print(json.dumps(payload, indent=1) if args.json else _human_report(payload))
    return _EXIT_BY_VERDICT[report.verdict]


def _parse_system(label: str):
    if label.lower().startswith("mx2:"):
        return generate_chow_Mx2(int(label.split(":", 1)[1]))
    dims = tuple(int(part) for part in label.lower().split("x"))
    return builtin_chow(dims)


def _cmd_chow(args) -> int:
    if not (args.print_form or args.eval_file):
        raise CliUsageError("chow needs --print and/or --eval BASIS_FILE")
    cfg = _tolerances_from_args(args)
    form = _parse_system(args.system)
    if args.print_form:
        _print(json.dumps(form_to_dict(form), indent=1))
    if args.eval_file:
        basis = _load_basis(args.eval_file)
        # before the C(d, k) minors, which a basis that does not fit never needs
        _check_fits(form, basis.k, basis.d)
        if basis.dims != form.dims:
            raise ShapeMismatch(f"basis dims {basis.dims} differ from the form's {form.dims}")
        vec = pluecker(basis)
        raw = eval_chow(form, vec, normalized=False)
        scaled = eval_chow(form, vec, normalized=True)
        _print(f"F (unnormalized) = {raw.real:+.12e}{raw.imag:+.12e}j")
        _print(f"F (normalized)   = {scaled.real:+.12e}{scaled.imag:+.12e}j")
        _print(f"|F| normalized   = {abs(scaled):.12e}  (tol_chow = {cfg.tol_chow:g})")
    return 0


# most files one chunk parses and holds at once
_CHUNK_FILES = 256
# pipe capacity asked for each forked child (Linux's default pipe-max-size):
# a result that fits is written at once, so the child exits without waiting
# for the parent to read it
_PIPE_BYTES = 1 << 20


def _classify_files(paths: list[str], cfg: ToleranceConfig, seed: int) -> list[tuple[str, str]]:
    """The ``sep4 batch`` output line of each file, without its newline, and
    the key it counts under: the verdict, or ``"error"``.  Every file is
    decoded first; then per ``dims`` the matrices are validated in one
    stacked pass and the valid states classified as one group
    (:func:`~sep4.engine._classify_group`); an error fails its own file
    alone."""
    out: list = [None] * len(paths)
    groups: dict = {}
    for i, path in enumerate(paths):
        try:
            matrix, dims = _load_state(path)
        except _INPUT_ERRORS as exc:
            out[i] = exc
            continue
        groups.setdefault(dims, []).append((i, matrix))
    for dims, members in groups.items():
        checked = _checked_states([matrix for _, matrix in members], dims, cfg)
        valid = [k for k, state in enumerate(checked) if isinstance(state, MultiState)]
        if valid:
            for k, result in zip(valid, _classify_group([checked[k] for k in valid], seed)):
                checked[k] = result
        for (i, _), result in zip(members, checked):
            out[i] = result
    return [_file_line(os.path.basename(path), result) for path, result in zip(paths, out)]


def _file_line(name: str, result) -> tuple[str, str]:
    """One file's output line and key, from its report or input error; any
    other error stops the batch."""
    if isinstance(result, _INPUT_ERRORS):
        return json.dumps({"file": name, "error": f"{type(result).__name__}: {result}"}), "error"
    if isinstance(result, Exception):
        raise result
    report = report_to_dict(result)
    return json.dumps({"file": name, "report": report}), report["verdict"]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _fork(task) -> tuple:
    """Fork a child that runs ``task()`` and writes ``(True, result)``, or
    ``(False, error)``, pickled to a pipe: the child's pid and the pipe's
    read end.  The child leaves through ``os._exit`` on every path, so it
    never returns into the caller's stack nor flushes the stdio buffers it
    inherited, and it exits 0 only once its whole result is written."""
    import fcntl  # POSIX, as os.fork is

    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux
        try:
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except OSError:  # above this host's limit: keep the default capacity
            pass
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, open(read_end, "rb")
    status = 1
    try:
        os.close(read_end)
        try:
            blob = pickle.dumps((True, task()))
        except Exception as exc:
            blob = _pickled_error(exc)
        with open(write_end, "wb") as fh:
            fh.write(blob)
        status = 0
    finally:
        os._exit(status)


def _pickled_error(exc: Exception) -> bytes:
    """``(False, exc)`` pickled; a ``RuntimeError`` carrying its ``repr``
    in its place when ``exc`` does not survive the round trip."""
    try:
        blob = pickle.dumps((False, exc))
        pickle.loads(blob)
        return blob
    except Exception:
        return pickle.dumps((False, RuntimeError(repr(exc))))


def _fork_join(tasks: list, own):
    """Each of ``tasks`` run in a forked child while ``own()`` runs here:
    their results in order, ``own()``'s last.  ``own()``'s error raises
    first, then the children's in order.  Each pipe is read to EOF before
    its child is reaped, since a result larger than a pipe holds keeps the
    child from exiting; whatever raises, every child still alive is killed
    and reaped."""
    children = []  # (pid, pipe) of every child not yet reaped
    try:
        for task in tasks:
            children.append(_fork(task))
        mine = own()
        results = []
        while children:
            pid, pipe = children[0]
            with pipe:
                blob = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0 or not blob:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"batch worker {pid} exited without a result (status {code})")
            ok, value = pickle.loads(blob)
            if not ok:
                raise value
            results.append(value)
        return results + [mine]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cmd_batch(args) -> int:
    cfg = _tolerances_from_args(args)
    # before any file is listed, so that a bad seed exits 3 on any directory
    _check_seed(args.seed)
    inputs = Path(args.input)
    if not inputs.is_dir():
        # before OUT is opened, so that a bad --input leaves it untouched
        raise NotADirectoryError(f"--input {args.input!r} is not a directory")
    files = sorted(str(p) for p in inputs.glob("*.json"))
    # every child is forked up front, so never run more processes than
    # there are files or usable CPUs; without os.fork, run serially
    workers = max(1, min(args.parallel, len(files), _usable_cpus()))
    if not hasattr(os, "fork"):
        workers = 1
    # each chunk's files are decoded, and their states validated and
    # classified one group per dims, so that every numeric stage is one
    # call per group: the fewest chunks of at most _CHUNK_FILES files each
    # that every process gets as many of, their sizes differing by at most one
    per = math.ceil(len(files) / (workers * _CHUNK_FILES))
    count = workers * per
    chunks = [files[len(files) * k // count:len(files) * (k + 1) // count] for k in range(count)]

    def classified(run: list) -> list:
        return [line for chunk in run for line in _classify_files(chunk, cfg, args.seed)]

    # this process is one of the workers: it keeps the last run of chunks,
    # and each of the workers - 1 children one contiguous run of the others;
    # one worker forks nothing
    runs = [chunks[k * per:(k + 1) * per] for k in range(workers)]
    done = _fork_join([lambda run=run: classified(run) for run in runs[:-1]],
                      lambda: classified(runs[-1]))
    results = [line for lines in done for line in lines]
    # the workers serialize; here each line is only written and counted
    counts: dict[str, int] = {}
    with open(args.out, "w") as fh:
        for line, key in results:
            fh.write(line + "\n")
            counts[key] = counts.get(key, 0) + 1
    total = len(results)
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())) or "nothing to do"
    _print(f"classified {total} file(s) -> {args.out} ({summary})")
    return 0


def _cmd_gallery(args) -> int:
    blob = json.dumps(state_to_dict(_GALLERY[args.name](args)))
    if args.out == "-":
        _print(blob)
    else:
        Path(args.out).write_text(blob + "\n")
    return 0


def _print_version() -> None:
    _print(f"sep4 {__version__}")
    for dims in supported_systems():
        label = "x".join(str(x) for x in dims)
        _print(f"chow table {label}: sha256 {form_checksum(builtin_chow(dims))}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.version:
            _print_version()
            return 0
        if args.command is not None:
            return args.run(args)
        raise CliUsageError("no subcommand given (try --version or classify/chow/batch/gallery)")
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:  # console-script hook
    sys.exit(main())
