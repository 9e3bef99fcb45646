import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sep4.engine
from sep4 import cli
from sep4.cli import main
from sep4.engine import classify
from sep4.errors import (
    DimensionMismatch,
    InconsistentTolerances,
    NotHermitian,
    NotPositive,
    StateFormatError,
)
from sep4.gallery import (
    divincenzo_state,
    random_separable,
    two_qutrit_ab_rows,
    two_qutrit_ab_state,
)
from sep4.states import (
    DEFAULT_TOLERANCES,
    MultiState,
    _checked_states,
    assemble_product,
    new_state,
    state_from_dict,
    state_to_dict,
)


def write_state(path, state):
    path.write_text(json.dumps(state_to_dict(state)))
    return str(path)


def product_projector_state():
    v = assemble_product((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    return new_state(np.outer(v, v), (2, 2))


# state files that cannot be decoded: nested deeper than the JSON decoder
# recurses, and holding an integer beyond the float range
DEEP_JSON = '{"dims": [2], "matrix": ' + "[" * 100000 + "]" * 100000 + "}"
HUGE_JSON = json.dumps({"dims": [2], "matrix": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]})


def subnormal_state():
    """A separable two-qutrit rank-4 state of trace about 1e-310, below the
    smallest normal double."""
    return new_state(1e-310 * random_separable((3, 3), 4, seed=1).matrix, (3, 3))


class TestClassifyCommand:
    def test_divincenzo_exits_entangled(self, tmp_path, capsys):
        path = write_state(tmp_path / "dv.json", divincenzo_state())
        code = main(["classify", "--input", path, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["rule"] == "Chow222"

    def test_product_projector_exits_separable(self, tmp_path, capsys):
        path = write_state(tmp_path / "prod.json", product_projector_state())
        code = main(["classify", "--input", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "Rank1Product" in out

    def test_out_of_scope_exit_code(self, tmp_path, capsys):
        path = write_state(tmp_path / "id.json", new_state(np.eye(6), (2, 3)))
        assert main(["classify", "--input", path]) == 2
        capsys.readouterr()

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", "--input", str(bad)]) == 3
        assert "error" in capsys.readouterr().err

    def test_non_psd_file_is_a_format_error(self, tmp_path, capsys):
        bad = tmp_path / "npsd.json"
        bad.write_text(json.dumps({"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}))
        assert main(["classify", "--input", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error: StateFormatError")

    @pytest.mark.parametrize("matrix", [
        [[[1.3e308, 1.3e308], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], [1.3e308, 1.3e308]], [[1.3e308, -1.3e308], [1, 0]]],
    ], ids=["modulus-overflows", "nan-spectrum"])
    def test_overflowing_modulus_is_a_format_error(self, tmp_path, capsys, matrix):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"dims": [2], "matrix": matrix}))
        assert main(["classify", "--input", str(big)]) == 3
        assert capsys.readouterr().err.startswith("error: StateFormatError")

    @pytest.mark.parametrize("text, cause", [
        (DEEP_JSON, "JSON nested too deeply to decode"),
        (HUGE_JSON, "entry beyond the float range"),
    ], ids=["deep", "huge-integer"])
    def test_undecodable_file_is_a_format_error(self, tmp_path, capsys, text, cause):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["classify", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: StateFormatError") and cause in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 3
        capsys.readouterr()

    def test_subnormal_trace_exits_separable(self, tmp_path, capsys):
        path = write_state(tmp_path / "tiny.json", subnormal_state())
        assert main(["classify", "--input", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["rule"], report["decomposition"] is None) == ("Chow33", False)

    def test_exit_codes_stable_across_runs(self, tmp_path, capsys):
        path = write_state(tmp_path / "dv.json", divincenzo_state())
        codes = {main(["classify", "--input", path, "--seed", "7"]) for _ in range(3)}
        capsys.readouterr()
        assert codes == {1}

    @pytest.mark.parametrize("make", [lambda: random_separable((3, 3), 3, seed=1),
                                      divincenzo_state], ids=["separable", "divincenzo"])
    def test_negative_seed_exits_3(self, tmp_path, capsys, make):
        # on every verdict, not only on the separable ones a decomposition
        # would seed
        path = write_state(tmp_path / "s.json", make())
        assert main(["classify", "--input", path, "--seed", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: InvalidSeed: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, flags):
        # the reader closes the pipe before the report is written, as
        # `| grep -q` may; unbuffered, the first write fails
        path = write_state(tmp_path / "dv.json", divincenzo_state())
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-c", "from sep4.cli import entry; entry()",
             "classify", "--input", path, *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""


class TestChowCommand:
    def test_print_two_qubit_layout(self, capsys):
        assert main(["chow", "--system", "2x2", "--print"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["rows"] == [
            [[[1, [1]]], [[1, [2]]]],
            [[[1, [3]]], [[1, [4]]]],
        ]

    def test_eval_family_basis(self, tmp_path, capsys):
        rows = two_qutrit_ab_rows(1.0, 1.0)
        payload = {
            "dims": [3, 3],
            "rows": [[[z.real, z.imag] for z in row] for row in rows],
        }
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(payload))
        assert main(["chow", "--system", "3x3", "--eval", str(path)]) == 0
        out = capsys.readouterr().out
        unnormalized = out.splitlines()[0]
        assert unnormalized.startswith("F (unnormalized) = -1.0")

    @pytest.mark.parametrize(
        "payload",
        [{"dims": [3, 3]}, {"dims": [3, 3], "rows": [list(range(1, 10))]}, [[3, 3]]],
        ids=["missing-rows", "rows-not-pairs", "top-level-list"],
    )
    def test_malformed_basis_is_a_parse_error(self, tmp_path, capsys, payload):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(payload))
        assert main(["chow", "--system", "3x3", "--eval", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: StateFormatError")

    @pytest.mark.parametrize("text", [
        '{"dims": [3, 3], "rows": ' + "[" * 100000 + "]" * 100000 + "}",
        json.dumps({"dims": [3, 3], "rows": [[[10**400, 0]] * 9] * 4}),
    ], ids=["deep", "huge-integer"])
    def test_undecodable_basis_is_a_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "basis.json"
        path.write_text(text)
        assert main(["chow", "--system", "3x3", "--eval", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: StateFormatError")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_basis_is_rejected(self, tmp_path, capsys, bad):
        rows = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(9)] for i in range(4)]
        rows[2][5] = [bad, 0.0]
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"dims": [3, 3], "rows": rows}))
        assert main(["chow", "--system", "3x3", "--eval", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: RankDeficientBasis")
        assert "non-finite entries at (row, column) (2, 5)" in err

    def test_generated_mx2(self, capsys):
        assert main(["chow", "--system", "Mx2:5", "--print"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["size"] == 5
        assert len(blob["rows"]) == 5

    def test_unsupported_system(self, capsys):
        assert main(["chow", "--system", "4x4", "--print"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("system", ["24x2", "40x2", "Mx2:24"])
    def test_mx2_above_the_bound_exits_3(self, capsys, system):
        # both routes to the generator obey its bound on M, before any term
        assert main(["chow", "--system", system, "--print"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: UnsupportedSystem: M x 2 generator needs")

    def test_basis_that_does_not_fit_builds_no_minors(self, tmp_path, capsys, monkeypatch):
        # an 11 x 22 basis has C(22, 11) minors; the 2x2 form takes G(1, 4)
        rows = np.random.default_rng(0).standard_normal((11, 22))
        path = tmp_path / "basis.json"
        pairs = [[[x, 0.0] for x in row] for row in rows]
        path.write_text(json.dumps({"dims": [11, 2], "rows": pairs}))
        built = []
        monkeypatch.setattr(cli, "pluecker", built.append)
        assert main(["chow", "--system", "2x2", "--eval", str(path)]) == 3
        assert built == []
        assert capsys.readouterr().err == (
            "error: ShapeMismatch: Plücker vector G(11,22) does not fit form for dims (2, 2)\n"
        )

    @staticmethod
    def write_product_basis(path, dims):
        """A 2 x 6 basis that holds a 2x3 product vector, one that does
        not factor as 3x2, declared as ``dims``."""
        product = np.kron([1.0, 2.0], [1.0, -1.0, 0.5])
        rows = [product, np.random.default_rng(0).standard_normal(6)]
        pairs = [[[float(x), 0.0] for x in row] for row in rows]
        path.write_text(json.dumps({"dims": dims, "rows": pairs}))
        return str(path)

    def test_product_basis_meets_its_own_form(self, tmp_path, capsys):
        path = self.write_product_basis(tmp_path / "basis.json", [2, 3])
        assert main(["chow", "--system", "2x3", "--eval", path]) == 0
        magnitude = float(capsys.readouterr().out.splitlines()[2].split()[3])
        assert magnitude < 1e-12

    @pytest.mark.parametrize("system, dims, form", [
        ("3x2", [2, 3], (3, 2)), ("2x3", [6], (2, 3)), ("3x2", [6], (3, 2)),
    ], ids=["2x3-as-3x2", "6-as-2x3", "6-as-3x2"])
    def test_basis_of_other_dims_builds_no_minors(
        self, tmp_path, capsys, monkeypatch, system, dims, form
    ):
        # k = 2 and d = 6 fit both forms, so only the dims tell the 2x3
        # product basis, which the 3x2 form reads as completely entangled,
        # from a 3x2 one
        path = self.write_product_basis(tmp_path / "basis.json", dims)
        built = []
        monkeypatch.setattr(cli, "pluecker", built.append)
        assert main(["chow", "--system", system, "--eval", path]) == 3
        assert built == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ShapeMismatch: basis dims {tuple(dims)} differ from the form's {form}\n"
        )

    def test_requires_action(self, capsys):
        assert main(["chow", "--system", "2x2"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--tol-herm", "--tol-psd", "--tol-rank", "--tol-product"])
    def test_only_the_chow_tolerance_is_a_flag(self, capsys, flag):
        # chow reads tol_chow alone, so it takes no other tolerance flag
        assert main(["chow", "--system", "2x2", "--print", flag, "1e-9"]) == 3
        assert flag in capsys.readouterr().err
        assert main(["chow", "--system", "2x2", "--print", "--tol-chow", "1e-9"]) == 0
        capsys.readouterr()


class TestBatchCommand:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        # every forked worker is reaped on every path, error paths included
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_directory_with_error_file(self, tmp_path, capsys):
        write_state(tmp_path / "a_prod.json", product_projector_state())
        write_state(tmp_path / "b_dv.json", divincenzo_state())
        (tmp_path / "c_bad.json").write_text("{broken")
        out_file = tmp_path / "results.jsonl"
        assert main(["batch", "--input", str(tmp_path), "--out", str(out_file)]) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [line["file"] for line in lines] == ["a_prod.json", "b_dv.json", "c_bad.json"]
        assert lines[0]["report"]["verdict"] == "Separable"
        assert lines[1]["report"]["verdict"] == "Entangled"
        assert "error" in lines[2]

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_subnormal_trace_gets_its_line(self, tmp_path, capsys, parallel):
        write_state(tmp_path / "a_prod.json", product_projector_state())
        write_state(tmp_path / "b_tiny.json", subnormal_state())
        write_state(tmp_path / "c_dv.json", divincenzo_state())
        out_file = tmp_path / "results.jsonl"
        args = ["batch", "--input", str(tmp_path), "--out", str(out_file), "--parallel", parallel]
        assert main(args) == 0
        assert capsys.readouterr().out.endswith("(Entangled: 1, Separable: 2)\n")
        lines = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [line["file"] for line in lines] == ["a_prod.json", "b_tiny.json", "c_dv.json"]
        assert lines[1]["report"]["rule"] == "Chow33"

    def test_tolerance_guard_is_recorded_per_file(self, tmp_path, capsys, monkeypatch):
        # an entangled 2x2x2 rank-4 state must have full-rank partial
        # transposes; report them at rank 3 to trip the guard, and keep the
        # first record, the state's own rank
        real_is_ppt = sep4.engine.is_ppt

        def lowered_ranks(state, *args):
            report = real_is_ppt(state, *args)
            lowered = [dataclasses.replace(r, rank=r.rank - 1) for r in report.records[1:]]
            records = (report.records[0], *lowered)
            return dataclasses.replace(report, records=records)

        monkeypatch.setattr(sep4.engine, "is_ppt", lowered_ranks)
        with pytest.raises(InconsistentTolerances):
            classify(divincenzo_state())
        write_state(tmp_path / "a_prod.json", product_projector_state())
        write_state(tmp_path / "b_dv.json", divincenzo_state())
        out_file = tmp_path / "results.jsonl"
        assert main(["batch", "--input", str(tmp_path), "--out", str(out_file)]) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [line["file"] for line in lines] == ["a_prod.json", "b_dv.json"]
        assert lines[0]["report"]["verdict"] == "Separable"
        assert lines[1]["error"].startswith("InconsistentTolerances: tolerance bug")

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_undecodable_files_get_their_lines(self, tmp_path, capsys, parallel):
        inputs = tmp_path / "in"
        inputs.mkdir()
        write_state(inputs / "a_prod.json", product_projector_state())
        (inputs / "b_deep.json").write_text(DEEP_JSON)
        (inputs / "c_huge.json").write_text(HUGE_JSON)
        write_state(inputs / "d_dv.json", divincenzo_state())
        out_file = tmp_path / "results.jsonl"
        args = ["batch", "--input", str(inputs), "--out", str(out_file), "--parallel", parallel]
        assert main(args) == 0
        assert capsys.readouterr().out.endswith("(Entangled: 1, Separable: 1, error: 2)\n")
        lines = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [line["file"] for line in lines] == [
            "a_prod.json", "b_deep.json", "c_huge.json", "d_dv.json"
        ]
        assert [line["report"]["verdict"] for line in (lines[0], lines[3])] == [
            "Separable", "Entangled"
        ]
        assert lines[1]["error"] == "StateFormatError: JSON nested too deeply to decode"
        assert lines[2]["error"].startswith("StateFormatError: 'matrix' is not a dense")

    def test_empty_directory(self, tmp_path, capsys):
        out_file = tmp_path / "results.jsonl"
        (tmp_path / "sub").mkdir()
        assert main(["batch", "--input", str(tmp_path / "sub"), "--out", str(out_file)]) == 0
        assert capsys.readouterr().out == f"classified 0 file(s) -> {out_file} (nothing to do)\n"
        assert out_file.read_text() == ""

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_negative_seed_exits_3_without_output(self, tmp_path, capsys, parallel):
        # the entangled file's report would not read the seed, but the batch
        # stops before any line is written
        inputs = tmp_path / "in"
        inputs.mkdir()
        write_state(inputs / "a_sep.json", random_separable((3, 3), 3, seed=1))
        write_state(inputs / "b_dv.json", divincenzo_state())
        out_file = tmp_path / "results.jsonl"
        argv = ["batch", "--input", str(inputs), "--out", str(out_file),
                "--parallel", parallel, "--seed", "-1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidSeed: ")
        assert not out_file.exists()

    @pytest.mark.parametrize("parallel", ["1", "2"])
    @pytest.mark.parametrize("contents", ["empty", "one-invalid-file"])
    def test_negative_seed_exits_3_before_any_file_is_read(
        self, tmp_path, capsys, parallel, contents
    ):
        # no file reaches a classification that would check the seed
        inputs = tmp_path / "in"
        inputs.mkdir()
        if contents == "one-invalid-file":
            (inputs / "n.json").write_text(
                json.dumps({"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]})
            )
        out_file = tmp_path / "results.jsonl"
        argv = ["batch", "--input", str(inputs), "--out", str(out_file),
                "--parallel", parallel, "--seed", "-1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidSeed: ")
        assert not out_file.exists()

    def test_missing_input_fails_without_output(self, tmp_path, capsys):
        out_file = tmp_path / "results.jsonl"
        assert main(["batch", "--input", str(tmp_path / "gone"), "--out", str(out_file)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out_file.exists()

    def test_file_as_input_leaves_output_untouched(self, tmp_path, capsys):
        state_file = write_state(tmp_path / "a_prod.json", product_projector_state())
        out_file = tmp_path / "results.jsonl"
        out_file.write_text("earlier results\n")
        assert main(["batch", "--input", state_file, "--out", str(out_file)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert out_file.read_text() == "earlier results\n"

    def test_parallel_matches_serial(self, tmp_path, capsys):
        for i in range(4):
            write_state(tmp_path / f"s{i}.json", product_projector_state())
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert main(["batch", "--input", str(tmp_path), "--out", str(serial)]) == 0
        assert main(
            ["batch", "--input", str(tmp_path), "--out", str(parallel), "--parallel", "2"]
        ) == 0
        capsys.readouterr()
        assert serial.read_text() == parallel.read_text()

    def mixed_directory(self, root):
        """20 files that sort into an interleaved mix, one of them broken."""
        states = [
            product_projector_state(),
            divincenzo_state(),
            two_qutrit_ab_state(1.0, 1.0),
            two_qutrit_ab_state(2.0, 0.5),
            two_qutrit_ab_state(0.0, 1 + 1j),
        ]
        for i in range(19):
            write_state(root / f"s{i:02d}.json", states[i % len(states)])
        (root / "s07x.json").write_text("{broken")

    def test_parallel_matches_serial_in_chunks(self, tmp_path, capsys):
        inputs = tmp_path / "in"
        inputs.mkdir()
        self.mixed_directory(inputs)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert main(["batch", "--input", str(inputs), "--out", str(serial)]) == 0
        assert main(
            ["batch", "--input", str(inputs), "--out", str(parallel), "--parallel", "2"]
        ) == 0
        capsys.readouterr()
        lines = serial.read_text().splitlines()
        assert len(lines) == 20
        assert sum("error" in json.loads(line) for line in lines) == 1
        assert serial.read_text() == parallel.read_text()

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_group_writes_what_single_file_runs_write(self, tmp_path, capsys, parallel):
        # one group of two-qutrit states: an error, an NPT and a Chow file
        indefinite = [[[(i == j) * (1 - 2 * (i == 8)), 0] for j in range(9)] for i in range(9)]
        files = {
            "a_bad.json": json.dumps({"dims": [3, 3], "matrix": indefinite}),
            "b_npt.json": json.dumps(state_to_dict(two_qutrit_ab_state(0.0, 1 + 1j))),
            "c_chow.json": json.dumps(state_to_dict(two_qutrit_ab_state(1.0, 1.0))),
        }
        both = tmp_path / "both"
        both.mkdir()
        lines = []
        for name, text in files.items():
            (both / name).write_text(text)
            alone = tmp_path / name.split(".")[0]
            alone.mkdir()
            (alone / name).write_text(text)
            out = tmp_path / f"{name}.jsonl"
            assert main(["batch", "--input", str(alone), "--out", str(out)]) == 0
            lines.append(out.read_text())
        out = tmp_path / "both.jsonl"
        assert main(["batch", "--input", str(both), "--out", str(out), "--parallel", parallel]) == 0
        assert capsys.readouterr().out.endswith("(Entangled: 2, error: 1)\n")
        assert out.read_text() == "".join(lines)
        got = [json.loads(line) for line in lines]
        assert got[0]["error"].startswith("StateFormatError: ")
        assert [line["report"]["rule"] for line in got[1:]] == ["NPT", "Chow33"]

    @pytest.mark.parametrize("where", ["parent", "worker"])
    def test_any_chunks_error_stops_the_batch(self, tmp_path, capsys, monkeypatch, where):
        # four files, one per chunk: the one forked child takes the first
        # two chunks, this process the last two
        parent = os.getpid()
        real_verdict = sep4.engine._verdict

        def failing(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise RuntimeError(f"stage failed in the {where}")
            return real_verdict(*args)

        monkeypatch.setattr(sep4.engine, "_verdict", failing)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        inputs = tmp_path / "in"
        inputs.mkdir()
        for i in range(4):
            write_state(inputs / f"s{i}.json", product_projector_state())
        out_file = tmp_path / "results.jsonl"
        argv = ["batch", "--input", str(inputs), "--out", str(out_file), "--parallel", "2"]
        with pytest.raises(RuntimeError, match=f"stage failed in the {where}"):
            main(argv)
        assert capsys.readouterr().out == ""
        assert not out_file.exists()

    def test_parallel_matches_serial_with_errors_in_a_dims_group(
        self, tmp_path, capsys, monkeypatch
    ):
        # every chunk holds two-qubit files that fail validation next to
        # valid ones, so each process validates groups that raise and rerun
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        rng = np.random.default_rng(5)
        inputs = tmp_path / "in"
        inputs.mkdir()
        for i in range(12):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            matrix = [a @ a.conj().T, np.diag([1.0, 1.0, 1.0, -1.0]), a][i % 3]
            pairs = [[[z.real, z.imag] for z in row] for row in matrix.tolist()]
            (inputs / f"s{i:02d}.json").write_text(json.dumps({"dims": [2, 2], "matrix": pairs}))
        outputs = []
        for parallel in ("1", "2"):
            out = tmp_path / f"p{parallel}.jsonl"
            argv = ["batch", "--input", str(inputs), "--out", str(out), "--parallel", parallel]
            assert main(argv) == 0
            assert capsys.readouterr().out.endswith("(Entangled: 2, Separable: 2, error: 8)\n")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        errors = [json.loads(line).get("error", "") for line in outputs[0].decode().splitlines()]
        assert sum(e.startswith("StateFormatError: eigenvalue") for e in errors) == 4
        assert sum(e.startswith("StateFormatError: relative asymmetry") for e in errors) == 4

    def test_worker_count_is_capped(self, tmp_path, capsys, monkeypatch):
        # --parallel N runs N processes: N - 1 forked children, each with a
        # contiguous run of chunks, and this process, which classifies the
        # last ceil(chunks / N) chunks
        runs = []
        sizes = []
        real_classify_files = cli._classify_files
        real_fork = cli._fork

        def recording(paths, *args):
            sizes.append(len(paths))
            return real_classify_files(paths, *args)

        def forking_a_result(task):
            """Runs the child's task here, so that its chunk sizes are
            recorded in order, and forks a child that only sends back the
            result."""
            before = len(sizes)
            result = task()
            runs.append(sizes[before:])
            return real_fork(lambda: result)

        monkeypatch.setattr(cli, "_classify_files", recording)
        monkeypatch.setattr(cli, "_fork", forking_a_result)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        inputs = tmp_path / "in"
        inputs.mkdir()
        self.mixed_directory(inputs)
        serial = tmp_path / "serial.jsonl"
        assert main(["batch", "--input", str(inputs), "--out", str(serial)]) == 0
        assert runs == []
        assert sizes == [10, 10]
        # two chunks per process, each of at most _CHUNK_FILES files
        for parallel, children, forked, mine, cap in [
            ("5000", 7, [2] * 8, [2, 2], 128), ("3", 2, [4] * 3, [4, 4], 128),
            ("2", 1, [3] * 3, [3, 3, 3, 2], 3), ("1", 0, [], [10, 10], 128),
        ]:
            monkeypatch.setattr(cli, "_CHUNK_FILES", cap)
            sizes.clear()
            out = tmp_path / f"p{parallel}.jsonl"
            argv = ["batch", "--input", str(inputs), "--out", str(out), "--parallel", parallel]
            assert main(argv) == 0
            assert len(runs) == children
            assert [size for run in runs for size in run] == forked
            if runs:
                assert max(map(len, runs)) - min(map(len, runs)) <= 1
            runs.clear()
            assert sizes == forked + mine
            assert out.read_text() == serial.read_text()
        two = tmp_path / "two"
        two.mkdir()
        write_state(two / "a.json", product_projector_state())
        write_state(two / "b.json", divincenzo_state())
        sizes.clear()
        assert main(
            ["batch", "--input", str(two), "--out", str(tmp_path / "two.jsonl"),
             "--parallel", "5000"]
        ) == 0
        capsys.readouterr()
        assert runs == [[1]]
        assert sizes == [1, 1]

    def failing_batch(self, tmp_path, monkeypatch, fail, files=4, parallel="2"):
        """The argv of ``sep4 batch`` on ``files`` product states, one per
        chunk, with ``cli._classify_files`` replaced by ``fail(paths)`` in
        every process, and its output file."""
        monkeypatch.setattr(cli, "_classify_files", lambda paths, *args: fail(paths))
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        inputs = tmp_path / "in"
        inputs.mkdir()
        for i in range(files):
            write_state(inputs / f"s{i}.json", product_projector_state())
        out_file = tmp_path / "results.jsonl"
        argv = ["batch", "--input", str(inputs), "--out", str(out_file), "--parallel", parallel]
        return argv, out_file

    def test_errors_raise_in_chunk_order_parent_first(self, tmp_path, capsys, monkeypatch):
        # six files, one per chunk, at --parallel 3: two children take
        # s0-s1 and s2-s3, this process s4-s5; the children's errors are
        # raised in chunk order, and this process's own before them
        parent = os.getpid()
        failing_here = [True]

        def fail(paths):
            if os.getpid() != parent or failing_here[0]:
                raise RuntimeError(f"failed at {os.path.basename(paths[0])}")
            return []

        argv, out_file = self.failing_batch(tmp_path, monkeypatch, fail, files=6, parallel="3")
        with pytest.raises(RuntimeError, match="failed at s4.json"):
            main(argv)
        failing_here[0] = False
        with pytest.raises(RuntimeError, match="failed at s0.json"):
            main(argv)
        assert capsys.readouterr().out == ""
        assert not out_file.exists()

    def test_error_that_does_not_pickle_arrives_as_its_repr(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        class LocalError(Exception):
            """Defined in a function, so pickle cannot find its class."""

        def fail(paths):
            if os.getpid() != parent:
                raise LocalError("in the child")
            return []

        argv, out_file = self.failing_batch(tmp_path, monkeypatch, fail)
        with pytest.raises(RuntimeError, match=r"LocalError\('in the child'\)"):
            main(argv)
        assert capsys.readouterr().out == ""
        assert not out_file.exists()

    def test_child_that_dies_without_a_result(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def die(paths):
            if os.getpid() != parent:
                os._exit(1)
            return []

        argv, out_file = self.failing_batch(tmp_path, monkeypatch, die)
        with pytest.raises(RuntimeError, match=r"batch worker \d+ exited without a result \(status 1\)"):
            main(argv)
        assert capsys.readouterr().out == ""
        assert not out_file.exists()

    def test_parent_error_kills_a_running_child(self, tmp_path, capsys, monkeypatch):
        # the child would run for a minute; the parent's error kills it at once
        parent = os.getpid()

        def fail(paths):
            if os.getpid() != parent:
                time.sleep(60)
                return []
            raise RuntimeError("failed in the parent")

        argv, out_file = self.failing_batch(tmp_path, monkeypatch, fail)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="failed in the parent"):
            main(argv)
        assert time.monotonic() - start < 30
        assert capsys.readouterr().out == ""
        assert not out_file.exists()

    def test_result_larger_than_a_pipe_holds(self):
        # each pipe is read to the end before its child is reaped: a child
        # whose result outgrows the pipe exits only once it is read
        big = "x" * (4 * cli._PIPE_BYTES)

        def on_alarm(signum, frame):
            raise TimeoutError("the join blocked")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(20)
        try:
            assert cli._fork_join([lambda: big, lambda: "b"], lambda: "c") == [big, "b", "c"]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_without_fork_parallel_runs_serially(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        inputs = tmp_path / "in"
        inputs.mkdir()
        self.mixed_directory(inputs)
        serial = tmp_path / "serial.jsonl"
        assert main(["batch", "--input", str(inputs), "--out", str(serial)]) == 0
        monkeypatch.delattr(cli.os, "fork")
        parallel = tmp_path / "parallel.jsonl"
        argv = ["batch", "--input", str(inputs), "--out", str(parallel), "--parallel", "2"]
        assert main(argv) == 0
        summaries = capsys.readouterr().out.splitlines()
        assert [line.split(" -> ")[0] for line in summaries] == ["classified 20 file(s)"] * 2
        assert parallel.read_bytes() == serial.read_bytes()


def test_usable_cpus_without_cpu_affinity(monkeypatch):
    # not every platform has os.sched_getaffinity; then every CPU counts,
    # and an unknown count is one
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


class TestGalleryCommand:
    def test_emit_divincenzo_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "dv.json"
        assert main(["gallery", "--name", "divincenzo", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["classify", "--input", str(out_file), "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["rule"] == "Chow222"

    @pytest.mark.parametrize("name", list(cli._GALLERY))
    def test_every_name_writes_a_state_classify_reads(self, tmp_path, capsys, name):
        exit_by_name = {
            "divincenzo": 1, "two-qutrit-ab": 1, "random-separable": 0, "random-ppt-rank4-33": 1,
        }
        assert set(exit_by_name) == set(cli._GALLERY)
        out_file = tmp_path / "state.json"
        assert main(["gallery", "--name", name, "--out", str(out_file)]) == 0
        assert main(["classify", "--input", str(out_file)]) == exit_by_name[name]
        capsys.readouterr()

    def test_emit_family_to_stdout(self, capsys):
        assert main(["gallery", "--name", "two-qutrit-ab", "--a", "0", "--b", "1"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["dims"] == [3, 3]

    def test_emit_random_separable(self, tmp_path, capsys):
        out_file = tmp_path / "sep.json"
        code = main(
            [
                "gallery", "--name", "random-separable",
                "--dims", "2,2,2", "--terms", "2", "--seed", "3",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["classify", "--input", str(out_file)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("dims", ["1000,1000", "65,65"])
    def test_too_large_random_separable_exits_3(self, tmp_path, capsys, dims):
        # rejected before the d x d matrix is allocated, not by a MemoryError
        out_file = tmp_path / "big.json"
        argv = ["gallery", "--name", "random-separable", "--dims", dims, "--out", str(out_file)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: DimensionMismatch: total dimension")
        assert not out_file.exists()


class TestVersionAndTolerances:
    def test_version_prints_checksums(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "sep4 0.1.0" in out
        assert out.count("sha256") == 6

    def test_env_var_overrides_tol_chow(self, tmp_path, capsys, monkeypatch):
        # an absurdly large threshold flips the DiVincenzo verdict
        path = write_state(tmp_path / "dv.json", divincenzo_state())
        monkeypatch.setenv("SEP4_TOL_CHOW", "1e6")
        assert main(["classify", "--input", path]) == 0
        capsys.readouterr()
        monkeypatch.delenv("SEP4_TOL_CHOW")
        assert main(["classify", "--input", path]) == 1
        capsys.readouterr()

    def test_flag_overrides_tolerance(self, tmp_path, capsys):
        path = write_state(tmp_path / "dv.json", divincenzo_state())
        assert main(["classify", "--input", path, "--tol-chow", "1e6"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag", [["--tol-orth", "1e-9"], ["--tol-recon", "1e-9"], ["--tol-rank", "1"]]
    )
    def test_unknown_or_invalid_tolerance_exits_3(self, tmp_path, capsys, flag):
        path = write_state(tmp_path / "dv.json", divincenzo_state())
        assert main(["classify", "--input", path, *flag]) == 3
        capsys.readouterr()

    def test_flag_wins_over_env(self, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path / "dv.json", divincenzo_state())
        monkeypatch.setenv("SEP4_TOL_CHOW", "1e6")
        assert main(["classify", "--input", path, "--tol-chow", "1e-8"]) == 1
        capsys.readouterr()


def reference_new_state(matrix, dims, cfg=DEFAULT_TOLERANCES):
    """``new_state`` as it was written for one matrix before its checks were
    stacked: the reference the stacked pass must match bit for bit."""
    m = np.asarray(matrix, dtype=complex)
    if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
    if min(dims) < 1 or math.prod(dims) != m.shape[0]:
        raise DimensionMismatch(f"dims {dims} do not multiply to matrix size {m.shape[0]}")
    scale = float(np.abs(np.ascontiguousarray(m).view(float)).max())
    if scale == 0.0:
        raise NotPositive("zero matrix is not a state")
    if not math.isfinite(scale):
        raise DimensionMismatch("matrix contains non-finite entries")
    if not math.isfinite(2.0 * scale * len(m)):
        with np.errstate(over="ignore"):
            trace = np.trace(m).real
        if not math.isfinite(trace):
            raise DimensionMismatch(f"trace {trace} is not a finite float")
    half = 0.5 * m
    scale = np.abs(half).max()
    adjoint = half.conj().T
    asym = np.abs(half - adjoint).max()
    if asym > cfg.tol_herm * scale:
        raise NotHermitian(f"relative asymmetry {asym / scale:.3e} exceeds tol_herm")
    m = half + adjoint
    eigs = np.linalg.eigvalsh(m)
    lam_max = eigs[-1]
    if not 0.0 < lam_max < math.inf:
        raise NotPositive(f"largest eigenvalue {lam_max:.3e} is not positive and finite")
    if not eigs[0] >= -cfg.tol_psd * lam_max:
        raise NotPositive(
            f"eigenvalue {eigs[0]:.3e} below -tol_psd * lambda_max = "
            f"{-cfg.tol_psd * lam_max:.3e}"
        )
    return MultiState(m, dims, cfg)


def two_qubit_file(kind: str, seed: int, size: float) -> np.ndarray:
    """A two-qubit matrix of one kind: a valid state of random rank, or one
    that is not Hermitian, not PSD, zero, NaN-bearing, of overflowing
    trace or of subnormal trace.  ``size`` in [0, 1) sets how far it is
    off; a small asymmetry or negative eigenvalue stays within tolerance."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 1 + seed % 4)) + 1j * rng.standard_normal((4, 1 + seed % 4))
    rho = a @ a.conj().T
    if kind == "non-hermitian":
        b = rng.standard_normal((4, 4))
        return rho + 1j * 10.0 ** (-14 + 14 * size) * np.abs(rho).max() * (b + b.T)
    if kind == "non-psd":
        return rho - 10.0 ** (-12 + 12 * size) * np.abs(rho).max() * np.eye(4)
    if kind == "zero":
        return np.zeros((4, 4), dtype=complex)
    if kind == "nan":
        rho[seed % 4, (seed // 4) % 4] = np.nan
        return rho
    if kind == "overflow":
        # scaled to a unit largest modulus first: the factor alone overflows
        # when that modulus is below 1
        return rho / np.abs(rho).max() * ((0.3 + 1.4 * size) * 1e308)
    if kind == "subnormal":
        return rho * 1e-310
    return rho


def two_qubit_files(kinds):
    return st.tuples(st.sampled_from(kinds), st.integers(0, 10_000), st.floats(0.0, 0.999))


@settings(max_examples=100, deadline=None)
@given(st.lists(two_qubit_files(["valid", "subnormal"]), min_size=1, max_size=6),
       st.lists(st.tuples(two_qubit_files(["non-hermitian", "non-psd", "zero", "nan", "overflow"]),
                          st.integers(0, 6)), max_size=2))
def test_grouped_validation_matches_per_file(good, bad):
    """One dims group validated in one stacked pass gives each file the line
    a lone state_from_dict and classify give it, error text included, and
    each accepted matrix the bits new_state gives it alone."""
    members = list(good)
    # at most two files that are off, each anywhere in the group
    for member, at in bad:
        members.insert(at, member)
    matrices = [two_qubit_file(*member) for member in members]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, m in enumerate(matrices):
            path = os.path.join(tmp, f"s{i}.json")
            with open(path, "w") as fh:
                json.dump(state_to_dict(MultiState(m, (2, 2))), fh)
            paths.append(path)
        lines = cli._classify_files(paths, DEFAULT_TOLERANCES, 0)
        for path, line in zip(paths, lines):
            with open(path) as fh:
                obj = json.load(fh)
            try:
                alone = classify(state_from_dict(obj), seed=0)
            except cli._INPUT_ERRORS as exc:
                alone = exc
            assert line == cli._file_line(os.path.basename(path), alone)
    checked = _checked_states([np.asarray(m) for m in matrices], (2, 2), DEFAULT_TOLERANCES)
    for m, state in zip(matrices, checked):
        try:
            reference = reference_new_state(m, (2, 2))
        except (DimensionMismatch, NotHermitian, NotPositive) as exc:
            assert isinstance(state, StateFormatError) and str(state) == str(exc)
            continue
        assert state._valid
        assert state.matrix.tobytes() == reference.matrix.tobytes()
