import csv
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from svl import (BlochVector, OptimizerOptions, ReductionResult, StateSpec,
                 SvetlichnyMaximum, SvetlichnySettings, TradeoffReport, bound_ms_sum,
                 bound_ms_sum_n, maximize_svetlichny, reduce_pure, verify_tradeoff)
from svl.cli import build_parser, main
from svl.tradeoff import _BOUND_RULES, _FIGURE_RULES

from conftest import drop_memos

GHZ3 = '{"family":"GGHZ","n":3,"theta":0.7853981633974483}'
GGHZ4 = '{"family":"GGHZ","n":4,"theta":0.0}'
# The W state stays below its 4*lambda1, so only the see-saw maximizes it.
W3 = '{"family":"DICKE","n":3,"m":1}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMaximizeVerb:
    def test_ghz_value(self, capsys):
        code, out, _ = run_cli(capsys, "maximize", "--state", GHZ3,
                               "--restarts", "16")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(4 * math.sqrt(2), abs=1e-6)
        assert data["converged"] is True
        assert set(data["settings"]) == {"a", "a_p", "b", "b_p", "c", "c_p"}

    def test_reduce_to_three_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "maximize", "--state", GGHZ4,
                               "--reduce", "0,1,2", "--restarts", "8")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(4.0, abs=1e-5)

    def test_four_qubits_without_reduce_is_argument_error(self, capsys):
        code, _, err = run_cli(capsys, "maximize", "--state", GGHZ4)
        assert code == 2
        assert "3-qubit" in err

    def test_unconverged_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr("svl.svetlichny._MAX_SWEEPS", 3)
        code, out, _ = run_cli(capsys, "maximize", "--state", W3, "--restarts", "2")
        assert code == 4
        assert json.loads(out)["converged"] is False

    def test_allow_unconverged(self, capsys, monkeypatch):
        monkeypatch.setattr("svl.svetlichny._MAX_SWEEPS", 3)
        code, out, _ = run_cli(capsys, "maximize", "--state", W3,
                             "--restarts", "2", "--allow-unconverged")
        assert code == 0
        assert json.loads(out)["converged"] is False

    def test_tight_reduction_is_exact_whatever_the_sweep_cap(self, capsys, monkeypatch):
        # GHZ reaches its 4*lambda1 in closed form: no sweep, no exit 4.
        monkeypatch.setattr("svl.svetlichny._MAX_SWEEPS", 1)
        code, out, _ = run_cli(capsys, "maximize", "--state", GHZ3, "--restarts", "2")
        data = json.loads(out)
        assert code == 0
        assert (data["converged"], data["evaluations"]) == (True, 0)
        assert data["value"] == pytest.approx(4 * math.sqrt(2), abs=1e-12)


class TestBoundVerb:
    def test_three_qubit_reduction_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--state", GGHZ4,
                               "--reduce", "0,1,2")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "svetlichny_4lambda1"
        assert data["value"] == pytest.approx(4.0, abs=1e-12)

    def test_two_qubit_chsh_bound(self, capsys):
        bell = '{"family":"GGHZ","n":4,"theta":0.7853981633974483}'
        code, out, _ = run_cli(capsys, "bound", "--state", bell,
                               "--reduce", "0,1")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "chsh_horodecki"

    def test_degrees_flag(self, capsys):
        deg = '{"family":"GGHZ","n":3,"theta":45.0}'
        code, out, _ = run_cli(capsys, "bound", "--state", deg, "--degrees")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(
            4 * math.sqrt(2), abs=1e-9)


class TestStateAndReduce:
    def test_state_emits_reusable_custom_spec(self, capsys):
        code, out, _ = run_cli(capsys, "state", "--state", GHZ3)
        assert code == 0
        spec = json.loads(out)
        assert spec["family"] == "CUSTOM"
        code2, out2, _ = run_cli(capsys, "bound", "--state", out.strip())
        assert code2 == 0
        assert json.loads(out2)["value"] == pytest.approx(
            4 * math.sqrt(2), abs=1e-9)

    def test_state_csv(self, capsys):
        code, out, _ = run_cli(capsys, "state", "--state", GHZ3,
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,real,imag"
        assert len(lines) == 9

    def test_state_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        run_cli(capsys, "state", "--state", GHZ3, "--output", str(path))
        code, out, _ = run_cli(capsys, "bound", "--state-file", str(path))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(
            4 * math.sqrt(2), abs=1e-9)

    def test_reduce_verb(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--state", GGHZ4,
                               "--reduce", "0,1,2")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3
        assert data["entries"][0][0] == [1.0, 0.0]


class TestErrors:
    def test_malformed_json_is_argument_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--state", "not json")
        assert code == 2
        assert "malformed" in err

    def test_unnormalized_coefficients_are_domain_error(self, capsys):
        bad = ('{"family":"WCLASS","alpha":1,"beta":1,"gamma":0,'
               '"delta":0,"lambda":0}')
        code, _, err = run_cli(capsys, "bound", "--state", bad)
        assert code == 3
        assert "expected 1" in err

    def test_unknown_flag_is_argument_error(self, capsys):
        assert main(["maximize", "--state", GHZ3, "--frobnicate"]) == 2

    def test_unknown_verb_is_argument_error(self, capsys):
        assert main(["explode"]) == 2

    def test_wrong_family_for_bound_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "tradeoff", "theorem2",
                               "--state", GGHZ4, "--restarts", "4")
        assert code == 3

    @pytest.mark.parametrize("argv, expected", [
        (["bound", "--state", '{"family":"GGHZ","n":3,"theta":NaN}'], 3),
        (["bound", "--state", '{"family":"GGHZ","n":3,"theta":Infinity}'], 3),
        (["bound", "--state", '{"family":"MS","n":4,"theta":-Infinity}'], 3),
        (["bound", "--state", '{"family":"GGHZ","n":3,"theta":"a"}'], 3),
        (["bound", "--state", '{"family":"GGHZ","n":3,"theta":null}'], 3),
        (["bound", "--state", '{"family":"GGHZ","n":3,"theta":true}'], 3),
        (["bound", "--state", '{"family":"GGHZ","n":3,"theta":"a"}', "--degrees"], 3),
        (["bound", "--state", '{"family":"GGHZ","n":"x","theta":0}'], 3),
        (["bound", "--state", '{"family":"CUSTOM","n":1,"amplitudes":5}'], 3),
        (["bound", "--state", '{"family":"CUSTOM","n":1,"amplitudes":[[1,0],[0]]}'], 3),
        (["bound", "--state", '{"family":"WCLASS","alpha":"x","beta":0,'
                              '"gamma":0,"delta":0,"lambda":1}'], 3),
        (["bound", "--state", '{"family":"WCLASS","alpha":NaN,"beta":0,'
                              '"gamma":0,"delta":0,"lambda":1}'], 3),
        (["maximize", "--state", GHZ3, "--seed", "-1"], 3),
        (["bound", "--state", GHZ3, "--output", "/nonexistent/x.json"], 2),
        (["bound", "--state", '{"family":"GGHZ","n":3.7,"theta":0}'], 3),
        (["bound", "--state", '{"family":"DICKE","n":3,"m":1.9}'], 3),
        (["bound", "--state", '{"family":"GGHZ","n":3,"theta":1' + "0" * 5000 + "}"], 2),
        (["maximize", "--state", GHZ3, "--tol", "nan"], 2),
        (["maximize", "--state", GHZ3, "--max-iter", "0"], 2),
        (["maximize", "--state", GHZ3, "--restarts", "0"], 3),
        (["maximize", "--state", GHZ3, "--restarts", "10001"], 3),
        (["figure", "FIG1", "--points", "100001"], 3),
        (["state", "--state", '{"family":"CUSTOM","n":100000,"amplitudes":[[1,0]]}'], 3),
        (["figure", "FIG4", "--variant", "corrected"], 2),
        (["tradeoff", "theorem1", "--state", GGHZ4, "--variant", "corrected"], 2),
        (["state", "--state", "[" * 100000], 2),
        (["state", "--state", "[1, 2]"], 2),
        (["bound", "--state", GGHZ4, "--reduce", "0,x,2"], 2),
        (["reduce", "--state", GGHZ4, "--reduce", "0,4"], 2),
    ])
    def test_bad_input_is_one_line_error(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected
        assert out == ""
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if line.startswith("svl")]) == 1

    def test_huge_coefficients_print_one_line(self):
        # Their squares overflow; the norm is named, and numpy's warning,
        # which the suite's filter would raise in process, stays silent.
        huge = ('{"family":"WCLASS","alpha":1e300,"beta":1e300,"gamma":0,'
                '"delta":0,"lambda":0}')
        proc = subprocess.run([sys.executable, "-m", "svl", "state", "--state", huge],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("svl: coefficients have norm 1.4142135623730952e+300, "
                               "expected 1\n")

    @pytest.mark.parametrize("text", ["0,x,2", "", "0,,1"])
    def test_bad_index_list_quotes_the_list(self, capsys, text):
        code, out, err = run_cli(capsys, "bound", "--state", GGHZ4, "--reduce", text)
        assert (code, out, err) == (2, "", f"svl: bad index list {text!r}\n")

    def test_too_many_qubits_is_domain_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the qubit-count check")

        monkeypatch.setattr(np, "zeros", refuse)
        code, out, err = run_cli(capsys, "bound", "--state",
                                 '{"family":"GGHZ","n":40,"theta":0}')
        assert code == 3
        assert out == ""
        assert err.startswith("svl: ") and len(err.splitlines()) == 1

    def test_reduction_size_is_checked_before_reducing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reduced before the reduction-size check")

        monkeypatch.setattr(np, "transpose", refuse)  # reduce_pure's first allocation
        code, out, err = run_cli(capsys, "bound", "--state",
                                 '{"family":"GGHZ","n":12,"theta":0.3}')
        assert code == 2
        assert out == ""
        assert "use --reduce" in err

    def test_too_deeply_nested_state_file_is_argument_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        code, out, err = run_cli(capsys, "state", "--state-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("svl: malformed state JSON") and len(err.splitlines()) == 1

    def test_unreadable_state_file_is_argument_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bound", "--state-file",
                               str(tmp_path / "missing.json"))
        assert code == 2
        assert err.startswith("svl: ")
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff{"family": "GGHZ"}')
        code, _, err = run_cli(capsys, "bound", "--state-file", str(path))
        assert code == 2
        assert err.startswith("svl: ")


# One passing argv per verb, per trade-off bound and per figure, and the
# flags each reads; every other (verb, flag), (bound, flag) and
# (figure, flag) pair is an argument error.
MS4 = '{"family":"MS","n":4,"theta":2.0}'
WCLASS = ('{"family":"WCLASS","alpha":0.6,"beta":0,"gamma":0,"delta":0.8,'
          '"lambda":0}')
BASE_ARGV = {
    "state": ["state", "--state", GHZ3],
    "reduce": ["reduce", "--state", GHZ3, "--reduce", "0,1"],
    "bound": ["bound", "--state", GHZ3],
    "maximize": ["maximize", "--state", GHZ3, "--restarts", "2"],
    "tensor": ["tensor", "--state", GHZ3],
    "theorem1": ["tradeoff", "theorem1", "--state", GGHZ4, "--restarts", "2"],
    "corollary1": ["tradeoff", "corollary1", "--state", GGHZ4, "--restarts", "2"],
    "theorem2": ["tradeoff", "theorem2", "--state", MS4, "--restarts", "2"],
    "corollary2": ["tradeoff", "corollary2", "--state", MS4, "--restarts", "2"],
    "theorem3": ["tradeoff", "theorem3", "--state", WCLASS, "--restarts", "2"],
    "eqn3p": ["tradeoff", "eqn3p", "--state", WCLASS, "--restarts", "2"],
    "FIG1": ["figure", "FIG1", "--points", "3"],
    "FIG2": ["figure", "FIG2", "--points", "3"],
    "FIG3": ["figure", "FIG3", "--points", "3"],
    "FIG4": ["figure", "FIG4", "--points", "2", "--restarts", "2"],
}
BOUND_ROWS = ("theorem1", "corollary1", "theorem2", "corollary2", "theorem3", "eqn3p")
FIGURE_ROWS = ("FIG1", "FIG2", "FIG3", "FIG4")
SUB_ROWS = {"tradeoff": BOUND_ROWS, "figure": FIGURE_ROWS}
OPTIMIZER_ROWS = {"maximize", "FIG4", *BOUND_ROWS}
READERS = {
    "--format": set(BASE_ARGV),
    "--output": set(BASE_ARGV),
    "--degrees": set(BASE_ARGV) - set(FIGURE_ROWS),
    "--seed": OPTIMIZER_ROWS,
    "--restarts": OPTIMIZER_ROWS,
    "--max-iter": set(),  # removed flags: every verb rejects them
    "--tol": set(),
    "--allow-unconverged": OPTIMIZER_ROWS,
    "--variant": {"theorem2", "corollary2", "theorem3", "FIG2", "FIG3"},
    "--points": set(FIGURE_ROWS),
}
FLAG_ARGS = {"--format": ["json"], "--degrees": [], "--seed": ["3"],
             "--restarts": ["2"], "--max-iter": ["500"], "--tol": ["1e-8"],
             "--allow-unconverged": [], "--variant": ["verbatim"], "--points": ["3"]}


class TestFlagReaders:
    @pytest.mark.parametrize("flag", list(READERS))
    @pytest.mark.parametrize("verb", ["state", "reduce", "bound", "maximize", "tensor",
                                      "tradeoff", "figure"])
    def test_verb_accepts_exactly_the_flags_it_reads(self, capsys, tmp_path, verb, flag):
        value = [str(tmp_path / "out")] if flag == "--output" else FLAG_ARGS[flag]
        for row in SUB_ROWS.get(verb, (verb,)):
            code, out, err = run_cli(capsys, *BASE_ARGV[row], flag, *value)
            if row in READERS[flag]:
                assert code == 0, (row, err)
            else:
                assert code == 2, row
                assert out == ""
                assert "unrecognized arguments" in err


def test_each_bound_and_figure_starts_at_its_first_reading():
    parser = build_parser()
    for name, rule in _BOUND_RULES.items():
        args = parser.parse_args(["tradeoff", name, "--state", GGHZ4])
        assert args.variant == rule.variants[0], name
    for name, rule in _FIGURE_RULES.items():
        assert parser.parse_args(["figure", name]).variant == rule.variants[0], name


class TestHelp:
    @pytest.mark.parametrize("argv", [["maximize"], ["tradeoff", "theorem1"],
                                      ["figure", "FIG4"]])
    def test_optimizer_defaults_are_shown(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "200")
        code, out, _ = run_cli(capsys, *argv, "--help")
        assert code == 0
        assert "(default 64)" in out
        assert "(default 42)" in out


class TestTensorVerb:
    def test_ghz_tensor_csv(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "--state", GHZ3)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,k,value"
        assert len(lines) == 28
        values = {tuple(map(int, row.split(",")[:3])): float(row.split(",")[3])
                  for row in lines[1:]}
        assert values[(1, 1, 1)] == pytest.approx(1.0, abs=1e-12)
        assert values[(1, 2, 2)] == pytest.approx(-1.0, abs=1e-12)
        assert values[(3, 3, 3)] == pytest.approx(0.0, abs=1e-12)

    def test_reduce_then_tensor(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "--state", GGHZ4,
                               "--reduce", "0,1,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 27
        by_idx = {(d["i"], d["j"], d["k"]): d["value"] for d in data}
        assert by_idx[(3, 3, 3)] == pytest.approx(1.0, abs=1e-12)


def names(record) -> list[str]:
    return [f.name for f in dataclasses.fields(record)]


class TestOutputSchema:
    """The JSON keys and CSV headers are the result records' fields, in order."""

    def test_maximize(self, capsys):
        argv = ["maximize", "--state", W3, "--restarts", "2"]
        _, out, _ = run_cli(capsys, *argv)
        data = json.loads(out)
        assert list(data) == names(SvetlichnyMaximum)
        assert list(data["settings"]) == names(SvetlichnySettings)
        assert all(list(v) == names(BlochVector) for v in data["settings"].values())
        best = maximize_svetlichny(
            reduce_pure(StateSpec.from_dict(json.loads(W3)).to_pure(), (0, 1, 2)),
            OptimizerOptions(restarts=2))
        assert out == json.dumps(dataclasses.asdict(best)) + "\n"
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        header = next(csv.reader(out.splitlines()))
        assert header == [name for name in names(SvetlichnyMaximum) if name != "settings"]

    def test_tradeoff(self, capsys):
        argv = ["tradeoff", "theorem1", "--state", GGHZ4, "--restarts", "2"]
        _, out, _ = run_cli(capsys, *argv)
        data = json.loads(out)
        assert list(data) == names(TradeoffReport)
        assert all(list(r) == names(ReductionResult) for r in data["per_reduction"])
        report = verify_tradeoff(StateSpec.from_dict(json.loads(GGHZ4)), "theorem1",
                                 OptimizerOptions(restarts=2))
        assert out == json.dumps(dataclasses.asdict(report)) + "\n"
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        header = next(csv.reader(out.splitlines()))
        assert header == names(ReductionResult) + ["lhs", "rhs", "satisfied"]


class TestTradeoffVerb:
    def test_report_json(self, capsys):
        spec = '{"family":"GGHZ","n":4,"theta":1.0471975511965976}'
        code, out, _ = run_cli(capsys, "tradeoff", "theorem1",
                               "--state", spec, "--restarts", "8")
        assert code == 0
        data = json.loads(out)
        assert data["bound"] == "theorem1"
        assert data["rhs"] == pytest.approx(8.0, abs=1e-12)
        assert data["satisfied"] is True
        assert len(data["per_reduction"]) == 4

    def test_csv_format(self, capsys):
        spec = '{"family":"GGHZ","n":4,"theta":0.5}'
        code, out, _ = run_cli(capsys, "tradeoff", "theorem1",
                               "--state", spec, "--restarts", "4",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("keep,value,")
        assert len(lines) == 5
        # The keep holds commas, so it is quoted and each row reads back
        # with the header's width.
        rows = list(csv.reader(out.splitlines()))
        assert {len(row) for row in rows} == {len(rows[0])}
        assert rows[1][0] == "0,1,2"

    def test_integer_theta_echoed_unchanged(self, capsys):
        spec = '{"family":"GGHZ","n":4,"theta":1}'
        code, out, _ = run_cli(capsys, "tradeoff", "theorem1", "--state", spec,
                               "--restarts", "2")
        assert code == 0
        assert '"params": {"theta": 1}' in out
        assert json.loads(out)["rhs"] == pytest.approx(16 * abs(math.cos(2.0)),
                                                       abs=1e-12)

    @pytest.mark.parametrize("bound", ["theorem1", "corollary1", "eqn3p"])
    def test_variant_of_one_reading_bound_is_argument_error(self, capsys, bound):
        # Rejected at parse time, before the state is read, as for figures.
        code, out, err = run_cli(capsys, "tradeoff", bound, "--state", "{",
                                 "--variant", "verbatim")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --variant verbatim" in err
        code, out, err = run_cli(capsys, *BASE_ARGV[bound], "--variant", "corrected")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --variant corrected" in err

    def test_ms_corrected_variant(self, capsys):
        theta = 2 * math.pi / 3
        spec = json.dumps({"family": "MS", "n": 4, "theta": theta})
        code, out, _ = run_cli(capsys, "tradeoff", "theorem2", "--state", spec,
                               "--restarts", "8", "--variant", "corrected")
        assert code == 0
        data = json.loads(out)
        assert data["variant"] == "corrected"
        assert data["rhs"] == bound_ms_sum(theta, "corrected")
        assert data["satisfied"] is True

    def test_corollary2_corrected_variant(self, capsys):
        # The printed n-qubit bound fails here (lhs 12.49 > rhs 12.0); the
        # corrected reading is the maximized sum.
        spec = json.dumps({"family": "MS", "n": 4, "theta": 3 * math.pi / 4})
        argv = ["tradeoff", "corollary2", "--state", spec, "--restarts", "8"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["satisfied"] is False
        code, out, _ = run_cli(capsys, *argv, "--variant", "corrected")
        assert code == 0
        data = json.loads(out)
        assert data["variant"] == "corrected"
        assert data["rhs"] == bound_ms_sum_n(4, 3 * math.pi / 4, "corrected")
        assert data["lhs"] == pytest.approx(data["rhs"], abs=1e-9)
        assert data["satisfied"] is True


class TestFigureVerb:
    def test_fig1_csv(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "FIG1", "--points", "91")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,sum_bound,spectral_bound"
        assert len(lines) == 92
        for line in lines[1:]:
            _, sum_bound, spectral = map(float, line.split(","))
            assert sum_bound <= spectral + 1e-12

    def test_fig_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "FIG1", "--points", "5",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 5
        assert set(data[0]) == {"theta", "sum_bound", "spectral_bound"}

    def test_fig4_unconverged_exit_code(self, capsys, monkeypatch):
        # Every FIG4 reduction is maximized in closed form; declining it
        # leaves them to the see-saw.
        monkeypatch.setattr("svl.svetlichny._exact_directions", lambda tensor, bound: None)
        drop_memos(monkeypatch)
        monkeypatch.setattr("svl.svetlichny._MAX_SWEEPS", 1)
        argv = ["figure", "FIG4", "--points", "2", "--restarts", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 4
        assert len(out.strip().splitlines()) == 3
        code, out2, _ = run_cli(capsys, *argv, "--allow-unconverged")
        assert code == 0
        assert out2 == out

    def test_csv_round_trips_doubles(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "FIG1", "--points", "7")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[3][0]) == 3 * (math.pi / 4) / 6


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, capsys):
        argv = ["maximize", "--state", GHZ3, "--restarts", "4", "--seed", "7"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_seed_changes_search_path(self, capsys):
        _, out1, _ = run_cli(capsys, "maximize", "--state", W3,
                             "--restarts", "2", "--seed", "1")
        _, out2, _ = run_cli(capsys, "maximize", "--state", W3,
                             "--restarts", "2", "--seed", "2")
        assert (json.loads(out1)["settings"] != json.loads(out2)["settings"])


@pytest.mark.parametrize("module", ["svl", "svl.cli"])
def test_module_entry_point(module, capsys):
    # Both modules run main(), so each prints what main() prints in process.
    argv = ["bound", "--state", GGHZ4, "--reduce", "0,1,2"]
    _, want, _ = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == want
    assert json.loads(proc.stdout)["value"] == pytest.approx(4.0, abs=1e-12)
