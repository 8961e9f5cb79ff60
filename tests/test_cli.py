import json
import math
import subprocess
import sys

import pytest

from svl import bound_ms_sum
from svl.cli import main

GHZ3 = '{"family":"GGHZ","n":3,"theta":0.7853981633974483}'
GGHZ4 = '{"family":"GGHZ","n":4,"theta":0.0}'


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

    def test_unconverged_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "maximize", "--state", GHZ3,
                               "--restarts", "2", "--max-iter", "3")
        assert code == 4
        assert json.loads(out)["converged"] is False

    def test_allow_unconverged(self, capsys):
        code, _, _ = run_cli(capsys, "maximize", "--state", GHZ3,
                             "--restarts", "2", "--max-iter", "3",
                             "--allow-unconverged")
        assert code == 0


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
        (["bound", "--state", GHZ3, "--seed", "-1"], 2),
        (["bound", "--state", GHZ3, "--output", "/nonexistent/x.json"], 2),
        (["bound", "--state", '{"family":"GGHZ","n":3.7,"theta":0}'], 3),
        (["bound", "--state", '{"family":"DICKE","n":3,"m":1.9}'], 3),
        (["bound", "--state", '{"family":"GGHZ","n":3,"theta":1' + "0" * 5000 + "}"], 2),
    ])
    def test_bad_input_is_one_line_error(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected
        assert out == ""
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if line.startswith("svl")]) == 1

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

    def test_integer_theta_echoed_unchanged(self, capsys):
        spec = '{"family":"GGHZ","n":4,"theta":1}'
        code, out, _ = run_cli(capsys, "tradeoff", "theorem1", "--state", spec,
                               "--restarts", "2")
        assert code == 0
        assert '"params": {"theta": 1}' in out
        assert json.loads(out)["rhs"] == pytest.approx(16 * abs(math.cos(2.0)),
                                                       abs=1e-12)

    @pytest.mark.parametrize("bound, spec", [
        ("theorem1", GGHZ4),
        ("corollary1", '{"family":"GGHZ","n":5,"theta":0.4}'),
        ("corollary2", '{"family":"MS","n":5,"theta":2.0}'),
        ("eqn3p", '{"family":"WCLASS","alpha":0.6,"beta":0,"gamma":0,'
                  '"delta":0.8,"lambda":0}'),
    ])
    def test_corrected_variant_of_one_reading_bound_is_domain_error(
            self, capsys, bound, spec):
        code, out, err = run_cli(capsys, "tradeoff", bound, "--state", spec,
                                 "--restarts", "2", "--variant", "corrected")
        assert code == 3
        assert out == ""
        assert "no 'corrected' reading" in err

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
        _, out1, _ = run_cli(capsys, "maximize", "--state", GHZ3,
                             "--restarts", "2", "--seed", "1")
        _, out2, _ = run_cli(capsys, "maximize", "--state", GHZ3,
                             "--restarts", "2", "--seed", "2")
        assert (json.loads(out1)["settings"] != json.loads(out2)["settings"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "svl", "bound", "--state", GGHZ4,
         "--reduce", "0,1,2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(4.0, abs=1e-12)
