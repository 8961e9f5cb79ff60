"""The scripts in scripts/, run as their own processes."""

import contextlib
import importlib.util
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys
import types

import pytest

import svl

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(cwd, *argv):
    return run(cwd, str(SCRIPTS / argv[0]), *argv[1:])


def run(cwd, *argv):
    """python argv in cwd, with svl importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(svl.__file__)))
    return subprocess.run([sys.executable, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)


def test_make_figures_repeats_stdout_and_files(tmp_path):
    # The wall times go to stderr, so two runs print the same stdout.
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        proc = run_script(tmp_path / name, "make_figures.py", "--outdir", "out",
                          "--points", "5")
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert runs[0].splitlines() == [f"FIG{k}: wrote out/fig{k}.csv (5 points)"
                                    for k in range(1, 5)]
    for k in range(1, 5):
        first, second = ((tmp_path / name / "out" / f"fig{k}.csv").read_bytes()
                         for name in ("first", "second"))
        assert first == second
    assert len(first.splitlines()) == 6


def test_make_figures_has_no_fig4_points_option(tmp_path):
    proc = run_script(tmp_path, "make_figures.py", "--outdir", "out",
                      "--fig4-points", "3")
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [("--restarts", "0"), ("--seed", "-1"),
                                  ("--points", "-3"), ("--points", "0")], ids=" ".join)
def test_run_tradeoff_checks_rejects_bad_arguments(tmp_path, argv):
    proc = run_script(tmp_path, "run_tradeoff_checks.py", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("run_tradeoff_checks.py: error: ")


def test_readme_examples_run(tmp_path):
    readme = (ROOT / "README.md").read_text()
    [library] = re.findall(r"```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library, {})
    printed = out.getvalue().split()
    assert len(printed) == 2
    assert all(value.startswith("5.65685424949") for value in printed)
    examples = re.search(r"Examples:\n\n```\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line) for line in examples.splitlines()]
    assert len(commands) == 4 and all(argv[0] == "svl" for argv in commands)
    for argv in commands:
        proc = run(tmp_path, "-m", "svl", *argv[1:])
        assert proc.returncode == 0, (argv, proc.stderr)
    assert len((tmp_path / "fig1.csv").read_text().splitlines()) == 92


def load_compare_base():
    spec = importlib.util.spec_from_file_location("compare_base", SCRIPTS / "compare_base.py")
    compare_base = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_base)
    return compare_base


def test_compare_base_says_when_only_numbers_differ():
    describe = load_compare_base().describe
    base = b'{"value": 4.354648431614541, "keep": [0, 1, 2]}\n0.5,x2\n'
    here = b'{"value": 4.3546484316145415, "keep": [0, 1, 2]}\n-0.25,x2\n'
    lines = describe("stdout", base, here)
    assert lines[0] == "  stdout: differs only in numbers, by at most 0.75"
    assert '    -{"value": 4.354648431614541, "keep": [0, 1, 2]}' in lines
    assert '    +{"value": 4.3546484316145415, "keep": [0, 1, 2]}' in lines
    # Any other change, even beside a moved number, is a plain difference.
    for other in (b'{"value": 4.354648431614541, "keep": [0, 1, 3]}\n0.5,x3\n',
                  b'{"value": 4.3546484316145415, "keep": [0, 1, 2]}\n0.5,y2\n',
                  b'{"value": 4.354648431614541, "keep": [0, 1, 2]}\n0.5,x2\n\n'):
        assert describe("stdout", base, other)[0] == "  stdout:"
    assert describe("file out.csv", b"1,2\n", b"1,3\n")[0] == (
        "  file out.csv: differs only in numbers, by at most 1.0")


def test_compare_base_reports_a_crash_the_base_run_shares(monkeypatch, capsys):
    # Both trees print the same traceback, so the line does not differ; it
    # crashes all the same: svl prints one "svl: ..." line per expected error.
    compare_base = load_compare_base()
    stderr = {"crash": b'Traceback (most recent call last):\n  File "x"\nKeyError: 0\n',
              "error": b"svl: error: argument --restarts: must be positive\n"}
    monkeypatch.setattr(compare_base, "read_corpus", lambda path: [["crash"], ["error"]])
    monkeypatch.setattr(compare_base, "run", lambda tree, argv: {
        "exit code": 1, "stdout": b"", "stderr": stderr[argv[0]], "files": {}})
    monkeypatch.setattr(compare_base, "subprocess",
                        types.SimpleNamespace(run=lambda *args, **kwargs: None))
    monkeypatch.setattr(sys, "argv", ["compare_base.py", "--base", "HEAD"])
    assert compare_base.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        'CRASHES: ["crash"]', "2 command lines, 0 differ from HEAD, 1 crash here"]
    del stderr["crash"]
    monkeypatch.setattr(compare_base, "read_corpus", lambda path: [["error"]])
    assert compare_base.main() == 0
    assert capsys.readouterr().out == "1 command lines, 0 differ from HEAD, 0 crash here\n"


def test_cli_corpus_runs_every_verb_bound_figure_and_help():
    compare_base = load_compare_base()
    corpus = compare_base.read_corpus(compare_base.CORPUS)
    runs = [argv for argv in corpus if "--help" not in argv]
    helps = {tuple(argv[:-1]) for argv in corpus if argv[-1] == "--help"}
    verbs = ("state", "reduce", "bound", "maximize", "tensor", "tradeoff", "figure")
    names = [("tradeoff", b) for b in svl.BOUND_NAMES] + [("figure", f) for f in svl.FIGURES]
    assert helps == {(), *((v,) for v in verbs), *names}
    def fmt(argv):
        if "--format" in argv:
            return argv[argv.index("--format") + 1]
        return "csv" if argv[0] in ("tensor", "figure") else "json"

    for verb in verbs:
        assert {fmt(a) for a in runs if a[0] == verb} == {"json", "csv"}, verb
        assert any(a[0] == verb and "--output" in a for a in runs), verb
    assert {tuple(a[:2]) for a in runs} >= set(names)
    for verb in ("reduce", "bound", "maximize", "tensor"):
        assert any(a[0] == verb and "--reduce=0,1,5" in a for a in runs), verb
