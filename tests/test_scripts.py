"""The scripts in scripts/, run as their own processes."""

import contextlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys

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
