"""The scripts in scripts/, run as their own processes."""

import os
import pathlib
import subprocess
import sys

import svl

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(cwd, *argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(svl.__file__)))
    return subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
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
