#!/usr/bin/env python3
"""Run a corpus of svl command lines on this tree and on a git revision,
and report every difference.

Each line of scripts/cli_corpus.txt (blank lines and lines starting
with # are skipped) is one JSON array of arguments.  Each is run as
`python -m svl ...` once with this tree's src/ and once with the
revision's, each in a fresh process under PYTHONHASHSEED=0 and
COLUMNS=80, in its own empty working directory.  A difference in stdout,
stderr, exit code, or the names or bytes of the files the run leaves in
its working directory (--output) is reported.  A line whose run on this
tree prints a Python traceback is reported as a crash even when the
revision's run prints the same: svl prints one `svl: ...` line for every
error it expects.  The script exits 1 if any line differs or crashes,
else 0.  Where two outputs differ only in their numbers, the report says
so and gives the largest absolute difference.

The revision is checked out with `git worktree add --detach` into a
temporary directory, which is removed afterwards.

    python scripts/compare_base.py --base HEAD
"""

import argparse
import difflib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "scripts" / "cli_corpus.txt"
TIMEOUT = 120.0  # seconds per run; the slowest corpus line takes about 1 s
TRACEBACK = b"Traceback (most recent call last)"
# A decimal number that is not part of a word such as FIG4.
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")


def read_corpus(path: pathlib.Path) -> list[list[str]]:
    corpus = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        argv = json.loads(line)
        if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
            raise SystemExit(f"{path}:{number}: expected a JSON array of strings")
        corpus.append(argv)
    return corpus


def run(tree: pathlib.Path, argv: list[str]) -> dict:
    """stdout, stderr, exit code and left files of `python -m svl argv`."""
    env = dict(os.environ, PYTHONHASHSEED="0", COLUMNS="80", PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory(prefix="svl-compare-") as cwd:
        proc = subprocess.run([sys.executable, "-m", "svl", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=TIMEOUT)
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(pathlib.Path(cwd).rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def number_gap(base: str, here: str) -> float | None:
    """Largest absolute difference between the numbers of two texts that
    differ only in their numbers, else None."""
    if NUMBER.split(base) != NUMBER.split(here):
        return None
    return max(abs(float(x) - float(y))
               for x, y in zip(NUMBER.findall(base), NUMBER.findall(here)))


def describe(name: str, base, here) -> list[str]:
    """Lines that show how one part of two runs differs."""
    if isinstance(base, bytes):
        base, here = base.decode(errors="replace"), here.decode(errors="replace")
        gap = number_gap(base, here)
        title = f"  {name}:" if gap is None else (
            f"  {name}: differs only in numbers, by at most {gap!r}")
        diff = difflib.unified_diff(base.splitlines(), here.splitlines(),
                                    "base", "here", lineterm="", n=1)
        return [title, *(f"    {line}" for line in list(diff)[:20])]
    if isinstance(base, dict):
        lines = []
        for key in sorted(base.keys() | here.keys()):
            if key not in base or key not in here:
                lines.append(f"  file {key}: only {'here' if key in here else 'at base'}")
            elif base[key] != here[key]:
                lines += describe(f"file {key}", base[key], here[key])
        return lines
    return [f"  {name}: {base!r} at base, {here!r} here"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    args = ap.parse_args()
    corpus = read_corpus(CORPUS)

    differing = crashing = 0
    with tempfile.TemporaryDirectory(prefix="svl-base-") as parent:
        base = pathlib.Path(parent) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(base), args.base], check=True)
        try:
            for argv in corpus:
                old, new = run(base, argv), run(ROOT, argv)
                if TRACEBACK in new["stdout"] or TRACEBACK in new["stderr"]:
                    crashing += 1
                    print(f"CRASHES: {json.dumps(argv)}")
                lines = [line for key in old if old[key] != new[key]
                         for line in describe(key, old[key], new[key])]
                if lines:
                    differing += 1
                    print(f"DIFFERS: {json.dumps(argv)}", *lines, sep="\n")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base)], check=False)
    print(f"{len(corpus)} command lines, {differing} differ from {args.base}, "
          f"{crashing} crash here")
    return 1 if differing or crashing else 0


if __name__ == "__main__":
    raise SystemExit(main())
