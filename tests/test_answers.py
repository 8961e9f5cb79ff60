"""The answer sheet: every row of tests/answers.json, recomputed.

Each row is one distinct three-qubit reduction of scripts/make_answers.py's
corpus.  Its maximum must come back within 1e-9, its 4*lambda1 within
1e-12 relative (1e-14 absolute where it is rounding off zero), and the
closed form must take it exactly where it took it before.  A change that
is meant to move a number regenerates the sheet and names the moved rows.
"""

import importlib.util
import json
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("make_answers", ROOT / "scripts" / "make_answers.py")
make_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_answers)

SHEET = json.loads(make_answers.SHEET.read_text(encoding="utf-8"))


def test_sheet_covers_the_corpus_once_at_its_options():
    assert (SHEET["restarts"], SHEET["seed"]) == (make_answers.OPTIONS.restarts,
                                                  make_answers.OPTIONS.seed) == (8, 42)
    walked = [(source, None if keep is None else list(keep))
              for source, keep, _ in make_answers.distinct_reductions()]
    assert [(row["state"], row["keep"]) for row in SHEET["rows"]] == walked
    assert 300 <= len(walked) <= 500


def test_every_row_recomputes():
    moved = []
    for (source, keep, rho), want in zip(make_answers.distinct_reductions(), SHEET["rows"], strict=True):
        got = make_answers.answer(source, keep, rho)
        if not (abs(got["value"] - want["value"]) <= 1e-9
                and math.isclose(got["upper_bound_4lambda1"], want["upper_bound_4lambda1"],
                                 rel_tol=1e-12, abs_tol=1e-14)
                and got["closed_form"] == want["closed_form"]):
            moved.append(f"{json.dumps(want)}\n    now {json.dumps(got)}")
    assert not moved, f"{len(moved)} rows moved:\n" + "\n".join(moved)

