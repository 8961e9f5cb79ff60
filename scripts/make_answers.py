#!/usr/bin/env python3
"""Write the answer sheet tests/answers.json.

The sheet holds one row per distinct three-qubit reduction of a named,
seeded corpus of states (sources(), in that order): the state's spec or
generator seed, the keep, the Svetlichny maximum, its 4*lambda1
certificate, and whether the closed form took it (evaluations 0).  Every
maximum uses OPTIONS; floats are written by repr, so the sheet holds
every bit.  A reduction whose matrix equals an earlier row's, bit for
bit, gets no row of its own.

tests/test_answers.py recomputes every row.  Rerun this script only for a
change that is meant to move a number, and say which rows moved:

    PYTHONPATH=src python scripts/make_answers.py
    git diff --word-diff tests/answers.json
"""

import itertools
import json
import math
import pathlib

import numpy as np

from svl import (DensityMatrix, OptimizerOptions, PureState, StateSpec, maximize_svetlichny,
                 reduce_pure, svetlichny_upper_bound)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHEET = ROOT / "tests" / "answers.json"
OPTIONS = OptimizerOptions(restarts=8, seed=42)

# Generator seeds of the random mixed and pure states.
MIXED_SEEDS = tuple(range(20))
PURE_SEEDS = tuple(range(50))


def mixed3(seed: int) -> DensityMatrix:
    """Three-qubit g g^dagger / Tr, g complex Gaussian (acceptance
    criterion 09's generator), drawn with the given seed."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = g @ g.conj().T
    return DensityMatrix(3, m / np.trace(m).real)


def pure4(seed: int) -> PureState:
    """Four-qubit complex Gaussian amplitudes, normalized."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=16) + 1j * rng.normal(size=16)
    return PureState(4, a / np.linalg.norm(a))


GENERATORS = {"mixed3": mixed3, "pure4": pure4}


def sources():
    """Every state of the corpus, as a StateSpec dict or as
    {"generator": name, "seed": seed} for one of GENERATORS."""
    for family, n, k in itertools.product(("GGHZ", "MS"), (4, 5), range(17)):
        yield {"family": family, "n": n, "theta": k * math.pi / 16}
    # W-class coefficients on a grid, normalized, with and without vacuum.
    for *coefficients, lam in itertools.product((0, 1, 2), (0, 1, 2), (1, 2), (1, 2), (0, 1)):
        if lam and len(set(coefficients)) > 1:
            continue
        norm = math.sqrt(sum(c * c for c in coefficients) + lam * lam)
        yield dict(zip(("alpha", "beta", "gamma", "delta", "lambda"),
                       (c / norm for c in (*coefficients, lam))), family="WCLASS")
    # The FIG4 slice at sweep_figure's 11-point grid.
    for k in range(11):
        g = k * 0.1
        yield {"family": "WCLASS", "alpha": 0.0, "beta": 0.0, "gamma": g,
               "delta": math.sqrt(max(1.0 - g * g, 0.0)), "lambda": 0.0}
    for n in range(4, 11):  # W_n is Dicke(n, n - 1)
        for m in range(n + 1):
            yield {"family": "DICKE", "n": n, "m": m}
    for seed in MIXED_SEEDS:
        yield {"generator": "mixed3", "seed": seed}
    for seed in PURE_SEEDS:
        yield {"generator": "pure4", "seed": seed}


def reductions(source: dict):
    """(keep, matrix) of each three-qubit reduction of the source; a
    three-qubit mixed state is its own, with keep None."""
    if "generator" in source:
        state = GENERATORS[source["generator"]](source["seed"])
    else:
        state = StateSpec.from_dict(source).to_pure()
    if isinstance(state, DensityMatrix):
        yield None, state
        return
    for keep in itertools.combinations(range(state.num_qubits), 3):
        yield keep, reduce_pure(state, keep)


def distinct_reductions():
    """(source, keep, matrix) of each reduction not seen before, bit for bit."""
    seen = set()
    for source in sources():
        for keep, rho in reductions(source):
            key = rho.entries.tobytes()
            if key not in seen:
                seen.add(key)
                yield source, keep, rho


def answer(source: dict, keep, rho: DensityMatrix) -> dict:
    best = maximize_svetlichny(rho, OPTIONS)
    return {"state": source, "keep": None if keep is None else list(keep),
            "value": best.value, "upper_bound_4lambda1": svetlichny_upper_bound(rho),
            "closed_form": best.evaluations == 0}


def main() -> int:
    rows = [answer(*r) for r in distinct_reductions()]
    head = json.dumps({"restarts": OPTIONS.restarts, "seed": OPTIONS.seed})[:-1]
    text = head + ', "rows": [\n' + ",\n".join(map(json.dumps, rows)) + "\n]}\n"
    SHEET.write_text(text, encoding="utf-8")
    print(f"wrote {len(rows)} rows to {SHEET}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
