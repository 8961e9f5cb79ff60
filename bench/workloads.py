"""Seeded inputs, the timed user calls and the output checks of each workload.

A workload turns a seed into one round of operations.  The timed loop
repeats whole rounds, so every run measures the same mix of calls
whatever the seed; the seed moves only the parameters inside the mix.
One operation is one top-level user call: a maximize_svetlichny call
(maximize-3q), an in-process CLI invocation (tradeoff-4q) or one
n-qubit state's bound sweep (bounds-nq).  Calls resolve svl's
functions through the package at call time, so the tracer's wrappers
see every one of them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

import svl
import svl.cli

import checks


@dataclass(frozen=True)
class Op:
    key: str         # the input as text: equal keys mean equal inputs
    arg: object      # what the workload's call() takes
    reductions: int  # three-qubit reductions the call maximizes or bounds
    pin: dict = field(default_factory=dict)  # expected outcome


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _random_mixed(rng) -> np.ndarray:
    """The random full-rank generator of acceptance criterion 09."""
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = g @ g.conj().T
    return m / np.trace(m).real


class Maximize3q:
    """64-restart maximize_svetlichny calls on GHZ, GGHZ, W and two
    random mixed states."""

    name = "maximize-3q"
    maximizes = True
    min_rounds = 1
    OPTS = svl.OptimizerOptions(restarts=64)   # the CLI default budget

    def inputs(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        theta = float(rng.uniform(math.pi / 8, 3 * math.pi / 8))
        # Two random mixed states: the slower one sets the tail, and its
        # cost varies less from seed to seed than that of a single one.
        # The median is usually the W call, whose input the seed does not
        # move.
        states = [
            ("ghz", svl.to_density(svl.make_gghz(3, math.pi / 4)), True),
            ("gghz", svl.to_density(svl.make_gghz(3, theta)), True),
            ("w", svl.to_density(svl.make_dicke(3, 2)), False),
            ("mixed", svl.DensityMatrix(3, _random_mixed(rng)), False),
            ("mixed", svl.DensityMatrix(3, _random_mixed(rng)), False),
        ]
        return [Op(f"{label}:{_digest(rho.entries.tobytes())}", rho, 1,
                   {"ghz_type": ghz_type})
                for label, rho, ghz_type in states]

    def call(self, op: Op):
        return svl.maximize_svetlichny(op.arg, self.OPTS)

    def digest(self, out) -> str:
        return _digest(repr((out.value, out.converged, out.evaluations,
                             out.settings.angles().tolist())))

    def check(self, op: Op, out, refs: checks.References):
        rho = op.arg.entries
        upper = refs.upper(rho)
        ref = refs.reference(rho, op.pin["ghz_type"], out.value)
        return checks.value_failures(out.value, upper, ref), [(out.value, upper)]

    def span_counts(self, ops) -> dict[str, int]:
        k = len(ops)
        return {"svetlichny.maximize_svetlichny": k,
                "svetlichny.svetlichny_value": k,
                "correlations.correlation_tensor": k,
                "qstate.DensityMatrix": 0}


FIG4_POINTS = 3
FIG4_COLUMNS = ["gamma", "sq_value_abc", "sq_value_acd", "sq_sum",
                "sum_squares_bound"]
_WCLASS_KEYS = ("alpha", "beta", "gamma", "delta", "lambda")


def _wclass(coeffs) -> dict:
    return {"family": "WCLASS", **dict(zip(_WCLASS_KEYS, map(float, coeffs)))}


def _fig4_spec(gamma: float) -> dict:
    return _wclass((0.0, 0.0, gamma, math.sqrt(max(1.0 - gamma * gamma, 0.0)), 0.0))


class Tradeoff4q:
    """`svl tradeoff <bound> --restarts 8` and `svl figure FIG4` in process."""

    name = "tradeoff-4q"
    maximizes = True
    min_rounds = 1
    RESTARTS = "8"   # the acceptance-scan budget

    def _tradeoff(self, bound: str, spec: dict, satisfied: bool) -> Op:
        wclass = spec["family"] == "WCLASS"
        argv = ["tradeoff", bound, "--state", json.dumps(spec), "--restarts", self.RESTARTS]
        if wclass:
            # Nelder-Mead does not reliably converge on W-class
            # reductions; convergence is reported by the trace, and the
            # pinned exit code stays 0.
            argv.append("--allow-unconverged")
        n = spec.get("n", 4)
        return Op(" ".join(argv), argv, comb(n, 3),
                  {"code": 0, "satisfied": satisfied, "spec": spec, "n": n,
                   "ghz_type": spec["family"] == "GGHZ"})

    def inputs(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        pi = math.pi

        def theta(lo, hi):
            return float(rng.uniform(lo, hi))

        w5 = np.abs(rng.normal(size=5))
        w4 = rng.normal(size=4)
        # sin 2t < 0: the attainable values exceed the bound as stated.
        violated = self._tradeoff(
            "theorem2", {"family": "MS", "n": 4, "theta": theta(0.6 * pi, 0.9 * pi)}, False)
        fig = ["figure", "FIG4", "--points", str(FIG4_POINTS), "--restarts", self.RESTARTS]
        # Determinism: one argv three times in every round.  Its input
        # does not move with the seed and its cost sits near the middle
        # of the round, between the n=4 calls and the slower n=5, W-class
        # and FIG4 calls, so the median latency is usually one of its
        # runs; a median that fell between seeded calls of different
        # kinds spread by 0.21 of its value over eight seeds.
        fixed = self._tradeoff("corollary1", {"family": "GGHZ", "n": 5, "theta": pi / 8}, True)
        return [
            self._tradeoff("theorem1", {"family": "GGHZ", "n": 4, "theta": theta(0, pi / 2)}, True),
            self._tradeoff("corollary1", {"family": "GGHZ", "n": 5, "theta": theta(0, pi / 2)}, True),
            self._tradeoff("theorem2", {"family": "MS", "n": 4, "theta": theta(1.1 * pi, 1.4 * pi)}, True),
            violated,
            self._tradeoff("corollary2", {"family": "MS", "n": 5, "theta": theta(0.6 * pi, 0.9 * pi)}, True),
            self._tradeoff("theorem3", _wclass(w5 / np.linalg.norm(w5)), True),
            self._tradeoff("eqn3p", _wclass(np.append(w4 / np.linalg.norm(w4), 0.0)), True),
            Op(" ".join(fig), fig, 4 * FIG4_POINTS, {"code": 0, "satisfied": True}),
            fixed,
            fixed,
            fixed,
        ]

    def call(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = svl.cli.main(op.arg)
        return code, out.getvalue()

    def digest(self, out) -> str:
        return _digest(f"{out[0]}\n{out[1]}")

    def check(self, op: Op, out, refs: checks.References):
        code, text = out
        fails = []
        if code != op.pin["code"]:
            fails.append(f"exit code {code}, pinned {op.pin['code']}")
        try:
            if op.arg[0] == "figure":
                more, maxima = self._check_fig4(text, refs)
            else:
                more, maxima = self._check_report(op, json.loads(text), refs)
        except (ValueError, KeyError, TypeError) as exc:
            return fails + [f"unreadable output: {exc!r}"], []
        return fails + more, maxima

    def _check_report(self, op: Op, report: dict, refs):
        pin, n = op.pin, op.pin["n"]
        fails, maxima = [], []
        rows = report["per_reduction"]
        if [tuple(r["keep"]) for r in rows] != list(combinations(range(n), 3)):
            fails.append("per_reduction does not list every reduction in order")
        amps = checks.amplitudes(pin["spec"]["family"], n, pin["spec"])
        for r in rows:
            rho = checks.reduce(amps, n, tuple(r["keep"]))
            upper = refs.upper(rho)
            fails += checks.value_failures(
                r["value"], upper, refs.reference(rho, pin["ghz_type"], r["value"]))
            maxima.append((r["value"], upper))
        power = 1 if report["mode"] == "sum" else 2
        lhs = sum(r["value"] ** power for r in rows)
        if abs(lhs - report["lhs"]) > 1e-9 * max(1.0, abs(lhs)):
            fails.append(f"lhs {report['lhs']!r} is not the aggregate {lhs!r}")
        if report["satisfied"] is not pin["satisfied"]:
            fails.append(f"verdict satisfied={report['satisfied']}, pinned {pin['satisfied']}")
        return fails, maxima

    def _check_fig4(self, text: str, refs):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != FIG4_COLUMNS or len(rows) != FIG4_POINTS + 1:
            return [f"FIG4 table has header {rows[:1]} and {len(rows) - 1} rows"], []
        fails, maxima = [], []
        for i, row in enumerate(rows[1:]):
            gamma, sq_abc, sq_acd, sq_sum, cap = map(float, row)
            spec = _fig4_spec(i / (FIG4_POINTS - 1))
            if abs(gamma - spec["gamma"]) > 1e-12:
                fails.append(f"FIG4 row {i} at gamma {gamma!r}")
            amps = checks.amplitudes("WCLASS", 4, spec)
            uppers = [refs.upper(checks.reduce(amps, 4, keep))
                      for keep in combinations(range(4), 3)]
            for keep, sq in (((0, 1, 2), sq_abc), ((0, 2, 3), sq_acd)):
                rho = checks.reduce(amps, 4, keep)
                value = math.sqrt(sq)
                upper = refs.upper(rho)
                fails += checks.value_failures(value, upper,
                                               refs.reference(rho, False, value))
                maxima.append((value, upper))
            if sq_sum > sum(u * u for u in uppers) + checks.ABOVE_TOL:
                fails.append(f"FIG4 sq_sum {sq_sum!r} above the summed squared certificates")
            g2, d2 = spec["gamma"] ** 2, spec["delta"] ** 2
            if abs(cap - 64.0 * (1.0 + 2.0 * g2 * d2)) > 1e-9:
                fails.append(f"FIG4 bound {cap!r} is not 64(1 + 2 g^2 d^2)")
            if sq_sum > cap + checks.SATISFIED_TOL:
                fails.append(f"FIG4 sq_sum {sq_sum!r} exceeds the bound {cap!r}")
        return fails, maxima

    def span_counts(self, ops) -> dict[str, int]:
        red = sum(op.reductions for op in ops)
        figs = [op for op in ops if op.arg[0] == "figure"]
        return {"cli.main": len(ops),
                "tradeoff.verify_tradeoff": len(ops) - len(figs) + FIG4_POINTS * len(figs),
                "tradeoff.sweep_figure": len(figs),
                "svetlichny.maximize_svetlichny": red,
                "qstate.reduce_pure": red,
                "qstate.DensityMatrix": red,
                "correlations.correlation_tensor": 2 * red,
                "correlations.svetlichny_upper_bound": red}


class BoundsNq:
    """Build GGHZ, MS and Dicke states of 4 to 16 qubits, then reduce,
    tensor and bound every three-qubit reduction; no optimizer."""

    name = "bounds-nq"
    maximizes = False
    # A round holds two 16-qubit sweeps (MS, Dicke) that take ~1 s under
    # glibc's default allocator, against ~0.4 s for the GGHZ one and less
    # for every smaller state (2-vCPU x86-64 VM).  The tail reads the
    # 11th or 12th slowest call, which sits between those groups below
    # six rounds and jumps from run to run; seven rounds keep it in the
    # slow group.
    min_rounds = 7
    FAMILIES = ("GGHZ", "MS", "DICKE")
    SIZES = range(4, 17)

    def inputs(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        ops = []
        for n in self.SIZES:
            for family in self.FAMILIES:
                if family == "DICKE":
                    params = {"m": n // 2}
                else:
                    params = {"theta": float(rng.uniform(0.0, 2.0 * math.pi))}
                ops.append(Op(json.dumps([family, n, params]), (family, n, params),
                              comb(n, 3)))
        return ops

    def call(self, op: Op):
        family, n, params = op.arg
        if family == "GGHZ":
            psi = svl.make_gghz(n, params["theta"])
        elif family == "MS":
            psi = svl.make_ms(n, params["theta"])
        else:
            psi = svl.make_dicke(n, params["m"])
        count = comb(n, 3)
        tensors = np.empty((count, 3, 3, 3))
        bounds = np.empty(count)
        for i, keep in enumerate(combinations(range(n), 3)):
            rho = svl.reduce_pure(psi, keep)
            tensors[i] = svl.correlation_tensor(rho).m
            bounds[i] = svl.svetlichny_upper_bound(rho)
        return tensors, bounds

    def digest(self, out) -> str:
        return _digest(out[0].tobytes() + out[1].tobytes())

    def check(self, op: Op, out, refs: checks.References):
        family, n, params = op.arg
        tensors, bounds = out
        amps = checks.amplitudes(family, n, params)
        want = np.array([checks.tensor(checks.reduce(amps, n, keep))
                         for keep in combinations(range(n), 3)])
        fails = []
        worst = float(np.max(np.abs(tensors - want)))
        if worst > checks.BELOW_TOL:
            fails.append(f"correlation tensor off the oracle by {worst!r}")
        uppers = [checks.bound(m) for m in want]
        for got, upper in zip(bounds, uppers):
            if abs(got - upper) > checks.BELOW_TOL:
                fails.append(f"4*lambda1 {got!r}, oracle {upper!r}")
        return fails, list(zip(bounds.tolist(), uppers))

    def span_counts(self, ops) -> dict[str, int]:
        red = sum(op.reductions for op in ops)
        per_family = {f: sum(op.arg[0] == f for op in ops) for f in self.FAMILIES}
        return {"qstate.reduce_pure": red,
                "qstate.DensityMatrix": red,
                "correlations.correlation_tensor": 2 * red,
                "correlations.svetlichny_upper_bound": red,
                "qstate.make_gghz": per_family["GGHZ"],
                "qstate.make_ms": per_family["MS"],
                "qstate.make_dicke": per_family["DICKE"]}


WORKLOADS = {w.name: w for w in (Maximize3q(), Tradeoff4q(), BoundsNq())}
