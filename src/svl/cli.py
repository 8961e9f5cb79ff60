"""Command-line interface.

Verbs: state, reduce, bound, maximize, tensor, tradeoff, figure.
Each verb takes only the flags it reads.
Angles are radians unless --degrees is given.  Exit codes: 0 success,
2 argument error, 3 domain error (for example unnormalized
coefficients), 4 unconverged optimization unless --allow-unconverged
is set.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import re
import sys

from .correlations import chsh_max, correlation_tensor, svetlichny_upper_bound
from .errors import DomainError, InvalidArityError, NormalizationError
from .qstate import DensityMatrix, StateSpec, _real, reduce_pure
from .svetlichny import OptimizerOptions, maximize_svetlichny
from .tradeoff import _BOUND_RULES, _FIGURE_RULES, sweep_figure, verify_tradeoff

__all__ = ["main", "build_parser"]


class _ArgumentError(Exception):
    """Raised for argument problems detected after parsing."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, tuple):  # a tradeoff keep: one field, which csv quotes
        return ",".join(map(str, x))
    return str(x)


def _fields(record) -> dict:
    """A result record's fields by name, in order: its JSON object."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The svl argument parser, built once per process."""
    # One parent parser per group of flags, given only to the verbs that read them.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default json; tensor and figure: csv)")
    output.add_argument("--output", default=None,
                        help="output path (default stdout)")

    state = argparse.ArgumentParser(add_help=False)
    group = state.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="state spec as a JSON string")
    group.add_argument("--state-file", help="path to a state spec JSON file")
    state.add_argument("--degrees", action="store_true",
                       help="interpret angle parameters as degrees")

    optimizer = argparse.ArgumentParser(add_help=False)
    optimizer.add_argument("--seed", type=int, default=OptimizerOptions.seed,
                           help="non-negative seed for all randomized restarts "
                                "(default %(default)s)")
    optimizer.add_argument("--restarts", type=int, default=OptimizerOptions.restarts,
                           help="cap on optimizer restarts, run 8 at a time until two "
                                "reach the best value (default %(default)s)")
    optimizer.add_argument("--allow-unconverged", action="store_true",
                           help="exit 0 even when the optimizer did not converge")

    def reading(parser, rule, run) -> None:
        """Start parser at run and the rule's first reading.  A rule with
        two readings takes its own --variant: argparse parents share their
        actions, whose default each set_defaults rewrites."""
        if len(rule.variants) > 1:
            parser.add_argument("--variant", choices=rule.variants, default=rule.variants[0],
                                help="reading of the asymmetric printed formulas")
        parser.set_defaults(variant=rule.variants[0], run=run)

    p = argparse.ArgumentParser(
        prog="svl",
        description="Svetlichny values, spectral bounds, and trade-off checks "
                    "for three-qubit reductions of multi-qubit states.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    ps = sub.add_parser("state", parents=[output, state],
                        help="emit the state's amplitudes as a reusable CUSTOM spec")
    ps.set_defaults(run=_run_state)

    pr = sub.add_parser("reduce", parents=[output, state],
                        help="partial trace onto the kept qubits")
    pr.add_argument("--reduce", required=True, metavar="I,J,...",
                    help="comma-separated kept qubit indices")
    pr.set_defaults(run=_run_reduce)

    pb = sub.add_parser("bound", parents=[output, state],
                        help="4*lambda1 bound (3 qubits) or CHSH maximum (2 qubits)")
    pb.add_argument("--reduce", metavar="I,J,...",
                    help="reduce onto these qubits first")
    pb.set_defaults(run=_run_bound)

    pm = sub.add_parser("maximize", parents=[output, state, optimizer],
                        help="maximize the Svetlichny value over all settings")
    pm.add_argument("--reduce", metavar="I,J,K",
                    help="reduce onto these three qubits first")
    pm.set_defaults(run=_run_maximize)

    px = sub.add_parser("tensor", parents=[output, state],
                        help="triple-Pauli correlation tensor of a 3-qubit state")
    px.add_argument("--reduce", metavar="I,J,K",
                    help="reduce onto these three qubits first")
    px.set_defaults(run=_run_tensor)

    # One sub-parser per bound and per figure.
    bounds = sub.add_parser(
        "tradeoff", help="check one trade-off bound against maximization").add_subparsers(
        dest="bound", required=True)
    for name, rule in _BOUND_RULES.items():
        reading(bounds.add_parser(name, parents=[output, state, optimizer]), rule, _run_tradeoff)

    figures = sub.add_parser("figure", help="tabulate a figure's curves").add_subparsers(
        dest="figure", required=True)
    for name, rule in _FIGURE_RULES.items():
        pf = figures.add_parser(name, parents=[output] + [optimizer] * rule.optimized)
        reading(pf, rule, _run_figure)
        pf.add_argument("--points", type=int, default=181, help="grid points (default 181)")
    return p


def _load_spec(args) -> StateSpec:
    if args.state_file is not None:
        with open(args.state_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.state
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an overlong int or too deep nesting
        raise _ArgumentError(f"malformed state JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _ArgumentError("state JSON must be an object")
    if args.degrees and "theta" in data:
        data = dict(data)
        data["theta"] = math.radians(_real("theta", data["theta"]))
    return StateSpec.from_dict(data)


def _opts(args) -> OptimizerOptions:
    return OptimizerOptions(restarts=args.restarts, seed=args.seed)


def _reduced_density(args, sizes: tuple[int, ...] | None = None) -> DensityMatrix:
    """The spec's state reduced onto --reduce, on one of sizes qubits if given."""
    spec = _load_spec(args)
    keep = tuple(range(spec.num_qubits))
    if args.reduce is not None:
        try:
            keep = tuple(int(part) for part in args.reduce.split(","))
        except ValueError as exc:
            raise _ArgumentError(f"bad index list {args.reduce!r}") from exc
    if sizes is not None and len(keep) not in sizes:
        raise _ArgumentError(
            f"{args.verb} needs a {'- or '.join(map(str, sizes))}-qubit state, "
            f"got {len(keep)} qubits; use --reduce")
    return reduce_pure(spec.to_pure(), keep)


# Each runner returns (json payload or record, csv columns, csv rows, converged).

def _run_state(args):
    psi = _load_spec(args).to_pure()
    rows = [(k, float(c.real), float(c.imag)) for k, c in enumerate(psi.amplitudes)]
    payload = {"family": "CUSTOM", "n": psi.num_qubits,
               "amplitudes": [[re, im] for _, re, im in rows]}
    return payload, ("index", "real", "imag"), rows, True


def _run_reduce(args):
    rho = _reduced_density(args)
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in rho.entries]
    rows = [(i, j, re, im) for i, row in enumerate(entries)
            for j, (re, im) in enumerate(row)]
    return ({"n": rho.num_qubits, "entries": entries},
            ("row", "col", "real", "imag"), rows, True)


def _run_bound(args):
    rho = _reduced_density(args, sizes=(2, 3))
    if rho.num_qubits == 3:
        kind, value = "svetlichny_4lambda1", svetlichny_upper_bound(rho)
    else:
        kind, value = "chsh_horodecki", chsh_max(rho)
    return {"kind": kind, "value": value}, ("kind", "value"), [(kind, value)], True


def _run_maximize(args):
    best = maximize_svetlichny(_reduced_density(args, sizes=(3,)), _opts(args))
    row = _fields(best)
    del row["settings"]
    return best, tuple(row), [tuple(row.values())], best.converged


def _run_tensor(args):
    m = correlation_tensor(_reduced_density(args, sizes=(3,))).m
    # Pauli indices are reported 1-based (1=x, 2=y, 3=z).
    rows = [(i + 1, j + 1, k + 1, float(m[i, j, k]))
            for i in range(3) for j in range(3) for k in range(3)]
    payload = [{"i": i, "j": j, "k": k, "value": v} for i, j, k, v in rows]
    return payload, ("i", "j", "k", "value"), rows, True


def _run_tradeoff(args):
    report = verify_tradeoff(_load_spec(args), args.bound, _opts(args), variant=args.variant)
    cols = (*_fields(report.per_reduction[0]), "lhs", "rhs", "satisfied")  # never empty
    rows = ((*_fields(r).values(), report.lhs, report.rhs, report.satisfied)
            for r in report.per_reduction)  # built only when csv is written
    return report, cols, rows, report.converged


def _run_figure(args):
    opts = _opts(args) if _FIGURE_RULES[args.figure].optimized else None
    cols, rows, converged = sweep_figure(args.figure, args.points, opts, args.variant)
    return [dict(zip(cols, row)) for row in rows], cols, rows, converged


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a keep such as -1,2 as a flag; joined to --reduce it
    # reaches the keep check.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--reduce" and re.match(r"-\d", argv[i + 1]):
            argv[i:i + 2] = [f"--reduce={argv[i + 1]}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    fmt = args.format or ("csv" if args.verb in ("tensor", "figure") else "json")
    try:
        payload, columns, rows, converged = args.run(args)
        if fmt == "json":
            text = json.dumps(payload, default=_fields) + "\n"
        else:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(map(_fmt, r) for r in [columns, *rows])
            text = buf.getvalue()
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (_ArgumentError, IndexError, OSError, UnicodeDecodeError) as exc:  # keep, file I/O
        print(f"svl: {exc}", file=sys.stderr)
        return 2
    except (NormalizationError, DomainError, InvalidArityError) as exc:
        print(f"svl: {exc}", file=sys.stderr)
        return 3
    # Only the optimizer verbs, which have --allow-unconverged, report False.
    return 0 if converged or args.allow_unconverged else 4


if __name__ == "__main__":
    raise SystemExit(main())
