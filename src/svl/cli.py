"""Command-line interface.

Verbs: state, reduce, bound, maximize, tensor, tradeoff, figure.
Angles are radians unless --degrees is given.  Exit codes: 0 success,
2 argument error, 3 domain error (for example unnormalized
coefficients), 4 unconverged optimization unless --allow-unconverged
is set.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .config import OptimizerOptions
from .correlations import chsh_max, correlation_tensor, svetlichny_upper_bound
from .errors import DomainError, InvalidArityError, NormalizationError
from .qstate import DensityMatrix, StateSpec, _real, reduce_pure
from .svetlichny import maximize_svetlichny
from .tradeoff import BOUND_NAMES, FIGURES, VARIANTS, sweep_figure, verify_tradeoff

__all__ = ["main", "build_parser"]


class _ArgumentError(Exception):
    """Raised for argument problems detected after parsing."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=42,
                        help="seed for all randomized restarts (default 42)")
    common.add_argument("--restarts", type=int, default=64,
                        help="optimizer restarts (default 64)")
    common.add_argument("--max-iter", type=int, default=2000,
                        help="iteration cap per restart (default 2000)")
    common.add_argument("--tol", type=float, default=1e-10,
                        help="simplex convergence diameter (default 1e-10)")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default json; figure defaults to csv)")
    common.add_argument("--output", default=None,
                        help="output path (default stdout)")
    common.add_argument("--variant", choices=VARIANTS, default="verbatim",
                        help="reading of the asymmetric printed formulas")
    common.add_argument("--degrees", action="store_true",
                        help="interpret angle parameters as degrees")
    common.add_argument("--allow-unconverged", action="store_true",
                        help="exit 0 even when the optimizer did not converge")

    state_opts = argparse.ArgumentParser(add_help=False)
    group = state_opts.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="state spec as a JSON string")
    group.add_argument("--state-file", help="path to a state spec JSON file")

    p = argparse.ArgumentParser(
        prog="svl",
        description="Svetlichny values, spectral bounds, and trade-off checks "
                    "for three-qubit reductions of multi-qubit states.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    sub.add_parser("state", parents=[common, state_opts],
                   help="emit the state's amplitudes as a reusable CUSTOM spec")

    pr = sub.add_parser("reduce", parents=[common, state_opts],
                        help="partial trace onto the kept qubits")
    pr.add_argument("--reduce", required=True, metavar="I,J,...",
                    help="comma-separated kept qubit indices")

    pb = sub.add_parser("bound", parents=[common, state_opts],
                        help="4*lambda1 bound (3 qubits) or CHSH maximum (2 qubits)")
    pb.add_argument("--reduce", metavar="I,J,...",
                    help="reduce onto these qubits first")

    pm = sub.add_parser("maximize", parents=[common, state_opts],
                        help="maximize the Svetlichny value over all settings")
    pm.add_argument("--reduce", metavar="I,J,K",
                    help="reduce onto these three qubits first")

    px = sub.add_parser("tensor", parents=[common, state_opts],
                        help="triple-Pauli correlation tensor of a 3-qubit state")
    px.add_argument("--reduce", metavar="I,J,K",
                    help="reduce onto these three qubits first")

    pt = sub.add_parser("tradeoff", parents=[common, state_opts],
                        help="check one trade-off bound against maximization")
    pt.add_argument("bound", choices=BOUND_NAMES)

    pf = sub.add_parser("figure", parents=[common],
                        help="tabulate a figure's curves")
    pf.add_argument("figure", choices=FIGURES)
    pf.add_argument("--points", type=int, default=181,
                    help="grid points (default 181)")
    return p


def _load_spec(args) -> StateSpec:
    if getattr(args, "state_file", None):
        with open(args.state_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.state
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer literal too long to convert
        raise _ArgumentError(f"malformed state JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _ArgumentError("state JSON must be an object")
    if args.degrees and "theta" in data:
        data = dict(data)
        data["theta"] = math.radians(_real("theta", data["theta"]))
    return StateSpec.from_dict(data)


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        idx = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _ArgumentError(f"bad index list {text!r}") from exc
    if not idx:
        raise _ArgumentError("index list must be nonempty")
    return idx


def _opts(args) -> OptimizerOptions:
    return OptimizerOptions(restarts=args.restarts, max_iter=args.max_iter,
                            tol=args.tol, seed=args.seed)


def _reduced_density(args, sizes: tuple[int, ...] | None = None) -> DensityMatrix:
    """The spec's state reduced onto --reduce, on one of sizes qubits if given."""
    spec = _load_spec(args)
    reduce = getattr(args, "reduce", None)
    if reduce is not None:
        keep = _parse_indices(reduce)
    else:
        keep = tuple(range(spec.num_qubits))
    try:
        rho = reduce_pure(spec.to_pure(), keep)
    except IndexError as exc:
        raise _ArgumentError(str(exc)) from exc
    if sizes is not None and rho.num_qubits not in sizes:
        raise _ArgumentError(
            f"{args.verb} needs a {'- or '.join(map(str, sizes))}-qubit state, "
            f"got {rho.num_qubits} qubits; use --reduce")
    return rho


# Each runner returns (json payload, csv columns, csv rows, exit code).

def _run_state(args):
    psi = _load_spec(args).to_pure()
    rows = [(k, float(c.real), float(c.imag)) for k, c in enumerate(psi.amplitudes)]
    payload = {"family": "CUSTOM", "n": psi.num_qubits,
               "amplitudes": [[re, im] for _, re, im in rows]}
    return payload, ("index", "real", "imag"), rows, 0


def _run_reduce(args):
    rho = _reduced_density(args)
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in rho.entries]
    rows = [(i, j, re, im) for i, row in enumerate(entries)
            for j, (re, im) in enumerate(row)]
    return ({"n": rho.num_qubits, "entries": entries},
            ("row", "col", "real", "imag"), rows, 0)


def _run_bound(args):
    rho = _reduced_density(args, sizes=(2, 3))
    if rho.num_qubits == 3:
        kind, value = "svetlichny_4lambda1", svetlichny_upper_bound(rho)
    else:
        kind, value = "chsh_horodecki", chsh_max(rho)
    return {"kind": kind, "value": value}, ("kind", "value"), [(kind, value)], 0


def _run_maximize(args):
    best = maximize_svetlichny(_reduced_density(args, sizes=(3,)), _opts(args))
    payload = {
        "value": best.value,
        "converged": best.converged,
        "restarts": best.restarts,
        "evaluations": best.evaluations,
        "settings": best.settings.to_dict(),
    }
    code = 0 if best.converged or args.allow_unconverged else 4
    rows = [(best.value, best.converged, best.restarts, best.evaluations)]
    return payload, ("value", "converged", "restarts", "evaluations"), rows, code


def _run_tensor(args):
    m = correlation_tensor(_reduced_density(args, sizes=(3,))).m
    # Pauli indices are reported 1-based (1=x, 2=y, 3=z).
    rows = [(i + 1, j + 1, k + 1, float(m[i, j, k]))
            for i in range(3) for j in range(3) for k in range(3)]
    payload = [{"i": i, "j": j, "k": k, "value": v} for i, j, k, v in rows]
    return payload, ("i", "j", "k", "value"), rows, 0


def _run_tradeoff(args):
    report = verify_tradeoff(_load_spec(args), args.bound, _opts(args),
                             variant=args.variant)
    code = 0 if report.converged or args.allow_unconverged else 4
    rows = [(",".join(map(str, r.keep)), r.value, r.upper_bound, r.converged,
             report.lhs, report.rhs, report.satisfied)
            for r in report.per_reduction]
    cols = ("keep", "value", "upper_bound_4lambda1", "converged",
            "lhs", "rhs", "satisfied")
    return report.to_dict(), cols, rows, code


def _run_figure(args):
    cols, rows = sweep_figure(args.figure, args.points, _opts(args),
                              variant=args.variant)
    return [dict(zip(cols, row)) for row in rows], cols, rows, 0


_RUNNERS = {
    "state": _run_state,
    "reduce": _run_reduce,
    "bound": _run_bound,
    "maximize": _run_maximize,
    "tensor": _run_tensor,
    "tradeoff": _run_tradeoff,
    "figure": _run_figure,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    fmt = args.format or ("csv" if args.verb in ("tensor", "figure") else "json")
    try:
        payload, columns, rows, code = _RUNNERS[args.verb](args)
        if fmt == "json":
            text = json.dumps(payload) + "\n"
        else:
            lines = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
            text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (_ArgumentError, OSError, UnicodeDecodeError) as exc:  # --state-file, --output
        print(f"svl: {exc}", file=sys.stderr)
        return 2
    except (NormalizationError, DomainError, InvalidArityError, IndexError) as exc:
        print(f"svl: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
