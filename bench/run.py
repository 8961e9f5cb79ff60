#!/usr/bin/env python3
"""The svl benchmark: one closed-loop client against svl's public API.

    python3 bench/run.py --workload maximize-3q --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; svl is imported from its src/
directory and nowhere else.  The run

1. times SETUP_REPEATS fresh interpreters that import svl and build the
   workload's inputs from the seed (setup_s is their median);
2. repeats whole rounds of the workload's calls until --seconds have
   passed (and at least the workload's min_rounds), each call waiting
   for the last, and times a reference kernel every 0.25 s of call time
   to scale the latencies to the host's speed (speed.py);
3. checks every output against independent references, computed after
   the timed loop;
4. prints a details line (environment, tail percentile, accuracy
   summary) and, last, the result object.

With --trace 1 every call runs twice in a row, untraced and then traced
(see tracing.py); the result carries the per-layer metrics and the
tracing overhead (traced minus untraced wall time).  Details and the
recorded spans are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# One BLAS thread: a single closed-loop client on small matrices.
BLAS_THREADS = 1
# Direction pairs per step of the grid reference.  The value does not
# depend on it; 32 keeps the step's arrays in cache and runs the pi/8
# grid in ~1.1 s instead of ~2.8 s at the default 512 (2-vCPU x86-64 VM).
GRID_CHUNK = 32
# Processes that compute the grid references, which take ~2 s each and
# 8 per tradeoff-4q run: after the timed loop, so they race nothing.
GRID_WORKERS = min(2, len(os.sched_getaffinity(0)))

SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import svl
import workloads
workloads.WORKLOADS[sys.argv[3]].inputs(int(sys.argv[4]))
"""

if __name__ == "__main__":
    # Before numpy loads; the set-up interpreters inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing svl and building inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH),
                        workload, str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "git_sha": git_sha(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": platform.machine()}


def timed_call(wl, op, host=None, tracer=None) -> tuple[dict, object]:
    """One closed-loop call: (record with latency and output digest, output).

    With a host, the latency leaves out the kernel samples taken inside
    the call (speed.py)."""
    rec = {"key": op.key, "reductions": op.reductions, "traced": tracer is not None}
    out, error = None, None
    start = time.perf_counter()
    try:
        with host.call() if host else contextlib.nullcontext(), \
                tracer if tracer is not None else contextlib.nullcontext():
            out = wl.call(op)
    except Exception:  # a raising call is a failed operation; keep running
        error = traceback.format_exc(limit=3)
    ms = host.last_ms() if host else (time.perf_counter() - start) * 1e3
    rec.update(ms=ms, digest=None if error else wl.digest(out), error=error)
    return rec, out


def run_rounds(wl, ops, seconds: float, host=None, tracer=None):
    """Whole rounds until `seconds` have passed and at least
    wl.min_rounds are done.  Untraced runs sample the host's speed
    throughout (host); traced runs pair each call with a traced one.

    Returns (records, outputs, wall s).  outputs keeps one output per
    distinct (input, output digest), so the benchmark's own memory does
    not grow with the number of rounds a faster program completes."""
    records, outputs = [], {}
    passes = (None,) if tracer is None else (None, tracer)
    if host:
        host.sample()
    start = time.perf_counter()
    rounds = 0
    while rounds < wl.min_rounds or time.perf_counter() - start < seconds:
        for op in ops:
            for t in passes:
                rec, out = timed_call(wl, op, host, t)
                records.append((op, rec))
                if rec["digest"] is not None:
                    outputs.setdefault((rec["key"], rec["digest"]), out)
        rounds += 1
    wall = time.perf_counter() - start
    if host:
        host.finish()
    return records, outputs, wall


def check_records(wl, records, outputs, refs) -> None:
    """Fill each record's failure reasons and (value, certificate) pairs.

    Equal inputs with equal output digests are checked once."""
    memo = {}
    det = checks.determinism_failures([r["key"] for _, r in records],
                                      [r["digest"] for _, r in records])
    for (op, rec), nondeterministic in zip(records, det):
        if rec["error"] is not None:
            rec["fail"], rec["maxima"] = ["raised: " + rec["error"]], []
            continue
        memo_key = (rec["key"], rec["digest"])
        if memo_key not in memo:
            memo[memo_key] = wl.check(op, outputs[memo_key], refs)
        fails, maxima = memo[memo_key]
        rec["fail"], rec["maxima"] = fails + nondeterministic, maxima


def _grid(rho) -> float:
    import svl
    return svl.svetlichny_grid_search(svl.DensityMatrix(3, rho), checks.GRID_STEP,
                                      chunk=GRID_CHUNK)


def grid_references(wl, records, outputs) -> checks.References:
    """References for the checks, with the pi/8 grids they need computed
    after the timed loop in GRID_WORKERS processes.  A dry run of the
    checks, reading every grid as 0, finds which grids those are."""
    wanted = {}

    def note(rho, step):
        wanted.setdefault(checks.References.key(rho), rho)
        return 0.0

    check_records(wl, records, outputs, checks.References(note))
    with ProcessPoolExecutor(GRID_WORKERS) as pool:
        grids = dict(zip(wanted, pool.map(_grid, wanted.values())))
    return checks.References(lambda rho, step: grids[checks.References.key(rho)])


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(records, ms) -> dict:
    """Reductions per second of call time, median and tail latency."""
    tail_ms, pct, count = stats.tail(ms)
    return {"reductions_per_s": sum(r["reductions"] for _, r in records) / (sum(ms) / 1e3),
            "call_ms.p50": statistics.median(ms), "call_ms.tail": tail_ms,
            "call_ms_tail_percentile": pct, "call_samples": count}


def end_to_end(records, scaled_ms, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics, with call latencies scaled to the host's
    speed (speed.py); the details keep the unscaled timings."""
    t = timings(records, scaled_ms)
    maxima = [pair for _, r in records for pair in r["maxima"]]
    ok = sum(not r["fail"] for _, r in records)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "reductions_per_s": metric(t["reductions_per_s"], "1/s"),
        "call_ms.p50": metric(t["call_ms.p50"], "ms"),
        "call_ms.tail": metric(t["call_ms.tail"], "ms"),
        "ok_share": metric(ok / len(records), "share"),
        "certified_share": metric(
            sum(checks.certified(v, c) for v, c in maxima) / max(len(maxima), 1), "share"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return metrics, {"call_ms_tail_percentile": t["call_ms_tail_percentile"],
                     "call_samples": t["call_samples"],
                     "unscaled": timings(records, [r["ms"] for _, r in records])}


def per_layer(tracer, records, outputs, paired_ms, wl, ops) -> tuple[dict, dict]:
    """Per-layer metrics of the traced calls, and the span-count check."""
    rows = tracing.summarize(tracer.spans)

    def row(name):
        return rows.get(name, {"calls": 0, "self_ms": 0.0, "ms": []})

    traced = [r for _, r in records if r["traced"]]
    reductions = sum(r["reductions"] for r in traced)
    maxima = [best for _, best in tracer.maxima]
    gaps = [checks.bound(checks.tensor(rho.entries)) - best.value
            for rho, best in tracer.maxima]
    restarts = sum(best.restarts for best in maxima)
    evaluations = sum(best.evaluations for best in maxima)
    untraced_ms, traced_ms = paired_ms
    out = {}
    for name in ("svetlichny.maximize_svetlichny", "svetlichny.svetlichny_value",
                 "correlations.correlation_tensor", "qstate.reduce_pure",
                 "qstate.DensityMatrix", "tradeoff.verify_tradeoff", "cli.main"):
        out[f"{name}.calls"] = metric(row(name)["calls"], "count")
        out[f"{name}.self_ms"] = metric(row(name)["self_ms"], "ms")
    mx = row("svetlichny.maximize_svetlichny")["ms"]
    out["svetlichny.maximize_svetlichny.ms.p50"] = metric(
        statistics.median(mx) if mx else 0.0, "ms")
    out["svetlichny.evaluations"] = metric(evaluations, "count")
    out["svetlichny.evals_per_restart"] = metric(evaluations / max(restarts, 1), "count")
    out["svetlichny.converged_share"] = metric(
        sum(best.converged for best in maxima) / max(len(maxima), 1), "share")
    out["svetlichny.gap_to_bound.max"] = metric(max(gaps, default=0.0), "value")
    out["correlations.tensor_per_reduction"] = metric(
        row("correlations.correlation_tensor")["calls"] / max(reductions, 1), "ratio")
    out["correlations.svetlichny_upper_bound.self_ms"] = metric(
        row("correlations.svetlichny_upper_bound")["self_ms"], "ms")
    out["qstate.construct.self_ms"] = metric(
        sum(row(name)["self_ms"] for name in tracing.CONSTRUCT), "ms")
    out["tradeoff.sweep_figure.self_ms"] = metric(row("tradeoff.sweep_figure")["self_ms"], "ms")
    out["cli.stdout_bytes"] = metric(
        sum(len(outputs[r["key"], r["digest"]][1].encode()) for r in traced
            if r["digest"] is not None and wl.name == "tradeoff-4q"), "bytes")
    out["trace.overhead_ms"] = metric(traced_ms - untraced_ms, "ms")
    out["trace.overhead_share"] = metric((traced_ms - untraced_ms) / untraced_ms, "share")

    # Every traced round must show the span counts its inputs imply.
    rounds = len(traced) // len(ops)
    want = {name: rounds * n for name, n in wl.span_counts(ops).items()}
    got = {name: row(name)["calls"] for name in want}
    return out, {"span_counts": got, "span_counts_expected": want,
                 "span_count_ok": got == want, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "svl" / "__init__.py").is_file():
        print(f"bench: no svl sources under {SRC}", file=sys.stderr)
        return 2
    import svl
    if Path(svl.__file__).resolve().parent != SRC / "svl":
        print(f"bench: svl imported from {svl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    setup_s = measure_setup(wl.name, args.seed)
    ops = wl.inputs(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    host = None if tracer else speed.Speed()
    records, outputs, wall = run_rounds(wl, ops, args.seconds, host, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = grid_references(wl, records, outputs)
    check_records(wl, records, outputs, refs)
    failed = sum(bool(r["fail"]) for _, r in records)
    details = {"env": environment(args), "calls": len(records),
               "rounds": len(records) // (len(ops) * (2 if tracer else 1)),
               "loop_s": wall, "grid_references": refs.grids_computed,
               "kernel_ms": host.samples if host else [],
               "call_ms": [[r["key"][:40], r["traced"], r["ms"]] for _, r in records],
               "failures": sorted({f for _, r in records for f in r["fail"]})[:20]}
    if tracer is None:
        metrics, extra = end_to_end(records, host.scaled(), setup_s, peak_rss_mb)
        correct = failed == 0
    else:
        paired = (sum(r["ms"] for _, r in records if not r["traced"]),
                  sum(r["ms"] for _, r in records if r["traced"]))
        metrics, extra = per_layer(tracer, records, outputs, paired, wl, ops)
        correct = failed == 0 and extra["span_count_ok"]
    details.update(extra)
    if wl.maximizes:
        seen, accuracy = set(), []
        for _, r in records:
            if r["key"] not in seen:
                seen.add(r["key"])
                accuracy += [{"key": r["key"], "value": v, "gap_to_4lambda1": c - v}
                             for v, c in r["maxima"]]
        details["accuracy"] = accuracy
        details["gap_to_4lambda1_max"] = max((a["gap_to_4lambda1"] for a in accuracy),
                                             default=None)
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracer is not None:
        with gzip.open(OUT / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump(tracer.spans, fh)
    summary = {k: v for k, v in details.items()
               if k not in ("accuracy", "call_ms", "kernel_ms")}
    print(json.dumps({"details": summary}))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
