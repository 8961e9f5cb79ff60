"""Tests of the benchmark's own code.

    python3 -m pytest bench
"""

import contextlib
import io
import json
import math
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import svl  # noqa: E402
import svl.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = workloads.WORKLOADS[name]

    def keys(seed):
        return [op.key for op in wl.inputs(seed)]

    assert keys(7) == keys(7)
    assert keys(7) != keys(8)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_tail_is_the_maximum_below_ten_samples(n):
    assert stats.tail(range(n, 0, -1)) == (n, 90, n)


@pytest.mark.parametrize("n", [10, 11, 20, 57, 99])
def test_tail_is_p90_below_a_hundred_samples(n):
    value, pct, count = stats.tail(range(1, n + 1))
    assert (pct, count) == (90, n)
    assert value == math.ceil(0.9 * n)


@pytest.mark.parametrize("n", [100, 101, 157, 1000, 4321])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    samples = list(range(1, n + 1))
    value, pct, count = stats.tail(samples)
    assert count == n
    assert sum(s > value for s in samples) >= 10
    # One percentile higher leaves fewer than ten samples beyond.
    assert n - math.ceil((pct + 1) * n / 100) < 10
    if n == 100:
        assert (value, pct) == (90, 90)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 30, 60, 0],     # overlaps a: the overlap counts once
        ["a.inner", 15, 20, 1],
        ["late", 90, 120, 0],  # runs past its parent: only 90..100 counts
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 25, 30, 5, 30]
    rows = tracing.summarize(spans)
    assert rows["root"]["calls"] == 1
    assert rows["a"]["self_ms"] == pytest.approx(25e-6)


def test_each_segment_is_scaled_by_the_samples_at_its_ends():
    host = speed.Speed()
    host.samples = [20.0]
    host.calls = [[(100.0, 0), (300.0, 1)],   # a sample cut this call in two
                  [(50.0, 2)]]                # a short call after a sample
    host.samples += [40.0, 30.0]
    host.finish()                            # brackets the last call
    assert len(host.samples) == 4
    host.samples[-1] = 10.0
    assert host.scaled() == pytest.approx([100.0 * 20 / 30 + 300.0 * 20 / 35,
                                           50.0 * 20 / 20])
    host.finish()                            # the last call is bracketed already
    assert len(host.samples) == 4


def test_samples_inside_a_call_are_not_call_time(monkeypatch):
    monkeypatch.setattr(speed, "EVERY_S", 0.01)
    host = speed.Speed()
    host.sample()
    with host.call():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:     # busy Python code, as in svl
            pass
    segments = host.calls[-1]
    assert len(segments) >= 2 and len(host.samples) == len(segments)
    assert [i for _, i in segments] == list(range(len(segments)))
    assert host.last_ms() < 100.0 + 5.0
    assert host.last_ms() + sum(host.samples[1:]) > 100.0 - 5.0


def test_timings_use_the_scaled_latencies():
    records = [(None, {"reductions": 3, "ms": 1000.0, "fail": [], "maxima": []}),
               (None, {"reductions": 1, "ms": 3000.0, "fail": [], "maxima": []})]
    metrics, details = run.end_to_end(records, [500.0, 1500.0], 0.1, 10.0)
    assert details["unscaled"]["reductions_per_s"] == pytest.approx(1.0)
    assert metrics["reductions_per_s"]["value"] == pytest.approx(2.0)
    assert metrics["call_ms.p50"]["value"] == pytest.approx(1000.0)


def test_value_rules():
    assert checks.value_failures(4.0, 4.0, 4.0) == []
    assert checks.value_failures(4.0, 4.0, None) == []
    above = checks.value_failures(4.0 + 2e-6, 4.0, None)
    below = checks.value_failures(3.9, 4.0, 3.95)
    assert len(above) == 1 and "above" in above[0]
    assert len(below) == 1 and "below" in below[0]
    assert checks.value_failures(4.0 - 5e-10, 4.0, 4.0) == []
    assert checks.certified(4.0 - 5e-10, 4.0)
    assert not checks.certified(4.0 - 2e-9, 4.0)


def test_determinism_flags_later_outputs_that_differ():
    got = checks.determinism_failures(["a", "b", "a", "a", "b"],
                                      ["x", "y", "x", "z", None])
    assert [bool(f) for f in got] == [False, False, False, True, False]


class _Fake:
    """A workload whose outputs are their own failure reasons."""

    name = "fake"

    def digest(self, out):
        return repr(out)

    def check(self, op, out, refs):
        return list(out), [(1.0, 1.0)]


def _record(outputs, key, out=(), error=None):
    digest = None if error else repr(out)
    if digest is not None:
        outputs.setdefault((key, digest), out)
    return (Op(key, None, 1), {"key": key, "reductions": 1, "traced": False,
                               "ms": 1.0, "error": error, "digest": digest})


def test_fail_share_counts_failed_operations():
    outputs = {}
    records = [
        _record(outputs, "ok"),
        _record(outputs, "ok"),                        # same input and output
        _record(outputs, "bad", out=("value above",)),  # a check failed
        _record(outputs, "boom", error="Traceback"),    # raised
        _record(outputs, "ok", out=("changed",)),       # differs from the first
    ]
    run.check_records(_Fake(), records, outputs, None)
    assert [len(r["fail"]) for _, r in records] == [0, 0, 1, 1, 2]
    metrics, _ = run.end_to_end(records, [1.0] * len(records), 0.1, 10.0)
    assert metrics["ok_share"]["value"] == pytest.approx(2 / 5)


def test_grid_references_cover_the_values_below_their_certificate():
    wl = workloads.WORKLOADS["maximize-3q"]
    w_state, mixed = [op for op in wl.inputs(3) if op.key[0] in "wm"][:2]
    outputs = {(w_state.key, "d"): types.SimpleNamespace(value=1.0),
               (mixed.key, "d"): types.SimpleNamespace(value=9.0)}
    records = [(op, {"key": op.key, "digest": "d", "error": None})
               for op in (w_state, mixed)]
    refs = run.grid_references(wl, records, outputs)
    assert refs.grids_computed == 0
    grid = run._grid(w_state.arg.entries)
    assert refs.reference(w_state.arg.entries, False, 1.0) == grid
    assert refs.grids_computed == 1
    run.check_records(wl, records, outputs, refs)
    assert [len(r["fail"]) for _, r in records] == [1, 1]   # below the grid; above 4*lambda1


def _theorem1(seed=3):
    return workloads.WORKLOADS["tradeoff-4q"].inputs(seed)[0]


def _report(op, value=None, satisfied=True):
    theta = op.pin["spec"]["theta"]
    v = 4 * abs(math.cos(2 * theta)) if value is None else value
    rows = [{"keep": list(k), "value": v} for k in
            [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]]
    return json.dumps({"per_reduction": rows, "mode": "sum", "lhs": 4 * v,
                       "satisfied": satisfied})


def test_tradeoff_check_pins_exit_code_verdict_and_bound():
    wl = workloads.WORKLOADS["tradeoff-4q"]
    op = _theorem1()
    refs = checks.References(grid_search=None)
    assert wl.check(op, (0, _report(op)), refs)[0] == []
    assert any("exit code" in f for f in wl.check(op, (4, _report(op)), refs)[0])
    assert any("verdict" in f
               for f in wl.check(op, (0, _report(op, satisfied=False)), refs)[0])
    assert any("above" in f
               for f in wl.check(op, (0, _report(op, value=6.0)), refs)[0])
    assert any("unreadable" in f for f in wl.check(op, (0, "not json"), refs)[0])


def test_tradeoff_check_accepts_the_real_cli_output():
    wl = workloads.WORKLOADS["tradeoff-4q"]
    op = _theorem1()
    fails, maxima = wl.check(op, wl.call(op), checks.References(grid_search=None))
    assert fails == []
    assert len(maxima) == 4


def test_bounds_check_agrees_with_the_library_on_a_small_state():
    wl = workloads.WORKLOADS["bounds-nq"]
    ops = [op for op in wl.inputs(5) if op.arg[1] <= 6]
    for op in ops:
        fails, pairs = wl.check(op, wl.call(op), None)
        assert fails == []
        assert len(pairs) == op.reductions


def test_tracer_wraps_every_binding_and_restores_them():
    names = ("maximize_svetlichny", "reduce_pure", "svetlichny_upper_bound")
    before = {(mod, n): getattr(mod, n)
              for mod in (svl, svl.tradeoff, svl.cli) for n in names
              if hasattr(mod, n)}
    tracer = tracing.Tracer()
    with tracer:
        for (mod, n), fn in before.items():
            assert getattr(mod, n) is not fn
            assert getattr(mod, n).__wrapped__ is fn
        with contextlib.redirect_stdout(io.StringIO()):
            code = svl.cli.main(["bound", "--state",
                                 '{"family":"GGHZ","n":4,"theta":0.3}',
                                 "--reduce", "0,1,2"])
    assert code == 0
    assert all(getattr(mod, n) is fn for (mod, n), fn in before.items())
    by_name = {s[0]: s for s in tracer.spans}
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1
    assert by_name["qstate.reduce_pure"][3] == 0
    bound_idx = tracer.spans.index(by_name["correlations.svetlichny_upper_bound"])
    tensor_spans = [s for s in tracer.spans if s[0] == "correlations.correlation_tensor"]
    assert [s[3] for s in tensor_spans] == [bound_idx]
