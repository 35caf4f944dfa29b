"""Invariant layer for the tracing subsystem (``-m observability``).

Three families of guarantees:

* **metamorphic algebra** (hypothesis): on randomly generated span trees
  with integer charges satisfying ``span <= work`` per charge, the tracer
  reproduces the cost model's composition laws exactly — child work sums
  to parent work, ``span <= work`` everywhere, and a parallel region's
  span is the max of its branch spans (work still sums);
* **ledger bit-match** on real solves: across 50 random graphs the trace
  root totals equal ``res.cost``, the caller's ``CostAccumulator``, and
  the per-stage span sums equal the ``acc.stages`` buckets that feed the
  A4 breakdown — and the span structure matches ``ScalingStats``
  (scales, iterations, methods) and the certificate;
* **exporters**: JSONL round-trips losslessly, the Chrome trace is a
  valid ``traceEvents`` document, and tracing disabled is a no-op that
  leaves results bit-identical.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tracetables import (
    STAGE_SPAN_NAMES,
    trace_cost_breakdown,
    trace_phase_table,
)
from repro.core.sssp import solve_sssp, solve_sssp_resilient
from repro.graph.generators import (
    hidden_potential_graph,
    planted_negative_cycle_graph,
    random_digraph,
)
from repro.observability import (
    NOOP_SPAN,
    Trace,
    Tracer,
    current_tracer,
    load_trace,
    phase_sequence,
    stitch_traces,
    trace_event,
    trace_span,
    tracing,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.observability.tracer import Span
from repro.runtime.metrics import CostAccumulator

pytestmark = pytest.mark.observability


# ---------------------------------------------------------------------------
# metamorphic algebra (hypothesis)
# ---------------------------------------------------------------------------

# an integer charge with span <= work (floats stay exact: integer-valued
# doubles add without rounding)
charges = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(0, 1000)).map(
        lambda t: (max(t), min(t))),
    max_size=5)

span_trees = st.recursive(
    st.fixed_dictionaries({"charges": charges}),
    lambda kids: st.fixed_dictionaries({
        "charges": charges,
        "children": st.lists(kids, min_size=1, max_size=3),
        "parallel": st.booleans(),
    }),
    max_leaves=12)


def _run_tree(node: dict, acc: CostAccumulator) -> tuple[float, float]:
    """Execute a span-tree spec; returns its exact (work, span) totals."""
    with trace_span("node", acc=acc):
        work = span = 0.0
        for w, s in node["charges"]:
            acc.charge(w, span=s)
            work += w
            span += s
        children = node.get("children", [])
        if children and node.get("parallel"):
            branches = []
            totals = []
            for child in children:
                b = acc.fork()
                totals.append(_run_tree(child, b))
                branches.append(b)
            acc.join_parallel(branches, fork_span=0.0)
            work += sum(t[0] for t in totals)
            span += max(t[1] for t in totals)
        else:
            for child in children:
                cw, cs = _run_tree(child, acc)
                work += cw
                span += cs
    return work, span


@settings(max_examples=60, deadline=None)
@given(tree=span_trees)
def test_span_tree_reproduces_cost_algebra(tree):
    """Exact composition: each span's delta equals its subtree's algebraic
    cost; span <= work holds everywhere; children never exceed parents."""
    acc = CostAccumulator()
    tr = Tracer()
    with tracing(tr):
        work, span = _run_tree(tree, acc)
    root = tr.roots()[0]
    assert root.work == work == acc.work
    assert root.span == span == acc.span
    for s in tr.spans:
        assert s.closed
        assert s.span <= s.work
        kids = tr.children(s.sid)
        if kids:
            assert sum(k.work for k in kids) <= s.work
            assert max(k.span for k in kids) <= s.span


@settings(max_examples=60, deadline=None)
@given(branches=st.lists(charges, min_size=1, max_size=4))
def test_parallel_compose_span_is_max_of_children(branches):
    """A parallel region's span delta is the max of its branch spans while
    its work delta is their sum (fork_span=0 keeps equality exact)."""
    acc = CostAccumulator()
    tr = Tracer()
    with tracing(tr):
        with trace_span("par", acc=acc):
            accs = []
            for chs in branches:
                b = acc.fork()
                with trace_span("branch", acc=b):
                    for w, s in chs:
                        b.charge(w, span=s)
                accs.append(b)
            acc.join_parallel(accs, fork_span=0.0)
    par = next(s for s in tr.spans if s.name == "par")
    kids = tr.children(par.sid)
    assert par.work == sum(k.work for k in kids)
    assert par.span == max(k.span for k in kids)
    assert par.span_model == max(k.span_model for k in kids)


@settings(max_examples=60, deadline=None)
@given(branches=st.lists(charges, min_size=1, max_size=4))
def test_structural_span_sums_children(branches):
    """A span with no accumulator totals exactly its children's sums."""
    tr = Tracer()
    with tracing(tr):
        with trace_span("structural"):
            for chs in branches:
                b = CostAccumulator()
                with trace_span("leaf", acc=b):
                    for w, s in chs:
                        b.charge(w, span=s)
    top = next(s for s in tr.spans if s.name == "structural")
    kids = tr.children(top.sid)
    assert top.work == sum(k.work for k in kids)
    assert top.span == sum(k.span for k in kids)


def test_exception_closes_spans_and_records_error():
    tr = Tracer()
    acc = CostAccumulator()
    with pytest.raises(RuntimeError):
        with tracing(tr):
            with trace_span("outer", acc=acc):
                with trace_span("inner", acc=acc):
                    acc.charge(3)
                    raise RuntimeError("boom")
    assert all(s.closed for s in tr.spans)
    assert all(s.error == "RuntimeError" for s in tr.spans)
    inner = next(s for s in tr.spans if s.name == "inner")
    assert inner.work == 3


# ---------------------------------------------------------------------------
# ledger bit-match on real solves (acceptance criterion: 50 random graphs)
# ---------------------------------------------------------------------------

def _solve_traced(g, seed):
    acc = CostAccumulator()
    tr = Tracer(seed=seed)
    with tracing(tr):
        res = solve_sssp(g, 0, seed=seed, acc=acc)
    return res, acc, tr


@pytest.mark.parametrize("seed", range(50))
def test_trace_totals_bitmatch_meter_on_random_graphs(seed):
    if seed % 2:
        g = hidden_potential_graph(30, 100, seed=seed)
    else:
        g = random_digraph(30, 100, min_w=-5, max_w=9, seed=seed)
    res, acc, tr = _solve_traced(g, seed)
    tw, ts, tm = tr.totals()
    # bit-for-bit: the root span binds to the solve's own accumulator
    assert (tw, ts, tm) == (res.cost.work, res.cost.span,
                            res.cost.span_model)
    assert (tw, ts, tm) == (acc.work, acc.span, acc.span_model)
    for s in tr.spans:
        assert s.closed
        kids = tr.children(s.sid)
        if kids:
            assert sum(k.work for k in kids) <= s.work + 1e-9
            assert sum(k.span_model for k in kids) <= s.span_model + 1e-9


def test_totals_add_root_spans_left_to_right():
    # sum() is compensated from Python 3.12 and would give exactly 1.0;
    # left-to-right addition gives the same answer on every interpreter
    tr = Tracer()
    for _ in range(10):
        acc = CostAccumulator()
        with tr.span("root", acc=acc):
            acc.charge(0.1)
    want = float.fromhex("0x1.fffffffffffffp-1")
    assert tr.totals() == (want, want, want)
    assert Trace.from_tracer(tr).totals() == (want, want, want)


def test_trace_structure_matches_scaling_stats_and_certificate():
    g = hidden_potential_graph(60, 240, seed=11)
    res, acc, tr = _solve_traced(g, 11)
    scales = [s for s in tr.spans if s.name == "scale"]
    assert [s.attrs["scale"] for s in scales] == res.stats.scales
    iters = [s for s in tr.spans if s.name == "reweighting-iteration"]
    assert len(iters) == res.stats.total_iterations
    assert [s.attrs["method"] for s in iters] == \
        [m for ps in res.stats.per_scale for m in ps.methods]
    root = tr.roots()[0]
    assert root.name == "solve"
    assert root.attrs["certificate"] == res.certificate.kind == "price"


def test_negative_cycle_trace_records_certificate():
    g, _ = planted_negative_cycle_graph(24, 80, 4, seed=2)
    res, acc, tr = _solve_traced(g, 0)
    assert res.has_negative_cycle
    root = tr.roots()[0]
    assert root.attrs["certificate"] == "negative_cycle"
    assert root.attrs["cycle_length"] == len(res.negative_cycle)
    tw, ts, tm = tr.totals()
    assert (tw, ts, tm) == (res.cost.work, res.cost.span,
                            res.cost.span_model)


def test_stage_span_sums_equal_accumulator_stage_buckets():
    """The trace reproduces the A4 stage buckets exactly: summed span
    deltas per stage name equal ``acc.stages`` on the same solve."""
    g = hidden_potential_graph(80, 320, seed=5)
    res, acc, tr = _solve_traced(g, 5)
    by_name: dict[str, float] = {}
    for s in tr.spans:
        if s.name in STAGE_SPAN_NAMES:
            by_name[s.name] = by_name.get(s.name, 0.0) + s.work
    assert set(by_name) == set(acc.stages)
    for name, cost in acc.stages.items():
        # per-instance deltas are identical; only the summation tree
        # differs (stage buckets merge hierarchically), so agreement is
        # to the last ulp, not bit-exact
        assert by_name[name] == pytest.approx(cost.work, rel=1e-12)


def test_trace_cost_breakdown_regenerates_a4_row(tmp_path):
    g = hidden_potential_graph(80, 320, seed=5)
    res, acc, tr = _solve_traced(g, 5)
    path = write_jsonl(tr, tmp_path / "t.jsonl")
    (row,) = trace_cost_breakdown(load_trace(path))
    total = acc.work
    assert row.values["total_work"] == total
    staged = 0.0
    for name, cost in acc.stages.items():
        assert row.values[f"{name}_share"] == pytest.approx(
            cost.work / total, rel=1e-12)
        staged += cost.work
    assert row.values["other_share"] == pytest.approx(
        (total - staged) / total)
    phases = trace_phase_table(path)
    assert {r.params["phase"] for r in phases} >= {"solve", "scale"}


def test_trace_phase_table_wall_columns():
    """Known walls: two roots of 10 s each; under the first, ``scc``
    (3 s, holding a 1 s ``reach``) and ``dag01`` (3 s, no work)."""
    def span(sid, parent, name, t0, t1, work):
        return Span(sid=sid, parent=parent, name=name, phase="test",
                    start_seq=sid, t_start=t0, t_end=t1, closed_seq=sid,
                    work=work)
    trace = Trace(spans=[span(0, None, "solve", 0.0, 10.0, 100.0),
                         span(1, 0, "scc", 1.0, 4.0, 30.0),
                         span(2, 1, "reach", 1.5, 2.5, 10.0),
                         span(3, 0, "dag01", 5.0, 8.0, 0.0),
                         span(4, None, "solve", 20.0, 30.0, 100.0)])
    rows = {r.params["phase"]: r.values for r in trace_phase_table(trace)}
    assert list(rows) == ["solve", "scc", "reach", "dag01", "unattributed"]
    assert rows["solve"]["wall_share"] == pytest.approx(1.0)
    assert rows["solve"]["ns_per_work"] == pytest.approx(20e9 / 200)
    assert rows["scc"]["wall_share"] == pytest.approx(3 / 20)
    assert rows["scc"]["ns_per_work"] == pytest.approx(3e9 / 30)
    assert rows["reach"]["wall_share"] == pytest.approx(1 / 20)
    assert rows["reach"]["ns_per_work"] == pytest.approx(1e9 / 10)
    assert rows["dag01"]["wall_share"] == pytest.approx(3 / 20)
    assert "ns_per_work" not in rows["dag01"]
    # root wall minus the direct children's (scc and dag01, not reach)
    assert rows["unattributed"] == {"wall_s": pytest.approx(14.0),
                                    "wall_share": pytest.approx(14 / 20)}
    assert trace_phase_table(Trace()) == []


def test_resilient_solve_traces_attempts_and_fallback():
    from repro.resilience.faults import FaultPlan
    from repro.resilience.retry import RetryPolicy

    g = hidden_potential_graph(30, 100, seed=4)
    tr = Tracer()
    plan = FaultPlan.always("potential", seed=0)
    with tracing(tr):
        res = solve_sssp_resilient(g, 0, seed=4, fault_plan=plan,
                                   retry_policy=RetryPolicy(max_attempts=2))
    assert res.provenance.used_fallback
    attempts = [s for s in tr.spans if s.name == "attempt"]
    assert [s.attrs["attempt"] for s in attempts] == [0, 1]
    assert all(s.error == "VerificationError" for s in attempts)
    assert any(s.name == "fallback-bellman-ford" for s in tr.spans)
    assert any(e.name == "fallback" for e in tr.events)
    assert any(e.name == "retry" for e in tr.events)


# ---------------------------------------------------------------------------
# disabled tracing is a no-op
# ---------------------------------------------------------------------------

def test_no_ambient_tracer_by_default():
    assert current_tracer() is None
    assert trace_span("x") is NOOP_SPAN
    trace_event("x")  # must not raise
    with NOOP_SPAN as sp:
        sp.set(a=1)
        sp.count("c")


def test_tracing_restores_previous_tracer():
    t1, t2 = Tracer(), Tracer()
    with tracing(t1):
        assert current_tracer() is t1
        with tracing(t2):
            assert current_tracer() is t2
        assert current_tracer() is t1
    assert current_tracer() is None


def test_traced_and_untraced_solves_identical():
    g = random_digraph(40, 160, min_w=-4, max_w=9, seed=9)
    plain = solve_sssp(g, 0, seed=9)
    tr = Tracer()
    with tracing(tr):
        traced = solve_sssp(g, 0, seed=9)
    assert np.array_equal(plain.dist, traced.dist)
    assert plain.cost == traced.cost
    assert len(tr.spans) > 0


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved_tracer():
    g = hidden_potential_graph(40, 160, seed=3)
    tr = Tracer(seed=3, family="hidden-potential")
    with tracing(tr):
        solve_sssp(g, 0, seed=3)
    return tr


def test_jsonl_roundtrip_lossless(solved_tracer, tmp_path):
    path = write_jsonl(solved_tracer, tmp_path / "t.jsonl")
    back = load_trace(path)
    assert back.meta["seed"] == 3
    assert len(back.spans) == len(solved_tracer.spans)
    for a, b in zip(solved_tracer.spans, back.spans):
        assert (a.sid, a.parent, a.name, a.phase) == \
            (b.sid, b.parent, b.name, b.phase)
        assert (a.start_seq, a.closed_seq) == (b.start_seq, b.closed_seq)
        assert (a.work, a.span, a.span_model) == (b.work, b.span,
                                                  b.span_model)
        assert a.counters == b.counters
    assert back.totals() == solved_tracer.totals()
    assert phase_sequence(back) == \
        phase_sequence(Trace.from_tracer(solved_tracer))


def test_chrome_trace_is_valid_traceevents_doc(solved_tracer, tmp_path):
    path = write_chrome_trace(solved_tracer, tmp_path / "t.json")
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(solved_tracer.spans)
    for e in complete:
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert {"pid", "tid", "name", "args"} <= set(e)
        json.dumps(e["args"])  # numpy leaked in? must be JSON-encodable
    assert doc["displayTimeUnit"] == "ms"


def test_write_trace_dispatch_and_unknown_format(solved_tracer, tmp_path):
    write_trace(solved_tracer, tmp_path / "a.jsonl", fmt="jsonl")
    write_trace(solved_tracer, tmp_path / "a.json", fmt="chrome")
    with pytest.raises(ValueError, match="unknown trace format"):
        write_trace(solved_tracer, tmp_path / "a.bin", fmt="protobuf")


def test_load_trace_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json at all\n")
    with pytest.raises(ValueError, match="not a JSONL trace line"):
        load_trace(bad)
    bad.write_text('{"kind": "mystery"}\n')
    with pytest.raises(ValueError, match="unknown trace record kind"):
        load_trace(bad)


def test_stitch_requires_cursor():
    with pytest.raises(ValueError, match="resumed_cursor"):
        stitch_traces(Trace(), Trace())
