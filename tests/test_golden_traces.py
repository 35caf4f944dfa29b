"""Golden-trace regression tests.

Three small canned graphs, each solved with a fixed seed, whose traces
must reproduce a hard-coded *structural skeleton* (the phase sequence
restricted to the scale / reweighting-iteration / dag01 /
chain-elimination / limited-sssp / final-dijkstra spans, with their
discrete attrs), a span-name histogram, and exact integer counter
totals.  Any change to solver control flow — an extra reweighting
iteration, a different dag01 limit schedule, a lost peel round — shows
up here as a readable diff against the embedded literals.

The literals were captured by running the solver once and embedding its
output; they are exact values, not tolerances.  Floating-point totals
are deliberately NOT asserted here (the metamorphic layer in
``test_observability.py`` pins those against the live Meter); golden
data sticks to discrete, platform-independent facts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sssp import solve_sssp
from repro.graph.generators import hidden_potential_graph, random_digraph
from repro.observability import Trace, Tracer, phase_sequence, tracing

pytestmark = pytest.mark.observability

# the structural skeleton: control-flow spans only (reach / peel-round /
# refine spans are covered by the counter totals instead)
SKELETON_NAMES = (
    "scale",
    "reweighting-iteration",
    "dag01",
    "chain-elimination",
    "limited-sssp",
    "final-dijkstra",
    "fallback-bellman-ford",
)

SEED = 7


def _solve_traced(g):
    tr = Tracer()
    with tracing(tr):
        res = solve_sssp(g, 0, seed=SEED)
    return Trace.from_tracer(tr), res


def _counter_totals(trace: Trace) -> dict[str, int]:
    totals: dict[str, int] = {}
    for s in trace.spans:
        for k, v in s.counters.items():
            key = f"{s.name}.{k}"
            totals[key] = totals.get(key, 0) + v
    return totals


def _name_histogram(trace: Trace) -> dict[str, int]:
    hist: dict[str, int] = {}
    for s in trace.spans:
        hist[s.name] = hist.get(s.name, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# golden data
# ---------------------------------------------------------------------------

GOLDEN = {
    # hidden_potential_graph(16, 40, seed=1): feasible, 5 scales
    "hp16": dict(
        make=lambda: hidden_potential_graph(16, 40, seed=1),
        negative_cycle=False,
        skeleton=[
            ("scale", ("scale", 16)),
            ("scale", ("scale", 8)),
            ("reweighting-iteration", ("iteration", 0)),
            ("dag01", ("limit", 1)),
            ("chain-elimination", ("limit", 1)),
            ("limited-sssp", ("limit", 1)),
            ("scale", ("scale", 4)),
            ("reweighting-iteration", ("iteration", 0)),
            ("dag01", ("limit", 3)),
            ("scale", ("scale", 2)),
            ("reweighting-iteration", ("iteration", 0)),
            ("dag01", ("limit", 2)),
            ("scale", ("scale", 1)),
            ("reweighting-iteration", ("iteration", 0)),
            ("dag01", ("limit", 3)),
            ("reweighting-iteration", ("iteration", 1)),
            ("dag01", ("limit", 2)),
            ("final-dijkstra",),
        ],
        counters={
            "reach.rounds": 26,
            "dag01-peeling.label_changes": 25,
            "dag01-peeling.propagate_calls": 15,
            "dag01-peeling.propagate_nodes": 109,
            "dag01-peeling.reach_calls": 8,
            "dag01-peeling.reach_nodes": 127,
            "peel-round.finalized": 84,
            "peel-round.invalidated": 25,
            "limited-sssp.refine_calls": 3,
            "limited-sssp.refine_nodes": 46,
            "refine.nodes": 46,
            "refine.finalized": 16,
            "refine.reassigned": 30,
            "final-dijkstra.settled": 16,
        },
        names={
            "solve": 1, "scaling": 1, "scale": 5, "reweighting": 5,
            "reweighting-iteration": 5, "scc": 5, "reach": 15, "dag01": 5,
            "dag01-peeling": 5, "peel-round": 11, "chain-elimination": 1,
            "limited-sssp": 1, "refine": 3, "final-dijkstra": 1,
        },
    ),
    # hidden_potential_graph(24, 70, seed=2): feasible, multi-iteration
    "hp24": dict(
        make=lambda: hidden_potential_graph(24, 70, seed=2),
        negative_cycle=False,
        skeleton=[
            ("scale", ("scale", 16)),
            ("reweighting-iteration", ("iteration", 0)),
            ("dag01", ("limit", 1)),
            ("chain-elimination", ("limit", 1)),
            ("limited-sssp", ("limit", 1)),
            ("scale", ("scale", 8)),
            ("reweighting-iteration", ("iteration", 0)),
            ("dag01", ("limit", 2)),
            ("scale", ("scale", 4)),
            ("reweighting-iteration", ("iteration", 0)),
            ("dag01", ("limit", 3)),
            ("reweighting-iteration", ("iteration", 1)),
            ("dag01", ("limit", 1)),
            ("chain-elimination", ("limit", 1)),
            ("limited-sssp", ("limit", 1)),
            ("scale", ("scale", 2)),
            ("reweighting-iteration", ("iteration", 0)),
            ("dag01", ("limit", 3)),
            ("chain-elimination", ("limit", 3)),
            ("limited-sssp", ("limit", 3)),
            ("reweighting-iteration", ("iteration", 1)),
            ("dag01", ("limit", 2)),
            ("scale", ("scale", 1)),
            ("reweighting-iteration", ("iteration", 0)),
            ("dag01", ("limit", 4)),
            ("reweighting-iteration", ("iteration", 1)),
            ("dag01", ("limit", 3)),
            ("reweighting-iteration", ("iteration", 2)),
            ("dag01", ("limit", 1)),
            ("chain-elimination", ("limit", 1)),
            ("limited-sssp", ("limit", 1)),
            ("final-dijkstra",),
        ],
        counters={
            "reach.rounds": 49,
            "dag01-peeling.label_changes": 53,
            "dag01-peeling.propagate_calls": 29,
            "dag01-peeling.propagate_nodes": 278,
            "dag01-peeling.reach_calls": 20,
            "dag01-peeling.reach_nodes": 414,
            "peel-round.finalized": 225,
            "peel-round.invalidated": 53,
            "limited-sssp.refine_calls": 16,
            "limited-sssp.refine_nodes": 338,
            "refine.nodes": 338,
            "refine.finalized": 96,
            "refine.reassigned": 207,
            "final-dijkstra.settled": 24,
        },
        names={
            "solve": 1, "scaling": 1, "scale": 5, "reweighting": 5,
            "reweighting-iteration": 9, "scc": 9, "reach": 29, "dag01": 9,
            "dag01-peeling": 9, "peel-round": 24, "chain-elimination": 4,
            "limited-sssp": 4, "refine": 16, "final-dijkstra": 1,
        },
    ),
    # random_digraph(20, 50, min_w=-3, max_w=9, seed=5): negative cycle —
    # the solve stops mid-reweighting, so the trace ends without a
    # final-dijkstra span
    "rd20neg": dict(
        make=lambda: random_digraph(20, 50, min_w=-3, max_w=9, seed=5),
        negative_cycle=True,
        skeleton=[
            ("scale", ("scale", 4)),
            ("scale", ("scale", 2)),
            ("reweighting-iteration", ("iteration", 0)),
        ],
        counters={"reach.rounds": 4},
        names={
            "solve": 1, "scaling": 1, "scale": 2, "reweighting": 2,
            "reweighting-iteration": 1, "scc": 1, "reach": 2,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_skeleton(case):
    spec = GOLDEN[case]
    trace, res = _solve_traced(spec["make"]())
    assert (res.dist is None) == spec["negative_cycle"]
    assert phase_sequence(trace, names=SKELETON_NAMES) == spec["skeleton"]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_counters(case):
    spec = GOLDEN[case]
    trace, _ = _solve_traced(spec["make"]())
    assert _counter_totals(trace) == spec["counters"]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_span_name_histogram(case):
    spec = GOLDEN[case]
    trace, _ = _solve_traced(spec["make"]())
    assert _name_histogram(trace) == spec["names"]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_traces_are_deterministic(case):
    """Same graph + seed twice -> identical phase sequence with attrs."""
    spec = GOLDEN[case]
    t1, _ = _solve_traced(spec["make"]())
    t2, _ = _solve_traced(spec["make"]())
    assert phase_sequence(t1) == phase_sequence(t2)


# ---------------------------------------------------------------------------
# process backend: shipped worker spans ride along, skeleton unchanged
# ---------------------------------------------------------------------------

@pytest.mark.telemetry
def test_golden_skeleton_survives_process_backend_with_shipped_spans():
    """Solving over the process pool splices in-worker spans into the
    trace but must not perturb the golden structural skeleton — shipped
    spans are runtime-layer additions."""
    from repro.runtime.backends import ProcessForkJoinPool

    spec = GOLDEN["hp16"]
    base_trace, base = _solve_traced(spec["make"]())
    with ProcessForkJoinPool(2, grain=8) as pool:
        tr = Tracer()
        with tracing(tr):
            res = solve_sssp(spec["make"](), 0, seed=SEED, backend=pool)
    np.testing.assert_array_equal(res.dist, base.dist)
    trace = Trace.from_tracer(tr)
    assert phase_sequence(trace, names=SKELETON_NAMES) == spec["skeleton"]
    blocks = [s for s in trace.spans
              if s.name == "map-blocks-block"
              and s.attrs.get("backend") == "process"]
    assert blocks, "process solve must record shipped block spans"
    for s in blocks:
        assert "worker" in s.attrs
    shipped = [s for s in trace.spans if s.name == "block-reduce"]
    assert shipped and all("worker" in s.attrs for s in shipped)
    # splicing renumbers sids but must never orphan a parent
    sids = {s.sid for s in trace.spans}
    assert all(s.parent is None or s.parent in sids for s in trace.spans)
