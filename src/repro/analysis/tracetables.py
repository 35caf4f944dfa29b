"""Per-phase cost tables regenerated from trace files.

The A4 experiment (:func:`repro.analysis.experiments.run_cost_breakdown`)
asks "where does the solver's work go?" and answers it from the live
``CostAccumulator`` stage buckets.  This module answers the same question
from a *trace file*: because every stage block
(``scc`` / ``dag01`` / ``chain-elimination`` / ``final-dijkstra`` /
``fallback-bellman-ford``) is wrapped by a span bound to the same
accumulator over the same window, the span work deltas reproduce the stage
buckets exactly — so ``trace_cost_breakdown(trace)`` on a solve's trace
equals the A4 row computed during that solve (test-enforced in
``tests/test_observability.py``).

Being file-based, the tables also work *post hoc*: solve once with
``repro solve g.gr --trace t.jsonl``, analyse later with
``repro trace t.jsonl``.
"""

from __future__ import annotations

from .experiments import Row
from ..observability.export import Trace, load_trace

# span names that mirror the CostAccumulator.stage buckets of A4
STAGE_SPAN_NAMES = (
    "scc",
    "dag01",
    "chain-elimination",
    "final-dijkstra",
    "fallback-bellman-ford",
)

__all__ = [
    "STAGE_SPAN_NAMES",
    "trace_cost_breakdown",
    "trace_phase_table",
    "trace_worker_table",
]


def _as_trace(trace) -> Trace:
    if isinstance(trace, Trace):
        return trace
    if hasattr(trace, "spans"):          # a Tracer
        return Trace.from_tracer(trace)
    return load_trace(trace)             # a path


def trace_cost_breakdown(trace) -> list[Row]:
    """The A4 per-stage work-share row, recomputed from a trace.

    ``trace`` may be a :class:`~repro.observability.export.Trace`, a
    :class:`~repro.observability.tracer.Tracer`, or a JSONL trace path.
    Returns one row: total work plus each stage's share of it (stages sum
    over every span instance with that name), with the non-staged
    remainder under ``other_share`` — the same columns as
    :func:`~repro.analysis.experiments.run_cost_breakdown`.
    """
    trace = _as_trace(trace)
    total, _, _ = trace.totals()
    if total <= 0:
        raise ValueError("trace has no root work to break down")
    stage_work: dict[str, float] = {}
    for s in trace.spans:
        if s.name in STAGE_SPAN_NAMES:
            stage_work[s.name] = stage_work.get(s.name, 0.0) + s.work
    values = {"total_work": total}
    for name in sorted(stage_work):
        values[f"{name}_share"] = stage_work[name] / total
    values["other_share"] = (total - sum(stage_work.values())) / total
    params = {}
    root = trace.roots()
    if root:
        params = {k: root[0].attrs[k]
                  for k in ("n", "m") if k in root[0].attrs}
    return [Row(params=params, values=values)]


def trace_phase_table(trace) -> list[Row]:
    """Aggregate every span name into one row: count, work, span deltas,
    wall time, share of total work, share of the root spans' wall time
    (``wall_share``) and wall nanoseconds per unit of model work
    (``ns_per_work``, left out when the work is 0) — the full per-phase
    breakdown.  A last ``unattributed`` row holds the root spans' wall
    time outside their direct children: glue no child span covers.

    Walls are inclusive, so a phase's ``wall_share`` counts its child
    phases too; ``ns_per_work`` is what separates Python overhead from
    algorithmic cost, phase by phase.
    """
    trace = _as_trace(trace)
    total, _, _ = trace.totals()
    roots = trace.roots()
    root_ids = {s.sid for s in roots}
    root_wall = 0.0
    for s in roots:
        root_wall += s.wall
    child_wall = 0.0
    agg: dict[str, dict] = {}
    order: list[str] = []
    for s in sorted(trace.spans, key=lambda s: s.start_seq):
        if s.parent in root_ids:
            child_wall += s.wall
        a = agg.get(s.name)
        if a is None:
            a = agg[s.name] = {"count": 0, "work": 0.0, "span": 0.0,
                               "span_model": 0.0, "wall_s": 0.0}
            order.append(s.name)
        a["count"] += 1
        a["work"] += s.work
        a["span"] += s.span
        a["span_model"] += s.span_model
        a["wall_s"] += s.wall

    def wall_share(wall: float) -> float:
        return wall / root_wall if root_wall else 0.0

    rows = []
    for name in order:
        a = agg[name]
        values = {**a, "work_share": (a["work"] / total) if total else 0.0,
                  "wall_share": wall_share(a["wall_s"])}
        if a["work"]:
            values["ns_per_work"] = a["wall_s"] * 1e9 / a["work"]
        rows.append(Row(params={"phase": name}, values=values))
    if roots:
        rest = root_wall - child_wall
        rows.append(Row(params={"phase": "unattributed"},
                        values={"wall_s": rest,
                                "wall_share": wall_share(rest)}))
    return rows


def trace_worker_table(trace) -> list[Row]:
    """Per-worker/per-backend execution breakdown from a trace.

    One row per ``(backend, worker)`` pair observed on the
    ``map-blocks-block`` spans: block count, wall time, worker CPU time
    (process workers ship it; thread blocks have none), re-dispatches
    (``attempt > 1`` — the fault-tolerant pool retried the block after a
    worker loss or stale epoch), spans shipped from inside the worker,
    and losses (``worker-lost`` trace events naming that worker id).
    Thread-pool blocks carry no stable worker identity and aggregate
    under worker ``"-"``.  Empty when the trace has no block spans.
    """
    trace = _as_trace(trace)
    losses: dict[int, int] = {}
    for e in trace.events:
        if e.name == "worker-lost" and "wid" in e.attrs:
            wid = int(e.attrs["wid"])
            losses[wid] = losses.get(wid, 0) + 1
    agg: dict[tuple[str, str], dict] = {}
    order: list[tuple[str, str]] = []
    for s in sorted(trace.spans, key=lambda s: s.start_seq):
        if s.name != "map-blocks-block":
            continue
        backend = str(s.attrs.get("backend", "?"))
        worker = s.attrs.get("worker", "-")
        key = (backend, str(worker))
        a = agg.get(key)
        if a is None:
            a = agg[key] = {"blocks": 0, "wall_s": 0.0, "cpu_s": 0.0,
                            "redispatches": 0, "spans_shipped": 0,
                            "losses": (losses.get(int(worker), 0)
                                       if worker != "-" else 0)}
            order.append(key)
        a["blocks"] += 1
        a["wall_s"] += s.wall
        a["cpu_s"] += float(s.attrs.get("cpu_s", 0.0))
        if int(s.attrs.get("attempt", 1)) > 1:
            a["redispatches"] += 1
        a["spans_shipped"] += int(s.attrs.get("spans_shipped", 0))
    return [Row(params={"backend": b, "worker": w}, values=dict(agg[b, w]))
            for b, w in sorted(order)]
