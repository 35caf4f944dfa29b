"""Cross-process telemetry shipping for the process backend.

A :class:`~repro.runtime.backends.ProcessForkJoinPool` worker is a forked
process: any tracer/registry it inherits from the parent is a dead copy
(its spans would mutate fork-private memory and vanish), so in-worker
instrumentation used to be invisible — block spans were reconstructed in
the parent as zero-length markers.  This module closes the gap:

* the **worker side** wraps each block execution in a
  :class:`WorkerSession` — a *fresh* run context holding its own tracer
  and metrics registry for exactly one ``(block, attempt)``, masking
  anything inherited from the fork snapshot.  On exit the session packs
  the closed spans, events, metric deltas, and wall/CPU time into a
  picklable :class:`WorkerTelemetry` that rides the existing result
  message;
* the **parent side** (:func:`record_shipped_block`) turns an accepted
  result's telemetry into a ``map-blocks-block`` span with the *real*
  in-worker duration, splices the worker's spans under it
  (:meth:`~repro.observability.tracer.Tracer.splice`), and folds the
  metric deltas into the ambient registry
  (:meth:`~repro.observability.metrics.MetricsRegistry.fold`).

Exactly-once accounting falls out of the result-plane semantics: telemetry
rides only ``ok`` messages, and the pool discards stale epochs and late
duplicates *before* recording — so a block re-executed after a worker loss
or straggler duplication is accounted exactly once, and the folded totals
are pool-size independent for per-element counters.

Block functions instrument themselves with :func:`worker_span`, the
process-safe sibling of :func:`~repro.observability.tracer.trace_span`:
it records only inside a worker session and is a shared no-op everywhere
else.  That guard is what makes the *same* block function safe on every
backend — under the thread pool a plain ``trace_span`` from a worker
thread would push onto the main flow's parent stack and corrupt it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..runcontext import EMPTY_CONTEXT, current_context, run_scope
from .metrics import MetricsRegistry, current_metrics, metric_inc
from .tracer import NOOP_SPAN, Span, TraceEvent, Tracer, current_tracer

__all__ = [
    "MAX_SHIPPED_SPANS",
    "WorkerTelemetry",
    "WorkerSession",
    "in_worker_session",
    "worker_span",
    "worker_event",
    "ship_flags",
    "record_shipped_block",
]

# per-block cap on shipped spans: a runaway-instrumented block must not
# turn the result pipe into a firehose; the overflow is counted, not lost
# silently (attrs["spans_dropped"] + repro_worker_span_drops_total)
MAX_SHIPPED_SPANS = 5000


@dataclass
class WorkerTelemetry:
    """One block execution's telemetry, shipped worker -> parent.

    ``spans``/``events`` come from the session tracer (sid space local to
    the worker; the parent renumbers on splice).  ``metrics`` is the
    session registry's JSON document — the whole registry *is* the delta,
    because the session starts empty.  ``wall``/``cpu`` are the block's
    in-worker durations in seconds.
    """

    spans: list[Span] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    metrics: dict | None = None
    wall: float = 0.0
    cpu: float = 0.0
    dropped_spans: int = 0


def in_worker_session() -> bool:
    """Whether a :class:`WorkerSession` with telemetry on is the current
    run context."""
    return current_context().in_session


def worker_span(name: str, phase: str = "worker", **attrs):
    """Open a span on the worker session's tracer; no-op elsewhere.

    The process-safe :func:`~repro.observability.tracer.trace_span`
    for block functions: inside a worker session it records on the
    session's fresh tracer (shipped to the parent with the result);
    in the parent, under the thread pool, or with telemetry off it is
    the shared no-op handle — same zero-cost-when-off contract.
    """
    ctx = current_context()
    if not ctx.in_session or ctx.tracer is None:
        return NOOP_SPAN
    return ctx.tracer.span(name, phase=phase, **attrs)


def worker_event(name: str, **attrs) -> None:
    """Record an instant event on the worker session's tracer (no-op
    outside a session)."""
    ctx = current_context()
    if ctx.in_session and ctx.tracer is not None:
        ctx.tracer.event(name, **attrs)


class WorkerSession(run_scope):
    """Ambient telemetry for one ``(block, attempt)`` inside a worker.

    A fresh run context for the block: the session's own tracer and
    registry (``None`` for a plane that is off) and nothing else.  It is
    entered around the block body even with both planes off, because the
    fresh context masks whatever the worker inherited from the fork
    snapshot (recording into those would be silent loss at best, a
    fork-poisoned lock at worst).
    """

    __slots__ = ("_tracer", "_registry", "_max_spans", "_t0", "_c0",
                 "_telemetry")

    def __init__(self, flags: tuple[bool, bool] | None, *,
                 max_spans: int = MAX_SHIPPED_SPANS) -> None:
        want_trace, want_metrics = flags if flags is not None else (False,
                                                                    False)
        self._tracer = Tracer() if want_trace else None
        self._registry = MetricsRegistry() if want_metrics else None
        # every field given, so the block's context is a fresh one
        super().__init__(**EMPTY_CONTEXT._replace(
            tracer=self._tracer, metrics=self._registry,
            in_session=want_trace or want_metrics)._asdict())
        self._max_spans = max_spans
        self._t0 = self._c0 = 0.0
        self._telemetry: WorkerTelemetry | None = None

    def __enter__(self) -> "WorkerSession":
        super().__enter__()
        self._t0 = time.perf_counter()
        self._c0 = time.thread_time()
        return self

    def __exit__(self, *exc: Any) -> bool:
        wall = time.perf_counter() - self._t0
        cpu = time.thread_time() - self._c0
        super().__exit__(*exc)
        if self._tracer is None and self._registry is None:
            return False
        spans: list[Span] = []
        events: list[TraceEvent] = []
        dropped = 0
        if self._tracer is not None:
            closed = [s for s in self._tracer.spans if s.closed]
            # sid order keeps ancestors ahead of descendants, so a
            # capped prefix never ships a child without its parent
            dropped = max(0, len(closed) - self._max_spans)
            spans = closed[:self._max_spans]
            events = list(self._tracer.events)
        self._telemetry = WorkerTelemetry(
            spans=spans, events=events,
            metrics=(self._registry.to_json()
                     if self._registry is not None else None),
            wall=wall, cpu=cpu, dropped_spans=dropped)
        return False

    def collect(self) -> WorkerTelemetry | None:
        """The packed telemetry (None when both planes were off)."""
        return self._telemetry

    def progress(self) -> tuple[int, int] | None:
        """A cheap liveness snapshot for heartbeat piggybacking:
        ``(spans_closed_so_far, metric_families)``.  Safe to call from
        the worker's heartbeat thread while the block is running."""
        if self._tracer is None and self._registry is None:
            return None
        spans = self._tracer.cursor() if self._tracer is not None else 0
        fams = (len(self._registry.families())
                if self._registry is not None else 0)
        return (spans, fams)


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def ship_flags() -> tuple[bool, bool] | None:
    """What the parent wants shipped: ``(want_trace, want_metrics)`` from
    the ambient installations, or None when telemetry is entirely off
    (the task message then carries one ``None`` and workers skip all
    session bookkeeping beyond the ambient masking)."""
    want_trace = current_tracer() is not None
    want_metrics = current_metrics() is not None
    if not (want_trace or want_metrics):
        return None
    return (want_trace, want_metrics)


def record_shipped_block(telemetry: WorkerTelemetry | None, *,
                         parent: int | None, wid: int, attempt: int,
                         lo: int, hi: int, backend: str = "process"):
    """Account one *accepted* block result's telemetry in the parent.

    Creates the ``map-blocks-block`` span with the worker-measured wall
    interval (ending now — the span is anchored so its end aligns with
    result acceptance), splices the worker's spans/events under it, and
    folds the metric deltas into the ambient registry.  Returns the
    block span (or None when tracing is off).

    The caller guarantees the result passed the epoch/duplicate filter,
    which is exactly what makes this exactly-once: stale straggler
    telemetry is discarded with the stale result it rides on.
    """
    reg = current_metrics()
    if (reg is not None and telemetry is not None
            and telemetry.metrics is not None):
        reg.fold(telemetry.metrics)
    tracer = current_tracer()
    if tracer is None:
        return None
    now = time.perf_counter() - tracer.epoch
    wall = telemetry.wall if telemetry is not None else 0.0
    attrs: dict[str, Any] = {"lo": lo, "hi": hi, "worker": wid,
                             "attempt": attempt, "backend": backend}
    if telemetry is not None:
        attrs["cpu_s"] = round(telemetry.cpu, 6)
        attrs["spans_shipped"] = len(telemetry.spans)
        if telemetry.dropped_spans:
            attrs["spans_dropped"] = telemetry.dropped_spans
    blk = tracer.add_closed_span(
        "map-blocks-block", parent=parent, phase="runtime",
        t_start=max(now - wall, 0.0), t_end=now, attrs=attrs)
    if telemetry is not None and (telemetry.spans or telemetry.events):
        tracer.splice(telemetry.spans, telemetry.events,
                      parent=blk.sid, t_offset=max(now - wall, 0.0),
                      extra_attrs={"worker": wid})
        if telemetry.spans:
            # splice() grafts every donor span, so the shipped count is
            # the (deterministic) donor list length, not wall-derived
            metric_inc("repro_worker_spans_shipped_total",
                       len(telemetry.spans), backend=backend)
        if telemetry.dropped_spans:
            metric_inc("repro_worker_span_drops_total",
                       telemetry.dropped_spans, backend=backend)
    return blk
