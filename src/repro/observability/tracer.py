"""Structured tracing for the work-span runtime.

The paper's claims are *per-phase* work/span statements — peeling rounds
(§3), interval refinements (§4), scale levels (§5) — but the
:class:`~repro.runtime.metrics.CostAccumulator` only surfaces end-of-run
totals.  This module records *where* those totals accrue: a
:class:`Tracer` collects hierarchical :class:`Span` records (name, phase,
work/span/span_model deltas, counters, wall time) that exporters
(:mod:`repro.observability.export`) turn into JSONL or Chrome-trace files.

Accounting model
----------------
A span does not intercept charges.  It *binds* to the cost accumulator the
enclosing code already threads through its control flow, snapshots the
accumulator's ``(work, span, span_model)`` at entry, and records the delta
at exit.  Because the library's layers each keep a local accumulator and
fold it into their caller's exactly once, binding each span to the
accumulator of its own layer makes the ledger compositional with no
double counting:

* the root span (``solve`` in :func:`repro.core.sssp.solve_sssp`) binds to
  the solve's top accumulator, so its totals equal ``res.cost``
  bit-for-bit;
* a child bound to an inner accumulator that later folds into the parent's
  contributes its totals to the parent's delta exactly once, so the sum of
  sibling works never exceeds the parent's work;
* parallel regions composed with
  :meth:`~repro.runtime.metrics.CostAccumulator.join_parallel` inherit the
  model's parallel algebra for free: the region's span delta is the *max*
  of the branch spans (plus the fork term) while its work is the sum.

A span with no accumulator (``acc=None``) is *structural*: its totals are
the sums of its children's, computed as they close.

Zero cost when disabled
-----------------------
Tracing is ambient: :func:`trace_span` / :func:`trace_event` read the
tracer field of the run context (:mod:`repro.runcontext`) and return a
shared no-op handle when none is installed — one context read and an
``is None`` test per instrumentation site, no allocation beyond the call
itself.  Install a tracer for a region with :func:`tracing`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..runcontext import current_context, run_scope
from ..runtime.metrics import CostAccumulator
from .metrics import MetricsRegistry, current_metrics

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "SpanHandle",
    "NOOP_SPAN",
    "current_tracer",
    "tracing",
    "trace_span",
    "trace_event",
]


@dataclass
class Span:
    """One traced region of a solve.

    ``work``/``span``/``span_model`` are the cost deltas of the bound
    accumulator over the region (both span tracks of
    :mod:`repro.runtime.metrics`); for structural spans they are the sums
    over children.  ``t_start``/``t_end`` are wall-clock seconds relative
    to the tracer's epoch.  ``start_seq`` is the global start order;
    ``closed_seq`` the global close order (−1 while open) — the latter is
    what checkpoint trace cursors count, so a resumed trace can be
    stitched after the durable prefix.
    """

    sid: int
    parent: int | None
    name: str
    phase: str
    start_seq: int
    t_start: float
    t_end: float | None = None
    closed_seq: int = -1
    work: float = 0.0
    span: float = 0.0
    span_model: float = 0.0
    attrs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def closed(self) -> bool:
        return self.t_end is not None

    @property
    def wall(self) -> float:
        """Wall-clock duration in seconds (0.0 while still open)."""
        return (self.t_end - self.t_start) if self.closed else 0.0


@dataclass
class TraceEvent:
    """An instant marker (checkpoint write, retry, fallback, ...)."""

    name: str
    t: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class SpanHandle:
    """Live handle for an open span (returned by ``with trace_span(...)``)."""

    __slots__ = ("_tracer", "_span", "_acc", "_w0", "_s0", "_m0", "_detached")

    def __init__(self, tracer: "Tracer", span: Span,
                 acc: CostAccumulator | None, detached: bool) -> None:
        self._tracer = tracer
        self._span = span
        self._acc = acc
        self._detached = detached
        if acc is not None:
            self._w0, self._s0, self._m0 = acc.work, acc.span, acc.span_model
        else:
            self._w0 = self._s0 = self._m0 = 0.0

    @property
    def span(self) -> Span:
        return self._span

    def set(self, **attrs) -> None:
        """Attach attributes (scale, k, method, ...) to the span."""
        self._span.attrs.update(attrs)

    def count(self, name: str, delta: float = 1) -> None:
        """Increment counter ``name`` (relaxations, label changes, ...)."""
        c = self._span.counters
        c[name] = c.get(name, 0) + delta

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self, exc_type)
        return False


class _NoopSpan:
    """Shared do-nothing handle used when no tracer is installed."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def count(self, name: str, delta: float = 1) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


def root_totals(spans: list[Span]) -> tuple[float, float, float]:
    """(work, span, span_model) of the root spans among ``spans``, added
    left to right like
    :meth:`~repro.runtime.metrics.CostAccumulator.join_parallel` — not
    ``sum()``, whose float result differs between Python 3.11 and 3.12."""
    work = span = span_model = 0.0
    for s in spans:
        if s.parent is None:
            work += s.work
            span += s.span
            span_model += s.span_model
    return work, span, span_model


class Tracer:
    """Collects spans and events for one (or one resumed) solve.

    Thread-safe: span open/close and event appends take a small lock, so
    :class:`~repro.runtime.executor.ForkJoinPool` workers may record
    detached block spans concurrently with the main flow.  The parent
    stack, however, belongs to the main algorithm flow — worker threads
    must pass ``detached=True`` with an explicit ``parent``.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 **meta) -> None:
        self.metrics = metrics
        self.meta = dict(meta)
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self.epoch = time.perf_counter()
        self.resumed_cursor: int | None = None
        self._stack: list[Span] = []
        self._closed = 0
        self._start_seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, acc: CostAccumulator | None = None,
             phase: str = "", parent: int | None = None,
             detached: bool = False, **attrs) -> SpanHandle:
        """Open a span; use as a context manager.

        ``acc`` binds the span to an accumulator (see the module
        docstring); ``detached=True`` records the span without touching
        the parent stack (for worker threads; ``parent`` must be given).
        """
        t = time.perf_counter() - self.epoch
        with self._lock:
            if parent is None and not detached:
                parent = self._stack[-1].sid if self._stack else None
            sp = Span(sid=len(self.spans), parent=parent, name=name,
                      phase=phase, start_seq=self._start_seq, t_start=t,
                      attrs=attrs)
            self._start_seq += 1
            self.spans.append(sp)
            if not detached:
                self._stack.append(sp)
        return SpanHandle(self, sp, acc, detached)

    def _close(self, handle: SpanHandle, exc_type) -> None:
        sp = handle._span
        acc = handle._acc
        t = time.perf_counter() - self.epoch
        with self._lock:
            if acc is not None:
                sp.work = acc.work - handle._w0
                sp.span = acc.span - handle._s0
                sp.span_model = acc.span_model - handle._m0
                sp.counters.pop("_child_work", None)
                sp.counters.pop("_child_span", None)
                sp.counters.pop("_child_span_model", None)
            else:
                # structural span: totals are the sums over its children
                sp.work = sp.counters.pop("_child_work", 0.0)
                sp.span = sp.counters.pop("_child_span", 0.0)
                sp.span_model = sp.counters.pop("_child_span_model", 0.0)
            sp.t_end = t
            sp.closed_seq = self._closed
            self._closed += 1
            if exc_type is not None:
                sp.error = exc_type.__name__
            if not handle._detached:
                # tolerate exception-driven unwinding of several frames
                while self._stack and self._stack[-1].sid >= sp.sid:
                    self._stack.pop()
            if sp.parent is not None:
                parent = self.spans[sp.parent]
                if not parent.closed:
                    pc = parent.counters
                    pc["_child_work"] = pc.get("_child_work", 0.0) + sp.work
                    pc["_child_span"] = pc.get("_child_span", 0.0) + sp.span
                    pc["_child_span_model"] = (
                        pc.get("_child_span_model", 0.0) + sp.span_model)
        # spans bump metrics: fold the closed span into the bound (or
        # ambient) registry outside the tracer lock — the registry has its
        # own per-family locks
        reg = self.metrics if self.metrics is not None else current_metrics()
        if reg is not None:
            reg.span_closed(sp)

    def event(self, name: str, **attrs) -> None:
        """Record an instant event under the currently open span."""
        t = time.perf_counter() - self.epoch
        with self._lock:
            parent = self._stack[-1].sid if self._stack else None
            self.events.append(TraceEvent(name, t, parent, attrs))

    # ------------------------------------------------------------------
    # cross-process splicing (worker telemetry shipping)
    # ------------------------------------------------------------------
    def add_closed_span(self, name: str, *, parent: int | None,
                        phase: str = "", t_start: float, t_end: float,
                        attrs: dict | None = None,
                        counters: dict | None = None) -> Span:
        """Record an already-finished span with a known wall interval.

        The process backend uses this for ``map-blocks-block`` spans
        whose duration was measured *inside the worker* — unlike
        :meth:`span`, the interval is supplied, not sampled here.  The
        span is structural (zero cost deltas; model costs are charged
        parent-side) and folds into the bound/ambient metrics registry
        exactly like a normally-closed span.
        """
        with self._lock:
            sp = Span(sid=len(self.spans), parent=parent, name=name,
                      phase=phase, start_seq=self._start_seq,
                      t_start=t_start, t_end=t_end,
                      closed_seq=self._closed,
                      attrs=dict(attrs or {}), counters=dict(counters or {}))
            self._start_seq += 1
            self._closed += 1
            self.spans.append(sp)
        reg = self.metrics if self.metrics is not None else current_metrics()
        if reg is not None:
            reg.span_closed(sp)
        return sp

    def splice(self, spans, events=(), *, parent: int | None,
               t_offset: float = 0.0,
               extra_attrs: dict | None = None) -> int:
        """Graft closed spans recorded by another tracer under ``parent``.

        Sids are renumbered into this tracer's id space and parent links
        remapped; donor roots (and donor spans whose parent did not ship)
        attach to ``parent``, so a spliced trace never contains orphan
        parent references.  ``t_offset`` shifts donor timestamps (the
        donor epoch is the worker's block start) onto this tracer's
        epoch.  Spliced spans are provenance, not accounting: they are
        *not* folded into the metrics registry (the worker ships its own
        metric deltas, folded separately) and contribute nothing to the
        parent's cost ledger.  Returns the number of spans spliced;
        donor spans still open are skipped.
        """
        closed = sorted((s for s in spans if s.closed),
                        key=lambda s: s.start_seq)
        extra = dict(extra_attrs or {})
        with self._lock:
            remap: dict[int, int] = {}
            for s in closed:
                nid = len(self.spans)
                remap[s.sid] = nid
                mapped = (parent if s.parent is None
                          else remap.get(s.parent, parent))
                self.spans.append(Span(
                    sid=nid, parent=mapped, name=s.name, phase=s.phase,
                    start_seq=self._start_seq,
                    t_start=s.t_start + t_offset,
                    t_end=(s.t_end + t_offset
                           if s.t_end is not None else None),
                    closed_seq=self._closed,
                    work=s.work, span=s.span, span_model=s.span_model,
                    attrs={**s.attrs, **extra},
                    counters=dict(s.counters), error=s.error))
                self._start_seq += 1
                self._closed += 1
            for e in events:
                mapped = (parent if e.parent is None
                          else remap.get(e.parent, parent))
                self.events.append(TraceEvent(
                    e.name, e.t + t_offset, mapped,
                    {**e.attrs, **extra}))
        return len(closed)

    def open_spans(self) -> list[dict]:
        """The currently-open span stack, outermost first — the live
        ``/progress`` endpoint's "what phase are we in" view."""
        with self._lock:
            return [{"sid": s.sid, "name": s.name, "phase": s.phase}
                    for s in self._stack]

    # ------------------------------------------------------------------
    # resume / stitching support
    # ------------------------------------------------------------------
    def cursor(self) -> int:
        """Number of spans closed so far — the durable-progress cursor a
        checkpoint records so a resumed trace can be stitched."""
        with self._lock:
            return self._closed

    def mark_resumed(self, cursor: int) -> None:
        """Note that this trace continues a checkpointed one whose durable
        prefix is the first ``cursor`` closed spans."""
        self.resumed_cursor = int(cursor)
        self.meta["resumed_cursor"] = int(cursor)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def children(self, sid: int) -> list[Span]:
        return [s for s in self.spans if s.parent == sid]

    def totals(self) -> tuple[float, float, float]:
        """(work, span, span_model) summed over root spans."""
        return root_totals(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tracer(spans={len(self.spans)}, events={len(self.events)}, "
                f"open={len(self._stack)})")


# ---------------------------------------------------------------------------
# ambient tracer (a field of the run context)
# ---------------------------------------------------------------------------

def current_tracer() -> Tracer | None:
    """The ambient tracer installed by :func:`tracing`, or None."""
    return current_context().tracer


def tracing(tracer: Tracer | None) -> run_scope:
    """Install ``tracer`` as the ambient tracer for the enclosed block
    (``None`` masks the outer one); yields ``tracer``."""
    return run_scope(tracer=tracer)


def trace_span(name: str, acc: CostAccumulator | None = None,
               phase: str = "", **attrs):
    """Open a span on the ambient tracer — a shared no-op when tracing is
    off, so instrumentation sites cost one context read when disabled."""
    tr = current_context().tracer
    if tr is None:
        return NOOP_SPAN
    return tr.span(name, acc=acc, phase=phase, **attrs)


def trace_event(name: str, **attrs) -> None:
    """Record an instant event on the ambient tracer (no-op when off)."""
    tr = current_context().tracer
    if tr is not None:
        tr.event(name, **attrs)
