"""Trace exporters and trace-file tooling.

Two formats:

``jsonl``
    One JSON object per line: a ``trace-meta`` header, then every span (in
    start order) and every instant event.  This is the format
    :func:`load_trace` reads back and the analysis layer
    (:mod:`repro.analysis.tracetables`) consumes.

``chrome``
    A single JSON object with ``traceEvents`` — the Chrome trace / Perfetto
    format (`chrome://tracing`, https://ui.perfetto.dev).  Spans become
    complete ("X") events with microsecond timestamps; instant events
    become "i" events; the model work/span deltas and all counters ride
    along in ``args``.

Stitching: a checkpointed solve records the tracer's closed-span cursor in
every :class:`~repro.resilience.checkpoint.ScaleCheckpoint`; a resumed
solve's tracer carries ``resumed_cursor``.  :func:`stitch_traces` then
concatenates the durable prefix of the interrupted trace with the resumed
trace, and :func:`phase_sequence` projects either onto the algorithm-phase
sequence the golden/stitch tests compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .tracer import Span, TraceEvent, Tracer, root_totals

TRACE_FORMAT_VERSION = 1

# span names that constitute the algorithm's phase sequence (containers
# like "solve"/"attempt"/"scaling" and bookkeeping like
# "checkpoint-restore" are deliberately absent)
PHASE_SPAN_NAMES = (
    "scale",
    "reweighting-iteration",
    "scc",
    "dag01",
    "dag01-peeling",
    "peel-round",
    "chain-elimination",
    "limited-sssp",
    "refine",
    "reach",
    "final-dijkstra",
    "fallback-bellman-ford",
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "PHASE_SPAN_NAMES",
    "Trace",
    "write_trace",
    "write_jsonl",
    "write_chrome_trace",
    "load_trace",
    "phase_sequence",
    "stitch_traces",
]


def _json_safe(value):
    """Coerce numpy scalars / exotic values into JSON-encodable ones."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):          # numpy scalar
        return value.item()
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


@dataclass
class Trace:
    """An in-memory trace: what a tracer recorded, or a file read back."""

    meta: dict = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "Trace":
        return cls(meta=dict(tracer.meta), spans=list(tracer.spans),
                   events=list(tracer.events))

    @property
    def resumed_cursor(self) -> int | None:
        c = self.meta.get("resumed_cursor")
        return int(c) if c is not None else None

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def children(self, sid: int) -> list[Span]:
        return [s for s in self.spans if s.parent == sid]

    def totals(self) -> tuple[float, float, float]:
        """(work, span, span_model) summed over root spans."""
        return root_totals(self.spans)


def _span_record(s: Span) -> dict:
    return {
        "kind": "span",
        "sid": s.sid,
        "parent": s.parent,
        "name": s.name,
        "phase": s.phase,
        "start_seq": s.start_seq,
        "closed_seq": s.closed_seq,
        "t_start": s.t_start,
        "t_end": s.t_end,
        "work": s.work,
        "span": s.span,
        "span_model": s.span_model,
        "attrs": _json_safe(s.attrs),
        "counters": _json_safe(s.counters),
        "error": s.error,
    }


def write_jsonl(trace: Trace | Tracer, path) -> Path:
    """Write the trace as JSON lines; returns the path written."""
    if isinstance(trace, Tracer):
        trace = Trace.from_tracer(trace)
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        header = {"kind": "trace-meta", "version": TRACE_FORMAT_VERSION,
                  "spans": len(trace.spans), "events": len(trace.events),
                  **_json_safe(trace.meta)}
        f.write(json.dumps(header, separators=(",", ":")) + "\n")
        for s in trace.spans:
            f.write(json.dumps(_span_record(s), separators=(",", ":")) + "\n")
        for e in trace.events:
            f.write(json.dumps(
                {"kind": "event", "name": e.name, "t": e.t,
                 "parent": e.parent, "attrs": _json_safe(e.attrs)},
                separators=(",", ":")) + "\n")
    return path


def write_chrome_trace(trace: Trace | Tracer, path) -> Path:
    """Write the trace in Chrome-trace format (Perfetto-loadable)."""
    if isinstance(trace, Tracer):
        trace = Trace.from_tracer(trace)
    path = Path(path)
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": "repro solve"},
    }]
    for s in trace.spans:
        t_end = s.t_end if s.t_end is not None else s.t_start
        events.append({
            "name": s.name,
            "cat": s.phase or "solve",
            "ph": "X",
            "ts": round(s.t_start * 1e6, 3),
            "dur": round(max(t_end - s.t_start, 0.0) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": _json_safe({
                "sid": s.sid, "parent": s.parent,
                "work": s.work, "span": s.span,
                "span_model": s.span_model,
                **s.attrs, **s.counters,
                **({"error": s.error} if s.error else {}),
            }),
        })
    for e in trace.events:
        events.append({
            "name": e.name, "cat": "event", "ph": "i", "s": "t",
            "ts": round(e.t * 1e6, 3), "pid": 1, "tid": 1,
            "args": _json_safe(e.attrs),
        })
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": _json_safe(trace.meta)}
    path = Path(path)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_trace(trace: Trace | Tracer, path, fmt: str = "jsonl") -> Path:
    """Dispatch on ``fmt`` ("jsonl" or "chrome")."""
    if fmt == "jsonl":
        return write_jsonl(trace, path)
    if fmt == "chrome":
        return write_chrome_trace(trace, path)
    raise ValueError(f"unknown trace format {fmt!r} "
                     "(expected 'jsonl' or 'chrome')")


def load_trace(path) -> Trace:
    """Read a JSONL trace back into a :class:`Trace`."""
    trace = Trace()
    with Path(path).open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSONL trace line: {exc}"
                ) from exc
            kind = obj.get("kind")
            if kind == "trace-meta":
                meta = {k: v for k, v in obj.items()
                        if k not in ("kind", "version", "spans", "events")}
                trace.meta.update(meta)
            elif kind == "span":
                trace.spans.append(Span(
                    sid=int(obj["sid"]), parent=obj["parent"],
                    name=str(obj["name"]), phase=str(obj["phase"]),
                    start_seq=int(obj["start_seq"]),
                    t_start=float(obj["t_start"]),
                    t_end=(None if obj["t_end"] is None
                           else float(obj["t_end"])),
                    closed_seq=int(obj["closed_seq"]),
                    work=float(obj["work"]), span=float(obj["span"]),
                    span_model=float(obj["span_model"]),
                    attrs=dict(obj["attrs"]), counters=dict(obj["counters"]),
                    error=obj.get("error")))
            elif kind == "event":
                trace.events.append(TraceEvent(
                    name=str(obj["name"]), t=float(obj["t"]),
                    parent=obj["parent"], attrs=dict(obj["attrs"])))
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown trace record kind {kind!r}")
    return trace


def phase_sequence(trace: Trace, names=PHASE_SPAN_NAMES,
                   with_attrs=("scale", "iteration", "d", "size", "limit"),
                   ) -> list[tuple]:
    """The algorithm-phase sequence of a trace, in span start order.

    Each entry is ``(name, (attr, value), ...)`` for the attrs present —
    a stable, wall-time-free projection suitable for golden comparisons.
    """
    nameset = set(names)
    out = []
    for s in sorted(trace.spans, key=lambda s: s.start_seq):
        if s.name not in nameset:
            continue
        keyed = tuple((a, s.attrs[a]) for a in with_attrs if a in s.attrs)
        out.append((s.name, *keyed))
    return out


def stitch_traces(first: Trace, resumed: Trace,
                  cursor: int | None = None) -> Trace:
    """Stitch an interrupted trace and its resumed continuation.

    The durable prefix of ``first`` is its spans with
    ``closed_seq < cursor`` — exactly the spans that had closed when the
    checkpoint the resume started from was written (``cursor`` defaults to
    ``resumed.meta["resumed_cursor"]``).  The resumed trace contributes
    everything except its ``checkpoint-restore`` bookkeeping.  Span ids
    are left untouched (the two halves keep their own id spaces); the
    result is meant for sequence/aggregate analysis, e.g.
    :func:`phase_sequence`, not for re-export.
    """
    if cursor is None:
        cursor = resumed.resumed_cursor
    if cursor is None:
        raise ValueError(
            "resumed trace carries no resumed_cursor; pass cursor= "
            "explicitly")
    prefix = [s for s in first.spans
              if s.closed and 0 <= s.closed_seq < cursor]
    prefix.sort(key=lambda s: s.start_seq)
    restore_ids = {s.sid for s in resumed.spans
                   if s.name == "checkpoint-restore"}
    # the resumed tracer's sequence counters restart at 0, so shift its
    # spans past the prefix — otherwise start-order sorts (phase_sequence)
    # would interleave the two halves
    seq_base = max((s.start_seq for s in prefix), default=-1) + 1
    cont = [replace(s,
                    start_seq=s.start_seq + seq_base,
                    closed_seq=(s.closed_seq + cursor if s.closed
                                else s.closed_seq))
            for s in sorted(resumed.spans, key=lambda s: s.start_seq)
            if s.sid not in restore_ids]
    meta = {**first.meta, "stitched": True, "stitch_cursor": int(cursor)}
    return Trace(meta=meta, spans=prefix + cont,
                 events=list(first.events) + list(resumed.events))
