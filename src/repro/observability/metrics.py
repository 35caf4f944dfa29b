"""Metrics registry: counters, gauges, and histograms with labels.

The tracer (:mod:`repro.observability.tracer`) answers "where did *this
solve* spend its work?"; the metrics registry answers the fleet question —
"how many scales / retries / peel rounds / checkpoint bytes has this
process accumulated, and what do the distributions look like?" — in a form
scrapable by standard tooling.  A :class:`MetricsRegistry` holds named
metric families; each family fans out into labeled children
(``registry.counter("repro_engine_solves_total", labelnames=("engine",))``),
and two exporters serialize the whole registry: a schema-versioned JSON
document (:func:`write_metrics_json` / :func:`load_metrics_json`, lossless
roundtrip) and the Prometheus text exposition format
(:meth:`MetricsRegistry.to_prometheus` / :func:`parse_prometheus_text`).

Unification with the tracer
---------------------------
Installation mirrors the ambient tracer exactly: :func:`metering` sets the
registry field of the run context (:mod:`repro.runcontext`), and the
guarded helpers (:func:`metric_inc`, :func:`metric_set`,
:func:`metric_observe`) are one context read plus a ``None`` test when no
registry is installed — the same zero-cost-when-off contract as
:func:`~repro.observability.tracer.trace_span`.
The two layers compose: when both a tracer *and* a registry are active,
every closing span also bumps the registry (span counts per name/phase, a
wall-seconds histogram, model work/span counters, and each span counter as
a labeled ``repro_span_counter_total`` sample), so a scrape sees the same
ledger a trace file records.  Either layer works alone.

Metric naming follows Prometheus conventions: counters end in ``_total``,
units are spelled out (``_seconds``, ``_bytes``), and label cardinality is
kept small (phase/span names, not vertex ids).
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

from ..runcontext import current_context, run_scope

METRICS_SCHEMA_VERSION = 1
METRICS_SCHEMA = f"repro-metrics/{METRICS_SCHEMA_VERSION}"

# log-spaced default histogram buckets: wide enough for wall-seconds at the
# low end and model-work magnitudes at the high end
DEFAULT_BUCKETS = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
)

# Every metric name the codebase may emit, with kind and help text.  The
# RS008 lint rule rejects metric_inc/metric_set/metric_observe calls whose
# (string-literal) name is missing here, so dashboards, the JSON schema,
# and the Prometheus exposition never drift from the code.  Add new
# metrics HERE first, then emit them.
METRIC_CATALOG: dict[str, tuple[str, str]] = {
    # solver-level
    "repro_engine_solves_total":
        ("counter", "Completed solves by engine name"),
    "repro_solve_work": ("histogram", "Model work per engine solve"),
    "repro_solve_span_model": ("histogram", "Model span per engine solve"),
    "repro_fallbacks_total": ("counter", "Fallbacks to the exact baseline"),
    "repro_retries_total": ("counter", "Certified-retry attempts"),
    # pluggable SSSP engine registry
    "repro_bnw_scales_total": ("counter", "BNW ScaleDown phases by outcome"),
    "repro_bfd_rounds_total":
        ("counter", "Fischer BFD loop terminations by outcome"),
    # scaling / reweighting loop
    "repro_scales_total": ("counter", "Scaling phases entered"),
    "repro_scale_current": ("gauge", "Current scale index"),
    "repro_reweighting_iterations_total":
        ("counter", "Reweighting outer iterations"),
    # inner algorithm phases
    "repro_reach_calls_total": ("counter", "Multisource reachability calls"),
    "repro_reach_rounds_total": ("counter", "BFS rounds inside reachability"),
    "repro_refine_calls_total": ("counter", "Limited-SSSP refine calls"),
    "repro_peel_rounds_total": ("counter", "DAG01 peeling rounds"),
    "repro_label_changes_total": ("counter", "DAG01 label updates"),
    "repro_propagate_calls_total": ("counter", "DAG01 propagate calls"),
    # checkpoint / preemption
    "repro_checkpoint_writes_total": ("counter", "Checkpoints written"),
    "repro_checkpoint_bytes_total": ("counter", "Checkpoint bytes written"),
    # execution backends / worker fleet
    "repro_workers_spawned_total":
        ("counter", "Worker processes spawned by backend"),
    "repro_blocks_completed_total":
        ("counter", "map_blocks blocks completed by backend"),
    "repro_worker_losses_total":
        ("counter", "Workers lost mid-call (death or hang)"),
    "repro_worker_redispatches_total":
        ("counter", "Blocks re-dispatched after loss or straggling"),
    "repro_backend_demotions_total":
        ("counter", "Degradation-ladder rung changes"),
    # worker telemetry shipping (process backend -> parent registry)
    "repro_worker_spans_shipped_total":
        ("counter", "In-worker spans spliced into the parent trace"),
    "repro_worker_span_drops_total":
        ("counter", "Worker spans dropped by the per-block shipping cap"),
    # live exposition / profiler
    "repro_scrapes_total":
        ("counter", "Telemetry HTTP requests served by endpoint"),
    "repro_profile_phases_total":
        ("counter", "Profiler phase captures by phase name"),
    # span-fold metrics (emitted by MetricsRegistry.span_closed)
    "repro_spans_total": ("counter", "Closed tracer spans"),
    "repro_span_wall_seconds": ("histogram", "Span wall time"),
    "repro_span_work_total": ("counter", "Model work folded from spans"),
    "repro_span_model_span_total":
        ("counter", "Model span folded from spans"),
    "repro_span_errors_total": ("counter", "Spans closed by an exception"),
    "repro_span_counter_total": ("counter", "Span-local named counters"),
}

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "DEFAULT_BUCKETS",
    "METRIC_CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_metrics",
    "metering",
    "metric_inc",
    "metric_set",
    "metric_observe",
    "write_metrics_json",
    "load_metrics_json",
    "parse_prometheus_text",
]


def _label_key(labelnames: tuple, labels: dict) -> tuple:
    """The child key for ``labels`` — values in declared labelname order."""
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared labelnames "
            f"{sorted(labelnames)}")
    return tuple(str(labels[n]) for n in labelnames)


class _Family:
    """Shared machinery of one named metric family and its children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple = ()) -> None:
        if not name or not all(c.isalnum() or c in "_:" for c in name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(str(n) for n in labelnames)
        self._children: dict[tuple, float | _HistChild] = {}
        self._lock = threading.Lock()

    def _child_key(self, labels: dict) -> tuple:
        return _label_key(self.labelnames, labels)

    def samples(self) -> list[tuple[tuple, object]]:
        """(labelvalues, value) pairs in insertion order.

        Histogram children are copied under the family lock, so a
        concurrent scrape (``/metrics`` while a solve is observing) can
        never see a torn ``(bucket_counts, sum, count)`` triple —
        cumulative bucket lines, ``_sum`` and ``_count`` in one
        exposition always describe the same set of observations.
        """
        with self._lock:
            return [(key, value.copy() if isinstance(value, _HistChild)
                     else value)
                    for key, value in self._children.items()]


class Counter(_Family):
    """Monotonically non-decreasing value (events, bytes, model work)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._child_key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._children.get(self._child_key(labels), 0.0))


class Gauge(_Family):
    """A value that can go up and down (current scale, open spans)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._child_key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._child_key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._children.get(self._child_key(labels), 0.0))


class _HistChild:
    """One labeled histogram series: bucket counts + sum + count."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, nbuckets: int) -> None:
        self.bucket_counts = [0] * (nbuckets + 1)   # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def copy(self) -> "_HistChild":
        out = _HistChild(len(self.bucket_counts) - 1)
        out.bucket_counts = list(self.bucket_counts)
        out.sum = self.sum
        out.count = self.count
        return out


class Histogram(_Family):
    """Distribution of observations over fixed upper-bound buckets."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", labelnames: tuple = (),
                 buckets: tuple = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bs = tuple(float(b) for b in buckets)
        if not bs or sorted(bs) != list(bs):
            raise ValueError("buckets must be a non-empty ascending tuple")
        if math.isinf(bs[-1]):
            bs = bs[:-1]                            # +Inf is implicit
        self.buckets = bs

    def observe(self, value: float, **labels) -> None:
        key = self._child_key(labels)
        value = float(value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistChild(len(self.buckets))
            # first bucket whose upper bound admits the value (+Inf last)
            idx = len(self.buckets)
            for i, ub in enumerate(self.buckets):
                if value <= ub:
                    idx = i
                    break
            child.bucket_counts[idx] += 1
            child.sum += value
            child.count += 1

    def child(self, **labels) -> _HistChild | None:
        with self._lock:
            return self._children.get(self._child_key(labels))


class MetricsRegistry:
    """A named collection of metric families with JSON/Prometheus export.

    ``counter``/``gauge``/``histogram`` declare (or return the existing)
    family; the ``inc``/``set``/``observe`` conveniences auto-declare with
    labelnames inferred from the call, which is what the solver's
    instrumentation sites use — one line per site, no setup ceremony.
    """

    def __init__(self, **meta) -> None:
        self.meta = {str(k): v for k, v in meta.items()}
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def _declare(self, cls, name: str, help: str, labelnames: tuple,
                 **kwargs) -> _Family:
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if not isinstance(fam, cls):
                    raise ValueError(
                        f"metric {name!r} already declared as {fam.kind}")
                if tuple(labelnames) != fam.labelnames:
                    raise ValueError(
                        f"metric {name!r} already declared with labelnames "
                        f"{fam.labelnames}, not {tuple(labelnames)}")
                return fam
            fam = cls(name, help, tuple(labelnames), **kwargs)
            self._families[name] = fam
            return fam

    def counter(self, name: str, help: str = "",
                labelnames: tuple = ()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: tuple = (),
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._declare(Histogram, name, help, labelnames,
                             buckets=buckets)

    # ------------------------------------------------------------------
    # one-line instrumentation conveniences
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, /, *,
            help: str = "", **labels) -> None:
        self.counter(name, help, tuple(sorted(labels))).inc(amount, **labels)

    def set(self, name: str, value: float, /, *, help: str = "",
            **labels) -> None:
        self.gauge(name, help, tuple(sorted(labels))).set(value, **labels)

    def observe(self, name: str, value: float, /, *, help: str = "",
                buckets: tuple = DEFAULT_BUCKETS, **labels) -> None:
        self.histogram(name, help, tuple(sorted(labels)),
                       buckets=buckets).observe(value, **labels)

    # ------------------------------------------------------------------
    # tracer unification: called by Tracer._close for every closing span
    # ------------------------------------------------------------------
    def span_closed(self, span) -> None:
        """Fold one closed :class:`~repro.observability.tracer.Span` in."""
        phase = span.phase or "solve"
        self.inc("repro_spans_total", 1.0, name=span.name, phase=phase)
        self.observe("repro_span_wall_seconds", span.wall, name=span.name)
        if span.work:
            self.inc("repro_span_work_total", span.work, name=span.name)
        if span.span_model:
            self.inc("repro_span_model_span_total", span.span_model,
                     name=span.name)
        if span.error:
            self.inc("repro_span_errors_total", 1.0, name=span.name,
                     error=span.error)
        for cname, cval in span.counters.items():
            if cname.startswith("_"):
                continue
            self.inc("repro_span_counter_total", float(cval),
                     span=span.name, counter=cname)

    # ------------------------------------------------------------------
    # introspection / canonical state
    # ------------------------------------------------------------------
    def families(self) -> list[_Family]:
        with self._lock:
            return list(self._families.values())

    def state(self) -> dict:
        """Canonical nested dict of every sample — the equality basis the
        roundtrip tests compare (insertion order erased by sorting)."""
        out: dict = {}
        for fam in self.families():
            samples = {}
            for key, value in fam.samples():
                lk = ",".join(f"{n}={v}"
                              for n, v in zip(fam.labelnames, key))
                if isinstance(value, _HistChild):
                    samples[lk] = {"bucket_counts": list(value.bucket_counts),
                                   "sum": value.sum, "count": value.count}
                else:
                    samples[lk] = value
            out[fam.name] = {
                "type": fam.kind,
                "labelnames": list(fam.labelnames),
                "samples": dict(sorted(samples.items())),
                **({"buckets": list(fam.buckets)}
                   if isinstance(fam, Histogram) else {}),
            }
        return out

    # ------------------------------------------------------------------
    # JSON exporter (lossless roundtrip)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        doc = {"schema": METRICS_SCHEMA, "meta": dict(self.meta),
               "metrics": []}
        for fam in self.families():
            rec = {"name": fam.name, "type": fam.kind, "help": fam.help,
                   "labelnames": list(fam.labelnames), "samples": []}
            if isinstance(fam, Histogram):
                rec["buckets"] = list(fam.buckets)
            for key, value in fam.samples():
                labels = dict(zip(fam.labelnames, key))
                if isinstance(value, _HistChild):
                    rec["samples"].append(
                        {"labels": labels,
                         "bucket_counts": list(value.bucket_counts),
                         "sum": value.sum, "count": value.count})
                else:
                    rec["samples"].append({"labels": labels, "value": value})
            doc["metrics"].append(rec)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "MetricsRegistry":
        if doc.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"unknown metrics schema {doc.get('schema')!r} "
                f"(expected {METRICS_SCHEMA})")
        reg = cls(**doc.get("meta", {}))
        for rec in doc.get("metrics", ()):
            name, kind = rec["name"], rec["type"]
            labelnames = tuple(rec.get("labelnames", ()))
            help_ = rec.get("help", "")
            if kind == "counter":
                fam = reg.counter(name, help_, labelnames)
                for s in rec["samples"]:
                    fam.inc(float(s["value"]), **s["labels"])
            elif kind == "gauge":
                fam = reg.gauge(name, help_, labelnames)
                for s in rec["samples"]:
                    fam.set(float(s["value"]), **s["labels"])
            elif kind == "histogram":
                fam = reg.histogram(name, help_, labelnames,
                                    buckets=tuple(rec["buckets"]))
                for s in rec["samples"]:
                    key = fam._child_key(s["labels"])
                    child = _HistChild(len(fam.buckets))
                    child.bucket_counts = [int(c)
                                           for c in s["bucket_counts"]]
                    child.sum = float(s["sum"])
                    child.count = int(s["count"])
                    fam._children[key] = child
            else:
                raise ValueError(f"unknown metric type {kind!r}")
        return reg

    # ------------------------------------------------------------------
    # cross-process folding (worker telemetry shipping)
    # ------------------------------------------------------------------
    def fold(self, doc: "dict | MetricsRegistry") -> None:
        """Merge another registry's samples into this one.

        ``doc`` is a registry or its :meth:`to_json` document (the form
        shipped over a worker pipe).  Counters and histogram series
        *add* — a worker registry is a pure delta (fresh per block), so
        folding every accepted block's registry accounts each sample
        exactly once regardless of pool size or re-dispatch, mirroring
        how block *results* are deduplicated.  Gauges take the folded
        value (last-write-wins, the same semantics as :meth:`set`).
        """
        if isinstance(doc, MetricsRegistry):
            doc = doc.to_json()
        if doc.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"unknown metrics schema {doc.get('schema')!r} "
                f"(expected {METRICS_SCHEMA})")
        for rec in doc.get("metrics", ()):
            name, kind = rec["name"], rec["type"]
            labelnames = tuple(rec.get("labelnames", ()))
            help_ = rec.get("help", "")
            if kind == "counter":
                cfam = self.counter(name, help_, labelnames)
                for s in rec["samples"]:
                    cfam.inc(float(s["value"]), **s["labels"])
            elif kind == "gauge":
                gfam = self.gauge(name, help_, labelnames)
                for s in rec["samples"]:
                    gfam.set(float(s["value"]), **s["labels"])
            elif kind == "histogram":
                buckets = tuple(float(b) for b in rec["buckets"])
                hfam = self.histogram(name, help_, labelnames,
                                      buckets=buckets)
                if hfam.buckets != buckets:
                    raise ValueError(
                        f"histogram {name!r} folded with buckets "
                        f"{buckets}, declared {hfam.buckets}")
                for s in rec["samples"]:
                    key = hfam._child_key(s["labels"])
                    with hfam._lock:
                        child = hfam._children.get(key)
                        if not isinstance(child, _HistChild):
                            child = hfam._children[key] = _HistChild(
                                len(hfam.buckets))
                        for i, c in enumerate(s["bucket_counts"]):
                            child.bucket_counts[i] += int(c)
                        child.sum += float(s["sum"])
                        child.count += int(s["count"])
            else:
                raise ValueError(f"unknown metric type {kind!r}")

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        lines: list[str] = []
        for fam in self.families():
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for key, value in fam.samples():
                labels = dict(zip(fam.labelnames, key))
                if isinstance(value, _HistChild):
                    cum = 0
                    for ub, c in zip(list(fam.buckets) + [math.inf],
                                     value.bucket_counts):
                        cum += c
                        le = "+Inf" if math.isinf(ub) else _fmt_num(ub)
                        lines.append(_sample_line(
                            fam.name + "_bucket",
                            {**labels, "le": le}, cum))
                    lines.append(_sample_line(fam.name + "_sum", labels,
                                              value.sum))
                    lines.append(_sample_line(fam.name + "_count", labels,
                                              value.count))
                else:
                    lines.append(_sample_line(fam.name, labels, value))
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_num(v: float) -> str:
    """Shortest exact-enough number formatting for exposition lines."""
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _sample_line(name: str, labels: dict, value) -> str:
    if labels:
        body = ",".join(
            f'{k}="{_escape_label(str(v))}"' for k, v in labels.items())
        return f"{name}{{{body}}} {_fmt_num(value)}"
    return f"{name} {_fmt_num(value)}"


def _escape_label(v: str) -> str:
    return v.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _unescape_label(v: str) -> str:
    out, i = [], 0
    while i < len(v):
        if v[i] == "\\" and i + 1 < len(v):
            nxt = v[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(v[i])
            i += 1
    return "".join(out)


def _parse_labels(body: str) -> dict:
    labels: dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq].strip().rstrip()
        assert body[eq + 1] == '"', "label value must be quoted"
        j = eq + 2
        buf = []
        while body[j] != '"':
            if body[j] == "\\":
                buf.append(body[j:j + 2])
                j += 2
            else:
                buf.append(body[j])
                j += 1
        labels[name] = _unescape_label("".join(buf))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return labels


def parse_prometheus_text(text: str) -> "MetricsRegistry":
    """Parse the exposition format :meth:`MetricsRegistry.to_prometheus`
    writes back into a registry (the Prometheus roundtrip test's other
    half).  Supports the subset this module emits: counter, gauge, and
    histogram families with ``# HELP`` / ``# TYPE`` headers."""
    reg = MetricsRegistry()
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    # histogram series are reassembled after the scan: name -> labelkey ->
    # {"buckets": [(le, cum)], "sum": x, "count": n, "labels": {...}}
    hist_acc: dict[str, dict] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_ = rest.partition(" ")
            helps[name] = help_
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name = line[:line.index("{")]
            body = line[line.index("{") + 1:line.rindex("}")]
            labels = _parse_labels(body)
            value = float(line[line.rindex("}") + 1:].strip())
        else:
            name, _, v = line.partition(" ")
            labels, value = {}, float(v.strip())
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and \
                    types.get(name[:-len(suffix)]) == "histogram":
                base = name[:-len(suffix)]
                break
        kind = types.get(base, "gauge")
        if kind == "histogram":
            bare = {k: v2 for k, v2 in labels.items() if k != "le"}
            lk = tuple(sorted(bare.items()))
            acc = hist_acc.setdefault(base, {}).setdefault(
                lk, {"buckets": [], "sum": 0.0, "count": 0, "labels": bare})
            if name.endswith("_bucket"):
                acc["buckets"].append((labels["le"], value))
            elif name.endswith("_sum"):
                acc["sum"] = value
            elif name.endswith("_count"):
                acc["count"] = int(value)
        elif kind == "counter":
            reg.counter(base, helps.get(base, ""),
                        tuple(labels)).inc(value, **labels)
        else:
            reg.gauge(base, helps.get(base, ""),
                      tuple(labels)).set(value, **labels)
    for base, series in hist_acc.items():
        for lk, acc in series.items():
            finite = [float(le) for le, _ in acc["buckets"]
                      if le != "+Inf"]
            fam = reg.histogram(base, helps.get(base, ""),
                                tuple(acc["labels"]),
                                buckets=tuple(finite) or DEFAULT_BUCKETS)
            key = fam._child_key(acc["labels"])
            child = _HistChild(len(fam.buckets))
            cums = [c for _, c in acc["buckets"]]
            child.bucket_counts = [int(c - (cums[i - 1] if i else 0))
                                   for i, c in enumerate(cums)]
            child.sum = acc["sum"]
            child.count = acc["count"]
            fam._children[key] = child
    return reg


def write_metrics_json(registry: MetricsRegistry, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(registry.to_json(), indent=2,
                               sort_keys=False) + "\n", encoding="utf-8")
    return path


def load_metrics_json(path) -> MetricsRegistry:
    return MetricsRegistry.from_json(
        json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# ambient registry (a field of the run context, like the ambient tracer)
# ---------------------------------------------------------------------------

def current_metrics() -> MetricsRegistry | None:
    """The ambient registry installed by :func:`metering`, or None."""
    return current_context().metrics


def metering(registry: MetricsRegistry | None) -> run_scope:
    """Install ``registry`` as the ambient registry for the enclosed
    block (``None`` masks the outer one); yields ``registry``."""
    return run_scope(metrics=registry)


def metric_inc(name: str, amount: float = 1.0, /, **labels) -> None:
    """Bump counter ``name`` on the ambient registry (no-op when off)."""
    reg = current_context().metrics
    if reg is not None:
        reg.inc(name, amount, **labels)


def metric_set(name: str, value: float, /, **labels) -> None:
    """Set gauge ``name`` on the ambient registry (no-op when off)."""
    reg = current_context().metrics
    if reg is not None:
        reg.set(name, value, **labels)


def metric_observe(name: str, value: float, /, **labels) -> None:
    """Observe into histogram ``name`` on the ambient registry (no-op
    when off)."""
    reg = current_context().metrics
    if reg is not None:
        reg.observe(name, value, **labels)
