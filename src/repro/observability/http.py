"""Live telemetry exposition over HTTP (stdlib only).

A :class:`TelemetryServer` serves three endpoints from a background
daemon thread while a solve (or bench run) executes:

``/metrics``
    The metrics registry in Prometheus text exposition format — the
    exact output of :meth:`~repro.observability.metrics.MetricsRegistry.
    to_prometheus`, round-trippable via :func:`~repro.observability.
    metrics.parse_prometheus_text`.  Snapshots are taken under the
    per-family locks, so a scrape concurrent with a solve never sees a
    torn histogram.

``/healthz``
    Liveness: ``{"ok": true, "uptime_s": ...}``.

``/progress``
    A JSON snapshot (:func:`progress_snapshot`, schema
    ``repro-progress/1``) of where the solve *is*: the open span stack
    (current phase), current scale, blocks completed, worker liveness
    from the execution backend, and degradation-ladder demotions.

The server binds ``127.0.0.1`` only — this is an operator peephole, not
a public surface — and ``port=0`` asks the kernel for a free port (the
bound port is available as :attr:`TelemetryServer.port`, which is how
the CLI's ``--metrics-port 0`` and the tests avoid collisions).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .metrics import MetricsRegistry, current_metrics
from .tracer import Tracer, current_tracer

PROGRESS_SCHEMA = "repro-progress/1"
HEALTH_SCHEMA = "repro-healthz/1"

__all__ = [
    "PROGRESS_SCHEMA",
    "HEALTH_SCHEMA",
    "TelemetryServer",
    "progress_snapshot",
]


def _counter_total(state: dict, name: str) -> float:
    fam = state.get(name)
    if fam is None or fam.get("type") != "counter":
        return 0.0
    return float(sum(v for v in fam["samples"].values()
                     if isinstance(v, (int, float))))


def _gauge_value(state: dict, name: str) -> float | None:
    fam = state.get(name)
    if fam is None or fam.get("type") != "gauge":
        return None
    for v in fam["samples"].values():
        if isinstance(v, (int, float)):
            return float(v)
    return None


def progress_snapshot(registry: MetricsRegistry | None = None,
                      tracer: Tracer | None = None,
                      backend: Any = None, *,
                      uptime_s: float | None = None) -> dict:
    """The ``/progress`` document: current phase, scale, completed
    blocks, worker liveness, and demotions.

    Any argument left None falls back to the ambient installation; a
    missing plane contributes nulls/empties rather than failing, so the
    endpoint is useful from the first request to the last.
    """
    reg = registry if registry is not None else current_metrics()
    tr = tracer if tracer is not None else current_tracer()
    out: dict[str, Any] = {
        "schema": PROGRESS_SCHEMA,
        "uptime_s": uptime_s,
        "phase": None,
        "open_spans": [],
        "spans_closed": 0,
        "scale": None,
        "blocks_completed": 0.0,
        "solves_completed": 0.0,
        "workers": None,
        "demotions": [],
    }
    if tr is not None:
        stack = tr.open_spans()
        out["open_spans"] = [s["name"] for s in stack]
        if stack:
            out["phase"] = stack[-1]["name"]
        out["spans_closed"] = tr.cursor()
    if reg is not None:
        state = reg.state()
        out["scale"] = _gauge_value(state, "repro_scale_current")
        out["blocks_completed"] = _counter_total(
            state, "repro_blocks_completed_total")
        out["solves_completed"] = _counter_total(
            state, "repro_engine_solves_total")
    if backend is not None:
        live = getattr(backend, "live_status", None)
        if callable(live):
            out["workers"] = live()
        telem = getattr(backend, "telemetry", None)
        if callable(telem):
            out["demotions"] = telem().get("demotions", [])
    return out


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-telemetry/1"
    owner: "TelemetryServer"  # set on the subclass by TelemetryServer

    def do_GET(self) -> None:  # noqa: N802  (stdlib handler API)
        path = self.path.split("?", 1)[0]
        owner = self.owner
        if path == "/metrics":
            reg = owner.registry
            text = reg.to_prometheus() if reg is not None else ""
            if reg is not None:
                reg.inc("repro_scrapes_total", 1.0,
                        help="Telemetry HTTP requests served by endpoint",
                        endpoint="/metrics")
            self._respond(200, text,
                          "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            doc = {"schema": HEALTH_SCHEMA, "ok": True,
                   "uptime_s": round(owner.uptime(), 3)}
            self._respond_json(200, doc)
        elif path == "/progress":
            doc = progress_snapshot(owner.registry, owner.tracer,
                                    owner.backend,
                                    uptime_s=round(owner.uptime(), 3))
            reg = owner.registry
            if reg is not None:
                reg.inc("repro_scrapes_total", 1.0,
                        help="Telemetry HTTP requests served by endpoint",
                        endpoint="/progress")
            self._respond_json(200, doc)
        else:
            self._respond_json(404, {"error": f"unknown path {path!r}",
                                     "paths": ["/metrics", "/healthz",
                                               "/progress"]})

    def _respond_json(self, status: int, doc: dict) -> None:
        self._respond(status, json.dumps(doc, indent=2) + "\n",
                      "application/json")

    def _respond(self, status: int, body: str, ctype: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # scraper went away mid-response; nothing to clean up

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # quiet: scrapes must not pollute solver stdout/stderr


class TelemetryServer:
    """Serve ``/metrics`` + ``/healthz`` + ``/progress`` from a daemon
    thread for the duration of a solve.

    It serves the ``registry`` and ``tracer`` it is given — a plane left
    None is served empty — and nothing else: its request threads run
    outside the solve's run context.  Both attributes may be reassigned
    between solves.  Usable as a context manager; :meth:`stop` is
    idempotent.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None, backend: Any = None, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry
        self.tracer = tracer
        self.backend = backend
        self.host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._t0 = time.monotonic()

    # -- wiring ---------------------------------------------------------

    def uptime(self) -> float:
        return time.monotonic() - self._t0

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        if self._httpd is None:
            return self._requested_port
        return int(self._httpd.server_address[1])

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        handler = type("_BoundHandler", (_Handler,), {"owner": self})
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler)
        self._httpd.daemon_threads = True
        self._t0 = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True, name="repro-telemetry-http")
        self._thread.start()
        return self

    def stop(self) -> None:
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(2.0)

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
