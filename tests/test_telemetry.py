"""Worker telemetry pipeline suite: cross-process span/metric shipping,
live HTTP exposition, and the per-phase profiler.

The load-bearing invariant throughout is *exactly-once accounting*:
in-worker telemetry rides only accepted ``ok`` results, and the pool's
epoch/duplicate filter discards stale straggler telemetry together with
the stale result — so per-element counters folded into the parent
registry equal the element count bit-exactly, independent of pool size,
re-dispatches, dropped results, or killed workers.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.analysis.tracetables import trace_worker_table
from repro.observability import Trace, Tracer, tracing, write_trace
from repro.observability.http import (
    HEALTH_SCHEMA,
    PROGRESS_SCHEMA,
    TelemetryServer,
    progress_snapshot,
)
from repro.observability.metrics import (
    MetricsRegistry,
    current_metrics,
    metering,
    metric_inc,
    parse_prometheus_text,
)
from repro.observability.profiler import (
    PROFILE_SCHEMA,
    PhaseProfiler,
    current_profiler,
    load_profile_json,
    profile_scope,
    profiling,
)
from repro.observability.tracer import NOOP_SPAN, current_tracer
from repro.observability.worker import (
    WorkerSession,
    in_worker_session,
    record_shipped_block,
    ship_flags,
    worker_event,
    worker_span,
)
from repro.resilience.faults import FaultPlan, FaultSpec, fault_scope
from repro.runtime.backends import ProcessForkJoinPool

pytestmark = [pytest.mark.telemetry, pytest.mark.observability]

ARR = np.arange(100)


def fast_pool(n_workers=2, **kw):
    kw.setdefault("grain", 8)
    kw.setdefault("heartbeat_interval", 0.02)
    kw.setdefault("liveness_timeout", 0.5)
    kw.setdefault("backoff_base", 0.01)
    kw.setdefault("straggler_factor", 100.0)
    return ProcessForkJoinPool(n_workers, **kw)


# ---------------------------------------------------------------------------
# module-level block functions (picklable by reference)
# ---------------------------------------------------------------------------

def _instrumented_square(lo, hi, arr):
    with worker_span("blk-square", lo=lo, hi=hi) as sp:
        sp.count("elems", hi - lo)
        with worker_span("blk-inner"):
            out = arr[lo:hi] ** 2
    worker_event("blk-done", lo=lo)
    metric_inc("repro_test_elems_total", hi - lo)
    return out


def _assert_no_orphans(trace: Trace) -> None:
    sids = {s.sid for s in trace.spans}
    for s in trace.spans:
        assert s.parent is None or s.parent in sids, \
            f"span {s.sid} ({s.name}) has orphan parent {s.parent}"


def _elems_total(reg: MetricsRegistry) -> float:
    fam = reg.state().get("repro_test_elems_total")
    return sum(fam["samples"].values()) if fam else 0.0


# ---------------------------------------------------------------------------
# worker-side session semantics (in-process unit tests)
# ---------------------------------------------------------------------------

class TestWorkerSession:
    def test_worker_span_is_noop_outside_session(self):
        assert not in_worker_session()
        assert worker_span("anything") is NOOP_SPAN
        worker_event("ignored")  # must not raise

    def test_session_records_spans_and_metrics(self):
        with WorkerSession((True, True)) as sess:
            assert in_worker_session()
            with worker_span("w1", lo=0, hi=10) as sp:
                sp.count("elems", 10)
            worker_event("ev", k=1)
            metric_inc("repro_test_elems_total", 10)
        assert not in_worker_session()
        t = sess.collect()
        assert [s.name for s in t.spans] == ["w1"]
        assert t.spans[0].counters["elems"] == 10
        assert [e.name for e in t.events] == ["ev"]
        assert t.wall >= 0.0 and t.cpu >= 0.0
        folded = MetricsRegistry.from_json(t.metrics)
        assert _elems_total(folded) == 10

    def test_session_with_telemetry_off_masks_parent_ambient(self):
        # the fork snapshot scenario: an (inherited) ambient tracer must
        # be invisible inside the session, and restored after
        tr = Tracer()
        reg = MetricsRegistry()
        with tracing(tr), metering(reg):
            with WorkerSession(None) as sess:
                assert current_tracer() is None
                assert current_metrics() is None
                assert not in_worker_session()
                assert worker_span("x") is NOOP_SPAN
            assert current_tracer() is tr
            assert current_metrics() is reg
        assert sess.collect() is None
        assert sess.progress() is None
        assert not tr.spans

    def test_span_cap_keeps_ancestors_and_counts_drops(self):
        with WorkerSession((True, False), max_spans=2) as sess:
            with worker_span("outer"):
                for _ in range(4):
                    with worker_span("leaf"):
                        pass
        t = sess.collect()
        assert len(t.spans) == 2
        assert t.dropped_spans == 3
        # sid-order prefix: a shipped child's parent is always shipped
        sids = {s.sid for s in t.spans}
        for s in t.spans:
            assert s.parent is None or s.parent in sids

    def test_progress_snapshot_from_heartbeat_thread(self):
        with WorkerSession((True, True)) as sess:
            with worker_span("w"):
                pass
            metric_inc("repro_test_elems_total", 1)
            spans, fams = sess.progress()
            # closing "w" also folded repro_spans_total/_wall_seconds
            assert spans == 1 and fams >= 1

    def test_ship_flags_mirror_ambient_planes(self):
        assert ship_flags() is None
        with tracing(Tracer()):
            assert ship_flags() == (True, False)
            with metering(MetricsRegistry()):
                assert ship_flags() == (True, True)
        with metering(MetricsRegistry()):
            assert ship_flags() == (False, True)


class TestRecordShippedBlock:
    def test_splice_nests_under_block_span_with_worker_attr(self):
        with WorkerSession((True, True)) as sess:
            with worker_span("w1"):
                with worker_span("w2"):
                    pass
            metric_inc("repro_test_elems_total", 7)
        telem = sess.collect()

        tr = Tracer()
        reg = MetricsRegistry()
        with tracing(tr), metering(reg):
            with tr.span("map-blocks") as dispatch:
                blk = record_shipped_block(telem, parent=dispatch.span.sid,
                                           wid=3, attempt=1, lo=0, hi=7)
        trace = Trace.from_tracer(tr)
        _assert_no_orphans(trace)
        assert blk.attrs["worker"] == 3
        assert blk.attrs["spans_shipped"] == 2
        by_name = {s.name: s for s in trace.spans}
        assert by_name["w1"].parent == blk.sid
        assert by_name["w2"].parent == by_name["w1"].sid
        assert by_name["w1"].attrs["worker"] == 3
        # metric deltas folded once; spliced spans NOT double-folded
        assert _elems_total(reg) == 7
        shipped = reg.state()["repro_worker_spans_shipped_total"]
        assert sum(shipped["samples"].values()) == 2

    def test_none_telemetry_still_records_block_marker(self):
        tr = Tracer()
        with tracing(tr):
            with tr.span("map-blocks") as dispatch:
                blk = record_shipped_block(None, parent=dispatch.span.sid,
                                           wid=0, attempt=2, lo=0, hi=5)
        assert blk.attrs["attempt"] == 2
        assert "spans_shipped" not in blk.attrs

    def test_noop_when_tracing_off(self):
        assert record_shipped_block(None, parent=None, wid=0, attempt=1,
                                    lo=0, hi=1) is None


# ---------------------------------------------------------------------------
# cross-process shipping through the real pool
# ---------------------------------------------------------------------------

class TestProcessShipping:
    def test_worker_spans_arrive_nested_with_worker_ids(self):
        tr = Tracer()
        reg = MetricsRegistry()
        with tracing(tr), metering(reg), fast_pool() as p:
            out = p.map_blocks(100, _instrumented_square, (ARR,))
        assert np.array_equal(np.concatenate(out), ARR ** 2)
        trace = Trace.from_tracer(tr)
        _assert_no_orphans(trace)
        blocks = [s for s in trace.spans if s.name == "map-blocks-block"]
        squares = [s for s in trace.spans if s.name == "blk-square"]
        inners = [s for s in trace.spans if s.name == "blk-inner"]
        assert blocks and len(squares) == len(blocks) == len(inners)
        block_sids = {s.sid for s in blocks}
        for s in squares:
            assert s.parent in block_sids
            assert "worker" in s.attrs
        for s in blocks:
            assert "worker" in s.attrs and s.attrs["backend"] == "process"
            assert s.attrs["spans_shipped"] == 2
        done = [e for e in trace.events if e.name == "blk-done"]
        assert len(done) == len(blocks)
        # per-element accounting: counters fold to exactly n
        assert _elems_total(reg) == 100
        assert sum(s.counters.get("elems", 0) for s in squares) == 100

    @pytest.mark.parametrize("workers", [1, 4])
    def test_metric_totals_are_pool_size_independent(self, workers):
        reg = MetricsRegistry()
        with metering(reg), fast_pool(workers) as p:
            p.map_blocks(100, _instrumented_square, (ARR,))
        assert _elems_total(reg) == 100

    @pytest.mark.parametrize("site", ["result_drop", "worker_kill"])
    def test_exactly_once_despite_faults(self, site):
        plan = FaultPlan([FaultSpec(site, calls=(1,))], seed=5)
        tr = Tracer()
        reg = MetricsRegistry()
        with tracing(tr), metering(reg), \
                fast_pool(liveness_timeout=0.2) as p, fault_scope(plan):
            out = p.map_blocks(100, _instrumented_square, (ARR,))
        assert np.array_equal(np.concatenate(out), ARR ** 2)
        assert plan.fired(site) >= 1
        # the faulted block's first telemetry died with its message;
        # the re-dispatched execution is folded exactly once
        assert _elems_total(reg) == 100
        trace = Trace.from_tracer(tr)
        _assert_no_orphans(trace)
        squares = [s for s in trace.spans if s.name == "blk-square"]
        assert sum(s.counters.get("elems", 0) for s in squares) == 100
        if site == "worker_kill":
            assert any(e.name == "worker-lost" for e in trace.events)

    def test_worker_table_rows_from_shipped_trace(self):
        tr = Tracer()
        with tracing(tr), fast_pool() as p:
            p.map_blocks(100, _instrumented_square, (ARR,))
        rows = trace_worker_table(Trace.from_tracer(tr))
        assert rows
        assert sum(r.values["blocks"] for r in rows) == 8
        for r in rows:
            assert r.params["backend"] == "process"
            assert r.values["spans_shipped"] == 2 * r.values["blocks"]
            assert r.values["losses"] == 0

    def test_telemetry_off_ships_nothing(self):
        with fast_pool() as p:
            out = p.map_blocks(100, _instrumented_square, (ARR,))
        assert np.array_equal(np.concatenate(out), ARR ** 2)


# ---------------------------------------------------------------------------
# live HTTP exposition
# ---------------------------------------------------------------------------

def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read().decode("utf-8")


class TestTelemetryHttp:
    def test_metrics_endpoint_roundtrips(self):
        reg = MetricsRegistry()
        reg.inc("repro_test_elems_total", 3.0, backend="serial")
        with TelemetryServer(registry=reg) as srv:
            status, text = _get(srv.url("/metrics"))
        assert status == 200
        parsed = parse_prometheus_text(text)
        assert _elems_total(parsed) == 3.0
        # the scrape itself is metered
        assert "repro_scrapes_total" in reg.state()

    def test_healthz_and_progress_schemas(self):
        reg = MetricsRegistry()
        tr = Tracer()
        with TelemetryServer(registry=reg, tracer=tr) as srv:
            with tr.span("solve", phase="solve"):
                with tr.span("scale", phase="scaling"):
                    _, health = _get(srv.url("/healthz"))
                    _, progress = _get(srv.url("/progress"))
        h = json.loads(health)
        assert h["schema"] == HEALTH_SCHEMA and h["ok"] is True
        pr = json.loads(progress)
        assert pr["schema"] == PROGRESS_SCHEMA
        assert pr["phase"] == "scale"
        assert pr["open_spans"] == ["solve", "scale"]

    def test_unknown_path_is_json_404(self):
        with TelemetryServer(registry=MetricsRegistry()) as srv:
            with pytest.raises(urllib.error.HTTPError) as ei:
                _get(srv.url("/nope"))
        assert ei.value.code == 404
        assert "/metrics" in ei.value.read().decode("utf-8")

    def test_concurrent_scrapes_never_tear_mid_solve(self):
        """Scrape /metrics continuously while the pool folds worker
        telemetry; every response must parse (no torn histograms)."""
        reg = MetricsRegistry()
        stop = threading.Event()
        errors: list[Exception] = []

        def hammer(url):
            while not stop.is_set():
                try:
                    _, text = _get(url)
                    parse_prometheus_text(text)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    return

        with TelemetryServer(registry=reg) as srv:
            t = threading.Thread(target=hammer,
                                 args=(srv.url("/metrics"),), daemon=True)
            t.start()
            try:
                with metering(reg), fast_pool() as p:
                    for _ in range(5):
                        p.map_blocks(100, _instrumented_square, (ARR,))
            finally:
                stop.set()
                t.join(5.0)
        assert not errors
        assert _elems_total(reg) == 500

    def test_progress_snapshot_defaults_to_ambient_and_tolerates_none(self):
        doc = progress_snapshot()
        assert doc["phase"] is None and doc["workers"] is None
        with fast_pool() as p:
            doc = progress_snapshot(backend=p)
            assert doc["workers"]["backend"] == "process"
            assert doc["workers"]["n_workers"] == 2

    def test_port_zero_resolves_and_stop_is_idempotent(self):
        srv = TelemetryServer(registry=MetricsRegistry(), port=0)
        srv.start()
        port = srv.port
        assert 0 < port <= 65535
        srv.stop()
        srv.stop()


# ---------------------------------------------------------------------------
# per-phase profiler
# ---------------------------------------------------------------------------

def _burn(k: int) -> int:
    return sum(i * i for i in range(k))


class TestPhaseProfiler:
    def test_profile_scope_is_noop_when_off(self):
        assert current_profiler() is None
        with profile_scope("anything"):
            pass  # shared no-op handle; nothing recorded anywhere

    def test_phases_accumulate_and_nested_scopes_fold_in(self):
        prof = PhaseProfiler()
        with profiling(prof):
            assert current_profiler() is prof
            for _ in range(3):
                with profile_scope("alpha"):
                    _burn(500)
                    with profile_scope("beta"):  # nested: absorbed
                        _burn(500)
            with profile_scope("beta"):
                _burn(100)
        assert prof.phases() == ["alpha", "beta"]
        assert prof.calls == {"alpha": 3, "beta": 1}
        assert prof.nested == {"beta": 3}
        summary = prof.summary()
        assert summary["alpha"]["calls"] == 3
        assert any("_burn" in r["func"]
                   for r in summary["alpha"]["functions"])
        assert summary["alpha"]["wall_s"] > 0

    def test_exports_roundtrip(self, tmp_path):
        prof = PhaseProfiler(top=5)
        with profiling(prof):
            with profile_scope("phase-x"):
                _burn(2000)
        paths = prof.write(tmp_path)
        assert (tmp_path / "phase-x.prof").is_file()
        doc = load_profile_json(paths["json"])
        assert doc["schema"] == PROFILE_SCHEMA
        assert "phase-x" in doc["phases"]
        assert len(doc["phases"]["phase-x"]["functions"]) <= 5
        collapsed = (tmp_path / "profile.collapsed").read_text()
        for line in collapsed.strip().splitlines():
            stack, _, weight = line.rpartition(" ")
            assert stack.startswith("phase-x;")
            assert int(weight) >= 0

    def test_profiled_solve_captures_algorithm_phases(self):
        from repro.core.sssp import solve_sssp
        from repro.graph.generators import hidden_potential_graph

        g = hidden_potential_graph(24, 70, seed=2)
        prof = PhaseProfiler()
        with profiling(prof):
            res = solve_sssp(g, 0, seed=0)
        assert not res.has_negative_cycle
        assert "scale" in prof.phases()
        assert "final-dijkstra" in prof.phases()

    def test_profiler_overhead_is_zero_by_construction_when_off(self):
        # the off-path guard is one context read + None test: assert the
        # fast path returns the shared singleton, not a new object
        a = profile_scope("x")
        b = profile_scope("y")
        assert a is b


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestTelemetryCli:
    @pytest.fixture()
    def graph_file(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["generate", "hidden-potential", "--n", "20",
                   "--m", "60"])
        assert rc == 0
        p = tmp_path / "g.gr"
        p.write_text(capsys.readouterr().out)
        return p

    def test_profile_command_prints_tables_and_exports(self, capsys,
                                                       tmp_path,
                                                       graph_file):
        from repro.cli import main

        outdir = tmp_path / "prof"
        rc = main(["profile", str(graph_file), "--output", str(outdir),
                   "--top", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "profiled phases" in out and "hot paths" in out
        assert (outdir / "profile.json").is_file()

    def test_solve_metrics_port_serves_and_is_validated(self, capsys,
                                                        graph_file):
        from repro.cli import main

        rc = main(["solve", str(graph_file), "--metrics-port", "70000"])
        assert rc == 2
        rc = main(["solve", str(graph_file), "--metrics-port", "0"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "c metrics: http://127.0.0.1:" in err

    def test_trace_profile_flag(self, capsys, tmp_path, graph_file):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        prof = tmp_path / "prof"
        assert main(["profile", str(graph_file), "--output",
                     str(prof)]) == 0
        assert main(["solve", str(graph_file), "--trace",
                     str(trace)]) == 0
        capsys.readouterr()
        rc = main(["trace", str(trace), "--profile", str(prof)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "profiled phases" in out and "hot paths" in out
