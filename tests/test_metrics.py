"""Metrics registry: semantics, exporter roundtrips, tracer unification.

The exporters must be *lossless*: ``state()`` (the canonical nested dict)
is the equality basis, and both the JSON document and the Prometheus text
exposition must reconstruct a registry with an identical state.  The
tracer-unification tests pin the contract that every closing span folds
into the bound-or-ambient registry, and the solver-integration tests pin
the first-class phase metrics (scales, retries, peel rounds, reach calls,
refine calls, checkpoint bytes) that `ISSUE`'s observability story hangs
off.
"""

from __future__ import annotations

import pytest

from repro.core.scaling import scaled_reweighting
from repro.core.sssp import solve_sssp, solve_sssp_resilient
from repro.graph.generators import hidden_potential_graph, random_digraph
from repro.observability import (
    METRICS_SCHEMA,
    MetricsRegistry,
    Tracer,
    current_metrics,
    load_metrics_json,
    metering,
    metric_inc,
    metric_observe,
    metric_set,
    parse_prometheus_text,
    trace_span,
    tracing,
    write_metrics_json,
)
from repro.observability.http import progress_snapshot

pytestmark = pytest.mark.observability


# ---------------------------------------------------------------------------
# family semantics
# ---------------------------------------------------------------------------

class TestFamilies:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_events_total", "events", ("kind",))
        c.inc(kind="a")
        c.inc(2.5, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3.5
        assert c.value(kind="b") == 1.0
        assert c.value(kind="missing") == 0.0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            reg.counter("repro_events_total").inc(-1)

    def test_gauge_goes_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_scale_current")
        g.set(16)
        g.inc(-8)
        assert g.value() == 8.0

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_wall_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        child = h.child()
        assert child.bucket_counts == [1, 2, 1, 1]  # last is +Inf overflow
        assert child.count == 5
        assert child.sum == pytest.approx(56.05)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="ascending"):
            reg.histogram("repro_bad", buckets=(1.0, 0.5))

    def test_invalid_metric_name(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("bad name")

    def test_label_mismatch(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_events_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="do not match"):
            c.inc(other="x")


class TestRegistryDeclaration:
    def test_redeclare_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_events_total", labelnames=("kind",))
        b = reg.counter("repro_events_total", labelnames=("kind",))
        assert a is b

    def test_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError, match="already declared as counter"):
            reg.gauge("repro_x_total")

    def test_labelname_conflict(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", labelnames=("a",))
        with pytest.raises(ValueError, match="labelnames"):
            reg.counter("repro_x_total", labelnames=("b",))

    def test_convenience_autodeclare(self):
        reg = MetricsRegistry()
        reg.inc("repro_engine_solves_total", engine="goldberg_parallel")
        reg.inc("repro_engine_solves_total", 2,
                engine="goldberg_sequential")
        reg.set("repro_scale_current", 4)
        reg.observe("repro_solve_work", 123.0)
        st = reg.state()
        solves = st["repro_engine_solves_total"]
        assert solves["type"] == "counter"
        assert solves["samples"]["engine=goldberg_parallel"] == 1.0
        assert solves["samples"]["engine=goldberg_sequential"] == 2.0
        assert st["repro_scale_current"]["samples"][""] == 4.0
        assert st["repro_solve_work"]["samples"][""]["count"] == 1

    def test_labels_named_name_and_value_work(self):
        # the convenience params are positional-only precisely so these
        # label names (used by span_closed) cannot collide
        reg = MetricsRegistry()
        reg.inc("repro_spans_total", 1.0, name="scale", value="x")
        assert reg.state()["repro_spans_total"]["samples"][
            "name=scale,value=x"] == 1.0


# ---------------------------------------------------------------------------
# exporter roundtrips
# ---------------------------------------------------------------------------

def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry(run="roundtrip-test")
    reg.inc("repro_engine_solves_total", 3, help="solves",
            engine="goldberg_parallel", outcome="distances")
    reg.inc("repro_engine_solves_total", 1, engine="goldberg_parallel",
            outcome="negative_cycle")
    reg.inc("repro_checkpoint_bytes_total", 4096.5)
    reg.set("repro_scale_current", 8, help="current scale")
    reg.observe("repro_solve_work", 58859.64474916778, help="model work")
    reg.observe("repro_solve_work", 0.25)
    reg.observe("repro_span_wall_seconds", 0.0421, name="scale",
                buckets=(0.01, 0.1, 1.0))
    return reg


class TestJsonRoundtrip:
    def test_state_survives(self):
        reg = _populated_registry()
        back = MetricsRegistry.from_json(reg.to_json())
        assert back.state() == reg.state()
        assert back.meta == reg.meta

    def test_file_roundtrip(self, tmp_path):
        reg = _populated_registry()
        path = write_metrics_json(reg, tmp_path / "metrics.json")
        assert load_metrics_json(path).state() == reg.state()

    def test_schema_is_versioned(self):
        doc = _populated_registry().to_json()
        assert doc["schema"] == METRICS_SCHEMA
        doc["schema"] = "repro-metrics/999"
        with pytest.raises(ValueError, match="unknown metrics schema"):
            MetricsRegistry.from_json(doc)


class TestPrometheusRoundtrip:
    def test_state_survives(self):
        reg = _populated_registry()
        back = parse_prometheus_text(reg.to_prometheus())
        assert back.state() == reg.state()

    def test_exposition_format(self):
        text = _populated_registry().to_prometheus()
        assert "# TYPE repro_engine_solves_total counter" in text
        assert "# HELP repro_engine_solves_total solves" in text
        assert "# TYPE repro_scale_current gauge" in text
        assert "# TYPE repro_solve_work histogram" in text
        assert ('repro_engine_solves_total{engine="goldberg_parallel",'
                'outcome="distances"} 3') in text
        # histogram series: cumulative buckets, +Inf, _sum, _count
        assert 'le="+Inf"' in text
        assert "repro_solve_work_sum" in text
        assert "repro_solve_work_count 2" in text

    def test_label_escaping_roundtrip(self):
        reg = MetricsRegistry()
        nasty = 'quote " backslash \\ newline \n done'
        reg.inc("repro_events_total", 1.0, kind=nasty)
        back = parse_prometheus_text(reg.to_prometheus())
        assert back.state() == reg.state()


# ---------------------------------------------------------------------------
# tracer unification
# ---------------------------------------------------------------------------

class TestTracerUnification:
    def test_bound_registry_collects_spans(self):
        reg = MetricsRegistry()
        tr = Tracer(metrics=reg)
        with tracing(tr):
            with trace_span("scale", phase="scaling", scale=4) as sp:
                sp.count("iterations", 3)
        st = reg.state()
        assert st["repro_spans_total"]["samples"][
            "name=scale,phase=scaling"] == 1.0
        assert st["repro_span_counter_total"]["samples"][
            "counter=iterations,span=scale"] == 3.0
        assert st["repro_span_wall_seconds"]["samples"][
            "name=scale"]["count"] == 1

    def test_ambient_registry_collects_spans(self):
        reg = MetricsRegistry()
        with metering(reg):
            with tracing(Tracer()):
                with trace_span("dag01", phase="dag01"):
                    pass
        assert reg.state()["repro_spans_total"]["samples"][
            "name=dag01,phase=dag01"] == 1.0

    def test_bound_registry_wins_over_ambient(self):
        bound, ambient = MetricsRegistry(), MetricsRegistry()
        with metering(ambient):
            with tracing(Tracer(metrics=bound)):
                with trace_span("x", phase="p"):
                    pass
        assert "repro_spans_total" in bound.state()
        assert ambient.state() == {}

    def test_no_registry_no_error(self):
        with tracing(Tracer()):
            with trace_span("x", phase="p"):
                pass  # nothing to fold into; must simply not crash


# ---------------------------------------------------------------------------
# ambient helpers
# ---------------------------------------------------------------------------

class TestAmbient:
    def test_off_by_default(self):
        assert current_metrics() is None
        # all three helpers are no-ops with no registry installed
        metric_inc("repro_x_total")
        metric_set("repro_x", 1)
        metric_observe("repro_x_hist", 1.0)

    def test_metering_installs_and_restores(self):
        reg = MetricsRegistry()
        with metering(reg) as got:
            assert got is reg
            assert current_metrics() is reg
            metric_inc("repro_x_total", 2, kind="k")
        assert current_metrics() is None
        assert reg.state()["repro_x_total"]["samples"]["kind=k"] == 2.0

    def test_metering_nests(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with metering(outer):
            with metering(inner):
                metric_inc("repro_x_total")
            assert current_metrics() is outer
        assert "repro_x_total" in inner.state()
        assert outer.state() == {}


# ---------------------------------------------------------------------------
# solver integration: first-class phase metrics
# ---------------------------------------------------------------------------

class TestSolverMetrics:
    def test_solve_records_phase_metrics(self):
        g = hidden_potential_graph(24, 70, seed=2)
        reg = MetricsRegistry()
        with metering(reg):
            res = solve_sssp(g, 0, seed=7)
        assert not res.has_negative_cycle
        st = reg.state()
        assert st["repro_engine_solves_total"]["samples"][
            "engine=goldberg_parallel,outcome=distances"] == 1.0
        assert st["repro_scales_total"]["samples"][""] >= 1.0
        assert st["repro_reach_calls_total"]["samples"][""] >= 1.0
        assert st["repro_reach_rounds_total"]["samples"][""] >= 1.0
        assert st["repro_peel_rounds_total"]["samples"][""] >= 1.0
        assert st["repro_refine_calls_total"]["samples"][""] >= 1.0
        assert st["repro_solve_work"]["samples"][""]["count"] == 1
        assert st["repro_solve_span_model"]["samples"][""]["count"] == 1
        # the gauge tracks the last (finest) scale level
        assert st["repro_scale_current"]["samples"][""] == 1.0

    def test_negative_cycle_outcome(self):
        g = random_digraph(20, 50, min_w=-3, max_w=9, seed=5)
        reg = MetricsRegistry()
        with metering(reg):
            res = solve_sssp(g, 0, seed=7)
        assert res.has_negative_cycle
        assert reg.state()["repro_engine_solves_total"]["samples"][
            "engine=goldberg_parallel,outcome=negative_cycle"] == 1.0

    def test_checkpoint_bytes_metric(self, tmp_path):
        g = hidden_potential_graph(24, 70, seed=2)
        reg = MetricsRegistry()
        with metering(reg):
            scaled_reweighting(g, seed=7,
                               checkpoint_path=str(tmp_path / "ck.bin"))
        st = reg.state()
        assert st["repro_checkpoint_writes_total"]["samples"][""] >= 1.0
        assert st["repro_checkpoint_bytes_total"]["samples"][""] > 0.0

    def test_metrics_match_model_costs(self):
        """The histogram-observed solve work equals the returned cost —
        the registry and the cost accumulator are one ledger."""
        g = hidden_potential_graph(16, 40, seed=1)
        reg = MetricsRegistry()
        with metering(reg):
            res = solve_sssp(g, 0, seed=7)
        hist = reg.state()["repro_solve_work"]["samples"][""]
        assert hist["sum"] == pytest.approx(res.cost.work)

    def test_disabled_leaves_no_trace(self):
        g = hidden_potential_graph(16, 40, seed=1)
        solve_sssp(g, 0, seed=7)
        assert current_metrics() is None

    @pytest.mark.parametrize("engine", ["goldberg_parallel",
                                        "goldberg_sequential",
                                        "bnw_scaling", "fischer_simple"])
    def test_every_engine_counts_its_solve_once(self, engine):
        g = hidden_potential_graph(40, 160, seed=1)
        reg = MetricsRegistry()
        with metering(reg):
            res = solve_sssp_resilient(g, 0, engine=engine)
        st = reg.state()
        assert st["repro_engine_solves_total"]["samples"] == {
            f"engine={engine},outcome=distances": 1.0}
        assert progress_snapshot(reg)["solves_completed"] == 1.0
        work = st["repro_solve_work"]["samples"][""]
        assert work["count"] == 1 and work["sum"] == res.cost.work
        assert st["repro_solve_span_model"]["samples"][""]["count"] == 1


# ---------------------------------------------------------------------------
# concurrent-scrape safety (the /metrics torn-read hammer)
# ---------------------------------------------------------------------------

class TestConcurrentScrape:
    def test_scrape_hammer_never_tears_a_histogram(self):
        """Writers bump counters and observe histograms while readers
        snapshot continuously; every snapshot must be internally
        consistent (``sum(bucket deltas) == count``, exposition text
        parseable) and the final totals exact."""
        import threading

        reg = MetricsRegistry()
        writers, rounds = 4, 300
        start = threading.Barrier(writers + 2)
        stop = threading.Event()
        errors: list[Exception] = []

        def write(wid: int):
            start.wait()
            for i in range(rounds):
                reg.inc("repro_test_hammer_total", 1.0, writer=str(wid))
                reg.observe("repro_test_hammer_obs", float(i % 7))

        def read():
            start.wait()
            while not stop.is_set():
                try:
                    for fam in parse_prometheus_text(
                            reg.to_prometheus()).families():
                        for _, child in fam.samples():
                            if hasattr(child, "bucket_counts"):
                                assert sum(child.bucket_counts) \
                                    == child.count
                    st = reg.state()
                    hist = st.get("repro_test_hammer_obs")
                    if hist:
                        for sample in hist["samples"].values():
                            # per-bucket counts must sum to the count
                            assert sum(sample["bucket_counts"]) \
                                == sample["count"]
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads[:writers]:
            t.join()
        stop.set()
        for t in threads[writers:]:
            t.join(5.0)
        assert not errors
        st = reg.state()
        assert sum(st["repro_test_hammer_total"]["samples"].values()) \
            == writers * rounds
        assert st["repro_test_hammer_obs"]["samples"][""]["count"] \
            == writers * rounds
