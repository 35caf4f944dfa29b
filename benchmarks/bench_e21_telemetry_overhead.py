"""E21 — the worker-telemetry pipeline is cheap enabled and free disabled.

E17 priced tracing and E18 priced metrics, each in isolation.  E21
prices the *whole* observability surface the telemetry PR turns on at
once: ambient tracer + metrics registry + a live
:class:`~repro.observability.http.TelemetryServer` being scraped from a
background thread while the solve runs, plus (reported separately) the
per-phase cProfile profiler.

* **disabled** (the default): every guard — ``trace_span``,
  ``metric_inc``, ``profile_scope`` — is one run-context read plus a
  ``None`` test.  0% by construction; the re-measured plain path bounds
  it by run-to-run timer noise.
* **telemetry enabled**: recording spans + metrics at phase boundaries
  while ``/metrics`` is scraped every 100ms must stay under 5% of solve
  time.  The instrumentation count is O(phases), not O(m), and a real
  Prometheus scrape loop runs 50x slower than this bench's.
* **profiler**: not gated under 5% — cProfile's per-call hook prices
  every Python call, so its cost tracks call count.  It is reported so
  a capture's price is a committed number, and sanity-bounded loosely.

Methodology inherited from E17/E18: variants interleaved round-robin,
best-of-k per variant, sequential engine, aggregate assertion dominated
by the largest solve.  The measurement logic lives in
:func:`repro.analysis.experiments.run_telemetry_overhead` so
``repro bench run e21`` emits the same record this file saves; raw
per-round samples for the largest instance go into the BENCH record's
``wallclock`` section for the statistical gate (gate_config entry
``e21_telemetry_overhead``).
"""

from _bench_utils import save_table
from repro.analysis.experiments import run_telemetry_overhead

OVERHEAD_TARGET = 0.05   # enabled telemetry: <5% of solve time
DISABLED_TARGET = 0.05   # 0% by construction; bounded by timer noise
PROFILER_CEILING = 1.00  # cProfile sanity bound: well under 2x
REPEATS = 13


def test_e21_telemetry_overhead_table(benchmark):
    raw = {}
    rows = benchmark.pedantic(
        lambda: run_telemetry_overhead(repeats=REPEATS, raw_out=raw),
        rounds=1, iterations=1)
    for r in rows:
        assert r.values["metric_families"] > 0
        assert r.values["spans_closed"] > 0
        assert r.values["profiled_phases"] > 0
    # aggregate like E17/E18: small instances are noise-dominated
    # individually; reconstruct per-variant overhead from plain_s * pct
    plain_t = sum(r.values["plain_s"] for r in rows)
    over = {
        kind: sum(r.values["plain_s"] * r.values[f"{kind}_pct"] / 100.0
                  for r in rows) / plain_t
        for kind in ("disabled", "telemetry", "profiler")}
    save_table(rows, "e21_telemetry_overhead",
               "E21 — worker-telemetry pipeline overhead on the E09 "
               f"family (telemetry <{OVERHEAD_TARGET:.0%} with live "
               "100ms scrapes, disabled 0% by construction; aggregate "
               f"telemetry {100 * over['telemetry']:+.2f}%, "
               f"disabled {100 * over['disabled']:+.2f}%, "
               f"profiler {100 * over['profiler']:+.2f}%)",
               wallclock=raw,
               meta={"repeats": REPEATS, "engine": "sequential"})
    assert over["telemetry"] < OVERHEAD_TARGET
    assert over["disabled"] < DISABLED_TARGET
    assert over["profiler"] < PROFILER_CEILING
