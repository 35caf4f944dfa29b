"""E18 — first-class metrics are cheap enabled and free disabled.

The solver phases call ``metric_inc``/``metric_observe`` at phase
boundaries (scales, retries, peel rounds, reach calls, refine calls,
checkpoint bytes).  Mirroring E17's tracing claims:

* **disabled** (no ambient registry, the default): each helper is one
  run-context read plus a ``None`` test — 0% by construction, bounded
  here only by run-to-run timer noise.
* **enabled**: recording every metric (dict lookup + float add under a
  per-family lock) must stay under 5% of solve time; the calls sit at
  phase boundaries, not in inner vectorised loops, so the count is
  O(phases), not O(m).

Methodology copied from E17: variants interleaved round-robin,
best-of-k per variant, sequential engine, aggregate assertion dominated
by the largest solve.  Raw per-round samples for the largest instance go
into the BENCH record's ``wallclock`` section so `repro bench compare`
can gate this statistically.
"""

import time

from _bench_utils import save_table
from repro.analysis import Row
from repro.core import solve_sssp
from repro.graph import bf_hard_graph
from repro.observability import MetricsRegistry, metering

OVERHEAD_TARGET = 0.05   # enabled metrics: <5% of solve time
DISABLED_TARGET = 0.05   # 0% by construction; bounded by timer noise
REPEATS = 13             # best-of-k: strips scheduler noise


def _interleaved_samples(fns, repeats=REPEATS):
    """Per-fn wall-clock sample lists, measured round-robin."""
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            samples[i].append(time.perf_counter() - t0)
    return samples


def run_metrics_overhead(ns=(512, 1024, 2048)):
    rows = []
    raw = {}
    for n in ns:
        g = bf_hard_graph(n, 4 * n, potential_spread=8, seed=0)

        def plain_run():
            solve_sssp(g, 0, seed=0, mode="sequential")

        def metered():
            with metering(MetricsRegistry()):
                solve_sssp(g, 0, seed=0, mode="sequential")

        plain_run()  # import/cache warm-up
        # "disabled" re-measures the plain path: its delta is pure timer
        # noise and bounds what the no-op guards could cost
        samples = _interleaved_samples([plain_run, plain_run, metered])
        plain, disabled, enabled = (min(s) for s in samples)
        raw = {"plain": samples[0], "metrics_enabled": samples[2]}

        reg = MetricsRegistry()
        with metering(reg):
            solve_sssp(g, 0, seed=0, mode="sequential")

        rows.append(Row(
            params={"n": n, "m": g.m},
            values={"plain_s": round(plain, 4),
                    "metric_families": len(reg.state()),
                    "disabled_pct": round(100 * (disabled - plain) / plain,
                                          3),
                    "enabled_pct": round(100 * (enabled - plain) / plain,
                                         3),
                    "_plain": plain, "_disabled": disabled,
                    "_enabled": enabled}))
    return rows, raw  # raw samples are the largest instance's


def test_e18_metrics_overhead_table(benchmark):
    rows, raw = benchmark.pedantic(run_metrics_overhead,
                                   rounds=1, iterations=1)
    for r in rows:
        assert r.values["metric_families"] > 0
    # aggregate like E17: small instances are noise-dominated individually
    plain_t = sum(r.values["_plain"] for r in rows)
    disabled_t = sum(r.values["_disabled"] for r in rows)
    enabled_t = sum(r.values["_enabled"] for r in rows)
    for r in rows:
        del r.values["_plain"], r.values["_disabled"], r.values["_enabled"]
    save_table(rows, "e18_metrics_overhead",
               "E18 — metrics overhead on the E09 family "
               f"(enabled <{OVERHEAD_TARGET:.0%}, disabled 0% by "
               "construction, bounded by noise; aggregate "
               f"enabled {100 * (enabled_t - plain_t) / plain_t:+.2f}%, "
               f"disabled {100 * (disabled_t - plain_t) / plain_t:+.2f}%)",
               wallclock=raw,
               meta={"repeats": REPEATS, "engine": "sequential"})
    assert (enabled_t - plain_t) / plain_t < OVERHEAD_TARGET
    assert (disabled_t - plain_t) / plain_t < DISABLED_TARGET
