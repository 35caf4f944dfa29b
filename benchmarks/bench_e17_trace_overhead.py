"""E17 — structured tracing is cheap enabled and free disabled.

Every phase of the solver is instrumented with ``trace_span`` guards.
Two claims to pin down:

* **disabled** (no ambient tracer, the default): the guard is one
  run-context read plus a ``None`` test returning a shared no-op handle — the
  instrumented solver must be indistinguishable from an uninstrumented
  one.  It is 0% by construction; the wall clock can only confirm it to
  within run-to-run noise, so the asserted bound equals the enabled
  target rather than pretending to sub-noise resolution.
* **enabled**: recording every span (snapshot two floats at entry, a
  delta + dict append at exit) must stay under 5% of solve time on the
  E09 BF-adversarial family.

Methodology: the variants are *interleaved* round-robin and each takes
its best-of-k (same graph, same seed — the solve is deterministic, so
the runs do identical algorithmic work and differ only in tracer
activity).  Interleaving matters: back-to-back blocks of the same
variant drift 10–20% on this host (frequency scaling, allocator state),
dwarfing the effect under measurement; round-robin puts every variant
through the same drift.
"""

import time

from _bench_utils import save_table
from repro.analysis import Row
from repro.core import solve_sssp
from repro.graph import bf_hard_graph
from repro.observability import Tracer, tracing

OVERHEAD_TARGET = 0.05   # enabled tracing: <5% of solve time
# disabled tracing costs nothing by construction (one context read + None
# test); the wall clock can only bound it by the host's run-to-run noise,
# which is a few percent here even interleaved and best-of-k
DISABLED_TARGET = 0.05
REPEATS = 13             # best-of-k: strips scheduler noise


def _best_interleaved(fns, repeats=REPEATS):
    """Best-of-k wall clock per fn, measured round-robin."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def run_trace_overhead(ns=(512, 1024, 2048)):
    rows = []
    for n in ns:
        g = bf_hard_graph(n, 4 * n, potential_spread=8, seed=0)

        # sequential engine: the thread-pool's scheduler noise would
        # drown a few-percent signal; the trace guards on the hot paths
        # are identical in both modes
        def plain_run():
            solve_sssp(g, 0, seed=0, mode="sequential")

        def traced():
            with tracing(Tracer()):
                solve_sssp(g, 0, seed=0, mode="sequential")

        plain_run()  # import/cache warm-up
        # "disabled" re-measures the exact plain code path: its delta is
        # pure timer noise and bounds what the no-op guards could cost
        plain, disabled, enabled = _best_interleaved(
            [plain_run, plain_run, traced])

        tr = Tracer()
        with tracing(tr):
            solve_sssp(g, 0, seed=0, mode="sequential")

        rows.append(Row(
            params={"n": n, "m": g.m},
            values={"plain_s": round(plain, 4),
                    "spans": len(tr.spans),
                    "disabled_pct": round(100 * (disabled - plain) / plain,
                                          3),
                    "enabled_pct": round(100 * (enabled - plain) / plain,
                                         3),
                    "_plain": plain, "_disabled": disabled,
                    "_enabled": enabled}))
    return rows


def test_e17_trace_overhead_table(benchmark):
    rows = benchmark.pedantic(run_trace_overhead, rounds=1, iterations=1)
    for r in rows:
        assert r.values["spans"] > 0
        plain = r.values.pop("_plain")
        r.values["_totals"] = (plain, r.values.pop("_disabled"),
                               r.values.pop("_enabled"))
    # assert on the time-weighted aggregate, not per row: the sub-second
    # small instances carry ±5% best-of-k noise individually, while the
    # aggregate is dominated by the largest (best signal-to-noise) solve
    plain_t = sum(r.values["_totals"][0] for r in rows)
    disabled_t = sum(r.values["_totals"][1] for r in rows)
    enabled_t = sum(r.values["_totals"][2] for r in rows)
    for r in rows:
        del r.values["_totals"]
    save_table(rows, "e17_trace_overhead",
               "E17 — tracing overhead on the E09 family "
               f"(enabled <{OVERHEAD_TARGET:.0%}, disabled 0% by "
               "construction, bounded by noise; aggregate "
               f"enabled {100 * (enabled_t - plain_t) / plain_t:+.2f}%, "
               f"disabled {100 * (disabled_t - plain_t) / plain_t:+.2f}%)")
    assert (enabled_t - plain_t) / plain_t < OVERHEAD_TARGET
    assert (disabled_t - plain_t) / plain_t < DISABLED_TARGET
