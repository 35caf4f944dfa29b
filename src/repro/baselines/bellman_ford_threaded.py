"""Bellman–Ford with real parallel relaxation — the live backend demo.

The relaxation map (``cand = dist[src] + w`` over all edges) is
embarrassingly parallel.  Two variants exploit that:

* :func:`bellman_ford_threaded` — the original shared-memory demo: each
  :meth:`~repro.runtime.executor.ForkJoinPool.parallel_for` block writes
  its candidates into a disjoint ``cand`` slice (no synchronisation) and
  the min-merge (``np.minimum.at``) runs on the main thread;
* :func:`bellman_ford_parallel` — the *backend-portable* sibling: the
  relaxation runs through ``map_blocks`` with a pure block function, so
  the same code executes on the serial, thread, or fault-tolerant process
  backend (:mod:`repro.runtime.backends`) — and because blocks are pure
  functions of ``(lo, hi)``, a process worker dying mid-round re-executes
  only its block and the distances stay bit-identical.

Under CPython's GIL the thread variant speeds up only when numpy kernels
release the GIL; the process variant pays pickling per dispatch.  On this
project's reference host both exist to *demonstrate and test* the
fork-join structure and its fault tolerance, not to win benchmarks.  See
the HPC notes and the "Execution backends" section in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import DiGraph
from ..graph.validate import check_source
from ..runtime.executor import ForkJoinPool
from ..runtime.racecheck import race_read, race_write
from .bellman_ford import BellmanFordResult, bellman_ford


def _relax_block(lo: int, hi: int, src: np.ndarray, w: np.ndarray,
                 dist: np.ndarray) -> np.ndarray:
    """One relaxation block: pure function of ``(lo, hi)`` and the
    (read-only) arrays — the ``map_blocks`` contract that makes process
    re-dispatch idempotent."""
    race_read(dist, site="bf.relax:dist")
    race_read(src, lo, hi, site="bf.relax:src")
    race_read(w, lo, hi, site="bf.relax:w")
    return dist[src[lo:hi]] + w[lo:hi]


def bellman_ford_parallel(g: DiGraph, source: int, backend=None,
                          weights: np.ndarray | None = None,
                          grain: int = 4096) -> BellmanFordResult:
    """Same contract as :func:`repro.baselines.bellman_ford`, relaxing
    edges through ``backend.map_blocks`` (any
    :class:`~repro.runtime.backends.ExecutionBackend`, including a
    :class:`~repro.runtime.backends.DegradationLadder`).  ``backend=None``
    falls back to the sequential reference implementation."""
    source = check_source(g, source)
    if backend is None:
        return bellman_ford(g, source, weights)
    w = (g.w if weights is None else np.asarray(weights, dtype=np.int64)
         ).astype(np.float64)
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    parent = np.full(g.n, -1, dtype=np.int64)
    src, dst = g.src, g.dst
    rounds = 0
    changed = True
    while changed and rounds < g.n:
        rounds += 1
        parts = backend.map_blocks(g.m, _relax_block, (src, w, dist),
                                   grain=grain)
        cand = np.concatenate(parts) if parts else np.empty(0)
        new_dist = dist.copy()
        np.minimum.at(new_dist, dst, cand)
        improved = new_dist < dist
        changed = bool(improved.any())
        if changed:
            tight = np.isfinite(cand) & (cand == new_dist[dst]) & improved[dst]
            parent[dst[tight]] = src[tight]
            dist = new_dist
    if changed:
        # delegate cycle detection/extraction to the reference implementation
        return bellman_ford(g, source, weights)
    from ..runtime.metrics import Cost

    return BellmanFordResult(dist, parent, None, rounds,
                             Cost(rounds * max(g.m, 1),
                                  rounds * np.log2(g.n + 2)))


def bellman_ford_threaded(g: DiGraph, source: int,
                          pool: ForkJoinPool | None = None,
                          weights: np.ndarray | None = None,
                          grain: int = 4096) -> BellmanFordResult:
    """Same contract as :func:`repro.baselines.bellman_ford`."""
    source = check_source(g, source)
    if pool is None:
        return bellman_ford(g, source, weights)
    w = (g.w if weights is None else np.asarray(weights, dtype=np.int64)
         ).astype(np.float64)
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    parent = np.full(g.n, -1, dtype=np.int64)
    cand = np.empty(g.m)
    src, dst = g.src, g.dst
    rounds = 0
    changed = True
    while changed and rounds < g.n:
        rounds += 1

        def body(lo: int, hi: int) -> None:
            # shared-memory contract, checked by `repro check --race`:
            # blocks read the whole dist vector (no block writes it) and
            # write disjoint cand slices
            race_read(dist, site="bf.relax:dist")
            race_read(src, lo, hi, site="bf.relax:src")
            race_read(w, lo, hi, site="bf.relax:w")
            race_write(cand, lo, hi, site="bf.relax:cand")
            np.add(dist[src[lo:hi]], w[lo:hi], out=cand[lo:hi])

        pool.parallel_for(g.m, body, grain=grain)
        new_dist = dist.copy()
        np.minimum.at(new_dist, dst, cand)
        improved = new_dist < dist
        changed = bool(improved.any())
        if changed:
            tight = np.isfinite(cand) & (cand == new_dist[dst]) & improved[dst]
            parent[dst[tight]] = src[tight]
            dist = new_dist
    cycle = None
    if changed:
        # delegate detection/extraction to the reference implementation
        ref = bellman_ford(g, source, weights)
        return ref
    from ..runtime.metrics import Cost

    return BellmanFordResult(dist, parent, cycle, rounds,
                             Cost(rounds * max(g.m, 1),
                                  rounds * np.log2(g.n + 2)))
