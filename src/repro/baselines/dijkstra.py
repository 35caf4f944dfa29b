"""Dijkstra's algorithm (bucket queue) for nonnegative weights.

Used three ways in the library: (1) the final SSSP stage of Goldberg's
framework after reweighting (§5, charged at the parallel-Dijkstra model
cost, work ``Õ(m)`` / span ``Õ(n)``); (2) the ``exact`` ASSSP engine; and
(3) a test oracle.  Supports an optional distance ``limit`` for the
distance-limited problems.

:func:`dijkstra` keeps its queue as buckets: a dict maps each distinct
tentative distance to a min-heap of vertex ids, and a min-heap holds the
distinct distances.  It drains the smallest bucket completely, pushing a
relaxation that lands on the distance being drained (``nd == d``: a
zero-weight edge, or a sum past 2^53 that rounds back to ``d``) into that
same bucket.  With nonnegative weights no push goes below the bucket
being drained, so it pops exactly the entries a ``(distance, vertex)``
tuple heap pops, in the same order: smallest distance first, then
smallest vertex id.  Its ``dist``, ``parent`` and ``Cost`` are those of
the tuple heap, which ``tests/oracles.py`` keeps as the reference.
Unlike Dial's ``C·n`` bucket array, only distances that occur get a
bucket, so any nonnegative integer weight works.  When the smallest
bucket lies beyond ``limit`` the loop stops: every vertex still queued is
farther than the limit, and the final ``dist > limit`` mask reports it.

The loops read the CSR arrays, and read and write ``dist`` and
``parent``, through ``ndarray.data``: a ``memoryview`` of the array that
copies nothing and whose items index to plain Python ints and floats,
where indexing the array boxes a new numpy scalar on every access.
(typeshed types memoryview items as ``int``; the ``cast`` on a float64
view only tells the type checker otherwise.)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import cast

import numpy as np

from ..graph.digraph import DiGraph, _aligned_weights, _as_int64
from ..graph.validate import check_source
from ..resilience.errors import InputValidationError
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator


@dataclass
class DijkstraResult:
    dist: np.ndarray     # float64; +inf where unreachable or beyond limit
    parent: np.ndarray   # predecessor vertex, -1 at source/unreached
    cost: Cost


def dijkstra(g: DiGraph, source: int, weights: np.ndarray | None = None,
             limit: float | None = None) -> DijkstraResult:
    """Exact SSSP with nonnegative integer weights.

    ``weights`` (aligned with ``g``'s edge ids) overrides ``g.w``.
    Raises :class:`~repro.resilience.errors.InputValidationError`
    (a ``ValueError``) on a bad source, on ``weights`` of the wrong
    length or with fractional values, on a negative weight and on a NaN
    ``limit``.  Vertices farther than ``limit`` (if given) are reported
    as ``+inf``.
    """
    source = check_source(g, source)
    if limit is not None and limit != limit:
        raise InputValidationError("limit must not be NaN")
    w = _aligned_weights(g, weights)
    if g.m and w.min() < 0:
        raise InputValidationError("dijkstra requires nonnegative weights")
    acc = CostAccumulator()
    acc.charge(*model.dijkstra_ws(g.n, g.m))
    dist = np.full(g.n, np.inf)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0.0
    heappush, heappop = heapq.heappush, heapq.heappop
    indptr, indices = g.indptr.data, g.indices.data
    wf = cast("memoryview[float]", w.astype(np.float64).data)
    dv = cast("memoryview[float]", dist.data)
    pv = parent.data
    settled = bytearray(g.n)
    buckets: dict[float, list[int]] = {0.0: [source]}
    dists: list[float] = [0.0]
    while dists:  # repro: noqa[RS001] bucket loop covered by the up-front model.dijkstra_ws(n, m) charge
        d = heappop(dists)
        if limit is not None and d > limit:
            break  # all still queued lie beyond the limit: masked below
        bucket = buckets.pop(d)
        while bucket:  # repro: noqa[RS001] bucket drain, covered by the dijkstra charge
            u = heappop(bucket)
            if settled[u]:
                continue
            settled[u] = 1
            for slot in range(indptr[u], indptr[u + 1]):  # repro: noqa[RS001] edge scan, covered by the dijkstra charge
                v = indices[slot]
                nd = d + wf[slot]
                if nd < dv[v]:
                    dv[v] = nd
                    pv[v] = u
                    if nd == d:
                        heappush(bucket, v)
                        continue
                    b = buckets.get(nd)
                    if b is None:
                        buckets[nd] = [v]
                        heappush(dists, nd)
                    else:
                        heappush(b, v)
    if limit is not None:
        beyond = dist > limit
        dist[beyond] = np.inf
        parent[beyond] = -1
    return DijkstraResult(dist, parent, acc.snapshot())


def dijkstra_from_labels(g: DiGraph, labels: np.ndarray,
                         acc: CostAccumulator | None = None) -> np.ndarray:
    """Close integer ``labels`` under nonnegative-edge relaxations.

    A multi-source Dijkstra in which *every* vertex starts at its own
    label: the result is the pointwise-least fixpoint ``d`` with
    ``d <= labels`` and ``d[v] <= d[u] + w(u,v)`` for every edge.  This
    is the Dijkstra half of the Bellman-Ford/Dijkstra interleave used by
    the ``fischer_simple`` engine and by BNW's ``ElimNeg`` phase; one
    ``model.dijkstra_ws(n, m)`` is charged per call.

    Raises :class:`~repro.resilience.errors.InputValidationError` (a
    ``ValueError``) when ``labels`` does not have one entry per vertex or
    holds NaN, an infinity or a fractional value, and on a negative
    weight (callers pass the nonnegative-edge subgraph).
    """
    if len(labels) != g.n:
        raise InputValidationError(
            "dijkstra_from_labels needs one label per vertex")
    labels = _as_int64(labels, "labels")
    if g.m and int(g.w.min()) < 0:
        raise InputValidationError(
            "dijkstra_from_labels requires nonnegative weights")
    if acc is not None:
        acc.charge(*model.dijkstra_ws(g.n, g.m))
    dist = labels.astype(np.float64)
    dv = cast("memoryview[float]", dist.data)
    heap = list(zip(dv, range(g.n)))
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    indptr, indices = g.indptr.data, g.indices.data
    wf = cast("memoryview[float]", g.w.astype(np.float64).data)
    while heap:  # repro: noqa[RS001] heap loop covered by the up-front model.dijkstra_ws charge
        du, u = heappop(heap)
        if du > dv[u]:
            continue
        for slot in range(indptr[u], indptr[u + 1]):  # repro: noqa[RS001] edge scan, covered by the dijkstra charge
            x = indices[slot]
            nd = du + wf[slot]
            if nd < dv[x]:
                dv[x] = nd
                heappush(heap, (nd, x))
    return dist.astype(np.int64)
