"""Sequential DAG shortest paths by topological relaxation.

The classic ``O(n + m)`` algorithm (CLRS): relax edges in topological
order.  Handles arbitrary (negative) weights on DAGs — the oracle for the
§3 distance-limited ``{0,−1}`` peeling algorithm, and the sequential engine
used inside the baseline Goldberg solver (§5 Step 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

import numpy as np

from ..graph.digraph import DiGraph, _aligned_weights
from ..graph.validate import check_source, topological_order
from ..resilience.errors import InputValidationError
from ..runtime.metrics import Cost, CostAccumulator


@dataclass
class DagSsspResult:
    dist: np.ndarray    # float64; +inf unreachable
    parent: np.ndarray  # predecessor vertex
    cost: Cost


def dag_sssp(g: DiGraph, source: int, weights: np.ndarray | None = None
             ) -> DagSsspResult:
    """Exact SSSP on a DAG.

    ``weights`` (aligned with ``g``'s edge ids) overrides ``g.w``.
    Raises :class:`~repro.resilience.errors.InputValidationError` (a
    ``ValueError``) on a bad source, on ``weights`` of the wrong length
    or with fractional values, and when ``g`` is cyclic.
    """
    source = check_source(g, source)
    order = topological_order(g)
    if order is None:
        raise InputValidationError("dag_sssp requires an acyclic graph")
    w = _aligned_weights(g, weights)
    acc = CostAccumulator()
    acc.charge(g.n + g.m, g.n + g.m)  # sequential baseline cost
    dist = np.full(g.n, np.inf)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0.0
    # ``.data`` views index to plain Python numbers, as in ``dijkstra``
    indptr, indices = g.indptr.data, g.indices.data
    wf = cast("memoryview[float]", w.astype(np.float64).data)
    dv = cast("memoryview[float]", dist.data)
    pv = parent.data
    for u in order.tolist():  # repro: noqa[RS001] sequential baseline: acc.charge(n+m, n+m) above covers the full relaxation
        du = dv[u]
        if du == np.inf:
            continue
        for slot in range(indptr[u], indptr[u + 1]):  # repro: noqa[RS001] edge scan, covered by the n+m pre-charge
            v = indices[slot]
            nd = du + wf[slot]
            if nd < dv[v]:
                dv[v] = nd
                pv[v] = u
    return DagSsspResult(dist, parent, acc.snapshot())


def dag_limited_sssp_reference(g: DiGraph, source: int, limit: int,
                               weights: np.ndarray | None = None
                               ) -> np.ndarray:
    """Reference for the §3 problem: distances clamped at the limit.

    Returns float64 distances where ``d(v) = dist(s,v)`` if
    ``dist(s,v) >= -limit``, ``-inf`` if strictly below, and ``+inf`` if
    unreachable — exactly the output contract of the peeling algorithm.
    """
    res = dag_sssp(g, source, weights)
    out = res.dist.copy()
    out[out < -limit] = -np.inf
    return out
