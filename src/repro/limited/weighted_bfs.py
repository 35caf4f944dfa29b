"""Distance-limited SSSP by weighted parallel BFS (the easy case, §1.2).

The paper observes that distance-limited SSSP with *strictly positive*
integer weights "is not too hard to solve even more efficiently using a
generalization of parallel BFS": advance a unit-distance frontier for
``L`` rounds, releasing each discovered edge when its full weight has been
traversed — a frontier-parallel Dial's algorithm with ``O(m + L)`` work and
``O(L·log n)`` span.  Zero-weight edges break this (a frontier round can
cascade arbitrarily far through 0s), which is precisely why §4's interval
refinement exists.

This module is both a fast specialist (used when the input has no
0-weight edges) and the A3 ablation comparator for LimitedSP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import out_edge_slots
from ..graph.digraph import DiGraph, _aligned_weights
from ..graph.validate import check_limit, check_source
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.primitives import unique_sorted


@dataclass
class WeightedBfsResult:
    dist: np.ndarray     # +inf beyond the limit / unreachable
    parent: np.ndarray
    rounds: int
    cost: Cost


def weighted_bfs_limited(g: DiGraph, source: int, limit: int, *,
                         weights: np.ndarray | None = None,
                         acc: CostAccumulator | None = None
                         ) -> WeightedBfsResult:
    """Exact distances ``≤ limit`` for strictly positive integer weights.

    One parallel round per distance value ``d = 1..limit``; an edge
    scanned from a vertex settled at ``d₀`` schedules its head for
    ``d₀ + w`` in a pending bucket.  Work is ``O(n + m + limit)`` because
    every edge is scanned exactly once (when its tail settles); span is
    ``O(limit · log n)``.
    """
    source = check_source(g, source)
    limit = check_limit(limit)
    w = _aligned_weights(g, weights)
    if g.m and w.min() <= 0:
        raise ValueError(
            "weighted_bfs_limited requires strictly positive weights "
            "(use limited_sssp when 0-weight edges are present)")
    local = CostAccumulator()
    dist = np.full(g.n, np.inf)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0.0
    # pending[d] = (vertices, their parents) proposed at distance d
    pending: list[tuple[np.ndarray, np.ndarray] | None] = \
        [None] * (limit + 1)
    rounds = 0

    def expand(frontier: np.ndarray, d0: int) -> None:
        slots = out_edge_slots(g, frontier)
        local.charge(*model.bfs_round_ws(len(slots), g.n))
        if len(slots) == 0:
            return
        nd = d0 + w[slots]
        keep = nd <= limit
        slots = slots[keep]
        nd = nd[keep]
        for d in unique_sorted(nd):
            sel = nd == d
            vs = g.indices[slots[sel]]
            ps = g.src[slots[sel]]
            prev = pending[int(d)]
            if prev is None:
                pending[int(d)] = (vs, ps)
            else:
                pending[int(d)] = (np.r_[prev[0], vs], np.r_[prev[1], ps])

    expand(np.array([source], dtype=np.int64), 0)
    for d in range(1, limit + 1):
        rounds += 1
        entry = pending[d]
        pending[d] = None
        if entry is None:
            continue
        vs, ps = entry
        local.charge(*model.pack_ws(len(vs)))
        new_mask = ~np.isfinite(dist[vs])
        vs, ps = vs[new_mask], ps[new_mask]
        if len(vs) == 0:
            continue
        # dedupe multiple proposals for one vertex (any parent is fine)
        vs, first_idx = np.unique(vs, return_index=True)
        ps = ps[first_idx]
        dist[vs] = float(d)
        parent[vs] = ps
        expand(vs, d)
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return WeightedBfsResult(dist, parent, rounds, local.snapshot())
