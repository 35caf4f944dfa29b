"""Dial's bucket-queue SSSP, served by the bucket-queue Dijkstra.

Dial's algorithm settles vertices from an array of ``C·n`` buckets, one
per possible distance, for nonnegative integer weights bounded by ``C``.
:func:`dial_sssp` keeps its interface but runs
:func:`~repro.baselines.dijkstra.dijkstra`, whose queue has a bucket only
for each distance that occurs: a single edge of weight 2^40 costs what an
edge of weight 1 costs, where an array of ``C·n`` buckets could not even
be allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.digraph import DiGraph
from ..runtime.metrics import Cost
from .dijkstra import dijkstra


@dataclass
class DialResult:
    dist: np.ndarray
    parent: np.ndarray
    cost: Cost


def dial_sssp(g: DiGraph, source: int, limit: int | None = None,
              weights: np.ndarray | None = None) -> DialResult:
    """Bucket-queue SSSP; vertices farther than ``limit`` report ``+inf``.

    :func:`~repro.baselines.dijkstra.dijkstra`'s result: its ``parent``
    tie-break (smallest vertex id first) and its ``model.dijkstra(n, m)``
    charge.
    """
    res = dijkstra(g, source, weights=weights, limit=limit)
    return DialResult(res.dist, res.parent, res.cost)
