"""The §3.1 "natural inefficient algorithm" — the peeling ablation baseline.

Each round recomputes multisource reachability from *all* live negative
vertices over the whole live subgraph: correct, simple, but ``O(L · m)``
work — exactly what the labelled peeling algorithm avoids.  Experiment E4
contrasts the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.digraph import DiGraph
from ..graph.validate import check_limit, check_source
from ..reach.multisource import multisource_reachability
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.primitives import unique_sorted


@dataclass
class NaiveDag01Result:
    dist: np.ndarray
    rounds: int
    reach_calls: int
    reach_node_total: int
    cost: Cost


def dag01_limited_sssp_naive(g: DiGraph, source: int, limit: int, *,
                             acc: CostAccumulator | None = None
                             ) -> NaiveDag01Result:
    """Per-round full-reachability peeling (same output contract as
    :func:`repro.dag01.dag01_limited_sssp`, without parent edges)."""
    source = check_source(g, source)
    limit = check_limit(limit)
    local = CostAccumulator()
    reach = multisource_reachability(g, np.array([source]), local)
    live = reach.pi >= 0
    dist = np.full(g.n, np.inf)
    reach_calls = 1
    reach_node_total = g.n
    rounds = 0
    for i in range(limit + 1):
        live_nodes = np.flatnonzero(live)
        if len(live_nodes) == 0:
            break
        rounds = i
        sub, nodes = g.induced_subgraph(live_nodes)
        local.charge(*model.pack_ws(g.m))
        # negative vertices: heads of live −1 edges
        neg_targets = unique_sorted(sub.dst[sub.w == -1])
        local.charge(*model.map_ws(sub.m))
        if len(neg_targets):
            res = multisource_reachability(sub, neg_targets, local)
            reach_calls += 1
            reach_node_total += sub.n
            blocked = res.pi >= 0
        else:
            blocked = np.zeros(sub.n, dtype=bool)
        peel_local = np.flatnonzero(~blocked)
        peel = nodes[peel_local]
        dist[peel] = -i
        live[peel] = False
        local.charge(*model.map_ws(len(peel)))
    dist[live] = -np.inf  # beyond the limit
    dist[reach.pi < 0] = np.inf
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return NaiveDag01Result(dist, rounds, reach_calls, reach_node_total,
                            local.snapshot())
