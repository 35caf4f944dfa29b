"""Hub shortcuts: trading work for reachability span (the black box's idea).

Jambulapati–Liu–Sidford reach `n^(1/2+o(1))` span by *shortcutting*: adding
reachability-preserving edges that slash the graph's BFS diameter.  This
module implements the simplest member of that family — **hub shortcuts** —
so the span/work trade-off can be measured rather than only charged:

for each sampled hub ``h``, add edges ``v → h`` for every ancestor and
``h → w`` for every descendant of ``h``.  Any path passing through a hub
collapses to two hops, so on high-diameter graphs a handful of hubs cuts
BFS rounds dramatically, at the price of up to ``O(hubs · n)`` extra edges
(the full black box gets both sides of the trade simultaneously; that is
exactly the hard part we substitute away, see DESIGN.md).

The A5 benchmark sweeps the hub count on a path-like graph and reports the
measured rounds-vs-edges frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.digraph import DiGraph
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.rng import make_rng
from .multisource import ReachResult, multisource_reachability


@dataclass
class ShortcutGraph:
    """A reachability-equivalent supergraph of the original.

    ``graph`` contains every original edge plus the hub shortcuts (all of
    weight 0 — shortcuts preserve reachability, not distances).  Use it for
    reachability queries only.
    """

    graph: DiGraph
    hubs: np.ndarray
    added_edges: int
    build_cost: Cost


def build_hub_shortcuts(g: DiGraph, n_hubs: int, *, seed=0,
                        acc: CostAccumulator | None = None) -> ShortcutGraph:
    """Sample ``n_hubs`` vertices and add ancestor/descendant shortcuts."""
    if n_hubs < 0:
        raise ValueError("n_hubs must be nonnegative")
    rng = make_rng(seed)
    local = CostAccumulator()
    hubs = (rng.choice(g.n, size=min(n_hubs, g.n), replace=False)
            if g.n else np.empty(0, dtype=np.int64))
    hubs = np.asarray(hubs, dtype=np.int64)
    srcs = [g.src]
    dsts = [g.dst]
    rev = g.reversed()
    branches = []
    for h in hubs.tolist():
        branch = local.fork()
        des = multisource_reachability(g, np.array([h]), branch).pi >= 0
        anc = multisource_reachability(rev, np.array([h]), branch).pi >= 0
        branches.append(branch)
        des_v = np.flatnonzero(des)
        anc_v = np.flatnonzero(anc)
        des_v = des_v[des_v != h]
        anc_v = anc_v[anc_v != h]
        srcs.append(np.full(len(des_v), h, dtype=np.int64))
        dsts.append(des_v)
        srcs.append(anc_v)
        dsts.append(np.full(len(anc_v), h, dtype=np.int64))
    local.join_parallel(branches, fork_span=np.log2(len(hubs) + 2))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    added = len(src) - g.m
    local.charge(*model.sort_ws(len(src)))
    sg = DiGraph(g.n, src, dst, np.zeros(len(src), dtype=np.int64))
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return ShortcutGraph(sg, hubs, added, local.snapshot())


def multisource_reachability_shortcut(g: DiGraph, sources: np.ndarray,
                                      n_hubs: int | None = None, *,
                                      seed=0,
                                      acc: CostAccumulator | None = None
                                      ) -> ReachResult:
    """Multisource reachability through a freshly built shortcut graph.

    Same output contract as :func:`multisource_reachability`; the measured
    span includes the shortcut construction (amortised in real uses, where
    one shortcut graph serves many queries).  ``n_hubs`` defaults to
    ``⌈√n⌉``.
    """
    if n_hubs is None:
        n_hubs = max(1, int(np.sqrt(g.n)))
    local = CostAccumulator()
    sc = build_hub_shortcuts(g, n_hubs, seed=seed, acc=local)
    res = multisource_reachability(sc.graph, sources, local)
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return ReachResult(res.pi, res.rounds, local.snapshot())
