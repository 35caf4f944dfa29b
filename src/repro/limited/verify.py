"""§4.2 — verification and shortest-path tree for LimitedSP.

The ASSSP black box only achieves its approximation with high probability,
so LimitedSP's output must be *verified*: contract cycles of 0-weight edges,
then check the Bellman criterion ``d(v) = min_{(u,v)} (d(u) + w(u,v))``
(Lemma 10), adapted here to the distance-limited contract (vertices beyond
the limit must have every finalized in-neighbour farther than the limit).
A failed check triggers a retry with fresh randomness.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import out_edge_slots
from ..graph.digraph import DiGraph, _aligned_weights
from ..graph.transform import condense, edge_subgraph_mask
from ..reach.scc import scc
from ..runtime import model
from ..runtime.metrics import CostAccumulator
from ..runtime.primitives import unique_sorted


def zero_cycle_condensation(g: DiGraph, weights: np.ndarray | None = None,
                            acc: CostAccumulator | None = None,
                            seed=0):
    """Contract strongly connected components of the 0-weight subgraph."""
    w = _aligned_weights(g, weights)
    zero_sub = edge_subgraph_mask(g, w == 0, weights=w)
    comp = scc(zero_sub, acc, seed=seed).comp
    return condense(g, comp, weights=w)


def verify_limited_distances(g: DiGraph, source: int, dist: np.ndarray,
                             limit: int,
                             weights: np.ndarray | None = None,
                             acc: CostAccumulator | None = None) -> bool:
    """Lemma 10 check for the distance-limited contract.

    ``dist[v]`` must be the exact distance when it is ``≤ limit`` and
    ``+inf`` exactly when the true distance exceeds ``limit`` (or ``v`` is
    unreachable).  Checks, on the 0-cycle condensation:

    * members of a contracted component share one value;
    * ``d(source) = 0``;
    * no in-edge can improve a value to ``≤ limit``;
    * every finite non-source value is attained by an incoming edge.
    """
    w = _aligned_weights(g, weights)
    d = np.asarray(dist, dtype=np.float64)
    if d[source] != 0:
        return False
    if (np.isfinite(d) & (d > limit)).any():
        return False
    cond = zero_cycle_condensation(g, w, acc)
    comp = cond.comp
    # all members of a component agree (0-weight cycles share distances);
    # note inf == inf holds, so one scatter + compare suffices
    cd = np.empty(max(cond.n_components, 1))
    cd[comp] = d
    if acc is not None:
        acc.charge(*model.map_ws(g.n))
    if g.n and not (cd[comp] == d).all():
        return False
    cg = cond.graph
    if acc is not None:
        acc.charge(*model.map_ws(cg.m))
    csrc = int(comp[source])
    du = cd[cg.src]
    dv = cd[cg.dst]
    wf = cg.w.astype(np.float64)
    with np.errstate(invalid="ignore"):
        cand = du + wf
        # a finalized in-neighbour must not beat v's value (when within limit)
        improvable = np.isfinite(cand) & (cand < dv) & (cand <= limit)
    if improvable.any():
        return False
    # attainment: every finite non-source component value comes from an edge
    attain = np.zeros(cg.n, dtype=bool)
    with np.errstate(invalid="ignore"):
        tight = np.isfinite(cand) & (cand == dv)
    attain[cg.dst[tight]] = True
    need = np.isfinite(cd)
    need[csrc] = False
    return bool((attain | ~need).all())


def shortest_path_tree(g: DiGraph, source: int, dist: np.ndarray,
                       weights: np.ndarray | None = None,
                       acc: CostAccumulator | None = None) -> np.ndarray:
    """Predecessor array realising the verified distances (§4.2).

    Cross-component parents are tight incoming edges on the 0-cycle
    condensation; within each 0-weight component a BFS over the component's
    0-weight edges hangs the remaining members below the entry vertex.
    Vertices with non-finite distance (or the source) get parent −1.
    """
    w = _aligned_weights(g, weights)
    d = np.asarray(dist, dtype=np.float64)
    parent = np.full(g.n, -1, dtype=np.int64)
    cond = zero_cycle_condensation(g, w, acc)
    comp = cond.comp
    wf = w.astype(np.float64)
    with np.errstate(invalid="ignore"):
        tight = (np.isfinite(d[g.src]) & (comp[g.src] != comp[g.dst])
                 & (d[g.src] + wf == d[g.dst]))
    if acc is not None:
        acc.charge(*model.map_ws(g.m))
    # one tight entry edge per component (last write wins)
    entry_edge = np.full(cond.n_components, -1, dtype=np.int64)
    entry_edge[comp[g.dst[tight]]] = np.flatnonzero(tight)
    entry_vertex = np.full(cond.n_components, -1, dtype=np.int64)
    src_comp = int(comp[source])
    entry_vertex[src_comp] = source
    for c in range(cond.n_components):  # repro: noqa[RS001] O(n_components) <= n entry-edge stitch, covered by the map(m) charge above
        e = int(entry_edge[c])
        if c == src_comp or e < 0:
            continue
        parent[g.dst[e]] = g.src[e]
        entry_vertex[c] = g.dst[e]
    # intra-component 0-weight BFS from the entry vertex
    zg = edge_subgraph_mask(g, w == 0, weights=w)
    roots = entry_vertex[entry_vertex >= 0]
    seen = np.zeros(g.n, dtype=bool)
    seen[roots] = True
    frontier = roots
    while len(frontier):
        slots = out_edge_slots(zg, frontier)
        if acc is not None:
            acc.charge(*model.bfs_round_ws(len(slots), g.n))
        if len(slots) == 0:
            break
        targets = zg.indices[slots]
        same = comp[zg.src[slots]] == comp[targets]
        new = same & ~seen[targets]
        newly = targets[new]
        parent[newly] = zg.src[slots][new]
        seen[newly] = True
        frontier = unique_sorted(newly)
    parent[~np.isfinite(d)] = -1
    parent[source] = -1
    return parent
