"""Bernstein–Nanongkai–Wulff-Nilsen scaling SSSP (arXiv 2203.03456).

The BNW algorithm eliminates negative weights by *scaling*: starting
from a bound ``B`` with every weight ``≥ −B``, each ``ScaleDown`` call
halves the negativity — it finds a potential under which all reduced
weights are ``≥ −B/2`` — until none is left.  One ``ScaleDown`` works on
the shifted weights ``w_B(e) = w(e) + B/2`` (negative edges only), where
the problem is easier because shortest paths use few ``w_B``-negative
edges, and proceeds in the paper's phases:

* **Phase 0** — a low-diameter decomposition (LDD) of the nonnegative
  projection: randomized ball growing with exponentially distributed
  radii partitions the vertices into clusters whose internal
  ``max(w_B, 0)``-diameter is small, so few shortest paths cross
  cluster boundaries.
* **Phase 1** — negative weights *inside* each cluster are eliminated
  exactly (clusters are small/low-diameter).  The paper recurses here
  with a halved path-count parameter Δ; this reproduction substitutes
  the exact Johnson/Bellman–Ford potential on the cluster subgraph —
  same contract, simpler control flow.
* **Phases 2+3** — the remaining negative edges (all crossing cluster
  boundaries) are cleared by ``ElimNeg``, the Dijkstra/Bellman–Ford
  hybrid: alternate a Dijkstra pass over the nonnegative edges with one
  relaxation of the negative edges, from an all-zero virtual-source
  labelling.  Each round extends feasibility by one negative edge per
  path, so the LDD bound on boundary crossings is exactly what keeps
  the round count small.  The paper's separate DAG pass (phase 2) is
  folded into ``ElimNeg`` here.  ``ElimNeg`` stops as soon as the
  *original* ``ScaleDown`` goal — reduced weights ``≥ −B/2`` — holds,
  so the outer scaling loop runs its full ``O(log B)`` schedule.

A round-capped ``ElimNeg`` that keeps improving certifies a negative
cycle (a shortest simple path uses at most ``min(#neg, n−1)`` negative
edges); the certificate cycle itself is extracted by the independent
Bellman–Ford machinery and re-validated by the caller.  A final exact
finisher guarantees the returned potential is feasible even if a
randomized decomposition was unlucky — the engine is Las Vegas: the
answer is always exact, only the work varies with the seed.

Model costs are charged identically regardless of pool size or
execution backend (the accounting below is a pure function of the graph
and the seed), which is what the per-engine golden-cost tests pin down.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..baselines.dijkstra import dijkstra_from_labels
from ..baselines.johnson import johnson_potential
from ..graph.digraph import DiGraph
from ..graph.transform import edge_subgraph_mask
from ..observability.metrics import metric_inc
from ..observability.profiler import profile_scope
from ..observability.tracer import trace_span
from ..resilience.guard import Meter, current_guard
from ..resilience.preempt import check_cancelled
from ..runtime import model
from ..runtime.metrics import CostAccumulator
from ..runtime.primitives import unique_sorted
from ..runtime.rng import make_rng

__all__ = ["bnw_potential"]


def bnw_potential(g: DiGraph, *, seed=0, acc: CostAccumulator | None = None
                  ) -> tuple[np.ndarray | None, list[int] | None]:
    """Feasible potential for ``g`` (or a negative-cycle vertex list).

    Returns ``(price, None)`` with ``w + price[u] − price[v] ≥ 0`` for
    every edge, or ``(None, cycle)`` where ``cycle`` is a closed walk of
    negative total weight.  Deterministic given ``seed``.
    """
    local = CostAccumulator()
    meter = Meter(current_guard(), local)
    try:
        w = g.w
        local.charge(*model.map_ws(max(g.n, 1)))
        if g.m == 0 or int(w.min()) >= 0:
            return np.zeros(g.n, dtype=np.int64), None
        rng = make_rng(seed)
        phi = np.zeros(g.n, dtype=np.int64)
        b = 1
        while b < -int(w.min()):
            b <<= 1
        with trace_span("bnw-scaling", acc=local, phase="bnw",
                        n=g.n, m=g.m, b0=b) as sp:
            scales = 0
            while True:
                check_cancelled("bnw:scale")
                meter.tick()
                target = b // 2
                wr = _reduced(g, w, phi, local)
                psi, cycle = _scale_down(g, wr, target, rng, local, meter)
                if cycle is not None:
                    sp.set(negative_cycle=True)
                    metric_inc("repro_bnw_scales_total", outcome="cycle")
                    return None, cycle
                phi = phi + psi
                scales += 1
                metric_inc("repro_bnw_scales_total", outcome="scaled")
                if target == 0:
                    break
                b = target
            sp.count("scales", scales)
        # exact finisher: the scaling loop is guaranteed to land at a
        # feasible potential, but a Las Vegas engine never trusts its own
        # luck — re-derive exactly if any negativity survived
        wr = _reduced(g, w, phi, local)
        if int(wr.min()) < 0:  # pragma: no cover - safety net
            pot = johnson_potential(g, weights=wr)
            local.charge_cost(pot.cost)
            if pot.negative_cycle is not None:
                return None, pot.negative_cycle
            phi = phi + pot.price
        return phi, None
    finally:
        if acc is not None:
            acc.charge_cost(local.snapshot())


def _reduced(g: DiGraph, w: np.ndarray, phi: np.ndarray,
             acc: CostAccumulator) -> np.ndarray:
    acc.charge(*model.map_ws(g.m))
    return w + phi[g.src] - phi[g.dst]


def _scale_down(g: DiGraph, wr: np.ndarray, target: int, rng,
                acc: CostAccumulator, meter: Meter
                ) -> tuple[np.ndarray, list[int] | None]:
    """One BNW ``ScaleDown``: a potential ``psi`` with
    ``wr + psi[u] − psi[v] ≥ −target`` everywhere, or a negative cycle."""
    acc.charge(*model.map_ws(g.m))
    if g.m == 0 or int(wr.min()) >= -target:
        return np.zeros(g.n, dtype=np.int64), None
    # the scaled weights the phases operate on: shifting negative edges
    # by `target` means a psi that clears w_b-negativity leaves the real
    # reduced weights >= -target — the BNW halving trick
    wb = np.where(wr < 0, wr + target, wr).astype(np.int64)
    with trace_span("bnw-scale-down", acc=acc, phase="bnw", target=target,
                    neg_edges=int((wb < 0).sum())) as sp, \
            profile_scope("bnw-scale-down"):
        cluster = _ldd_clusters(g, np.maximum(wb, 0), max(4 * target, 4),
                                rng, acc)
        sp.count("clusters", int(cluster.max()) + 1 if g.n else 0)
        psi, cycle = _fix_clusters(g, wb, cluster, acc)
        if cycle is not None:
            return psi, cycle
        return _elim_neg(g, wr, wb, psi, target, acc, meter, sp)


def _ldd_clusters(g: DiGraph, wp: np.ndarray, diameter: int, rng,
                  acc: CostAccumulator) -> np.ndarray:
    """Low-diameter decomposition by randomized ball growing.

    Vertices are visited in a random order; each still-unassigned vertex
    becomes a center and captures every unassigned vertex within an
    exponentially distributed radius (mean ``diameter``, capped at
    ``4·diameter``) under the nonnegative weights ``wp``.  Exponential
    radii are what give the LDD its few-cut-edges guarantee in the
    paper; every vertex is assigned exactly once, so the total work is a
    Dijkstra-style scan of each ball's edges.
    """
    cluster = np.full(g.n, -1, dtype=np.int64)
    acc.charge(*model.map_ws(g.n))
    # ``.data`` views index to plain Python ints, as in ``dijkstra``
    cv = cluster.data
    indptr, indices, wv = g.indptr.data, g.indices.data, wp.data
    heappush, heappop = heapq.heappush, heapq.heappop
    next_id = 0
    scanned = 0
    for v0 in rng.permutation(g.n).tolist():  # repro: noqa[RS001] each vertex joins exactly one ball; the per-ball bfs_round charge below covers the scans
        if cv[v0] != -1:
            continue
        radius = int(min(rng.exponential(diameter), 4.0 * diameter)) + 1
        dist = {v0: 0}
        heap: list[tuple[int, int]] = [(0, v0)]
        while heap:  # repro: noqa[RS001] ball Dijkstra; edges scanned are tallied and charged as bfs_round after the ball closes
            d, u = heappop(heap)
            if cv[u] != -1 or d > dist.get(u, -1):
                continue
            cv[u] = next_id
            lo, hi = indptr[u], indptr[u + 1]
            scanned += hi - lo
            for slot in range(lo, hi):  # repro: noqa[RS001] edge scan, covered by the tallied bfs_round charge
                x = indices[slot]
                if cv[x] != -1:
                    continue
                nd = d + wv[slot]
                if nd <= radius and nd < dist.get(x, nd + 1):
                    dist[x] = nd
                    heappush(heap, (nd, x))
        acc.charge(*model.bfs_round_ws(scanned, g.n))
        scanned = 0
        next_id += 1
    return cluster


def _fix_clusters(g: DiGraph, wb: np.ndarray, cluster: np.ndarray,
                  acc: CostAccumulator) -> tuple[np.ndarray, list[int] | None]:
    """Phase 1: clear ``wb``-negative edges inside each cluster exactly.

    The paper recurses into each cluster (SCC) with a halved Δ; here the
    recursion bottoms out immediately in the exact Johnson potential on
    the cluster subgraph.  A cluster-local negative cycle is returned in
    original vertex ids.
    """
    psi = np.zeros(g.n, dtype=np.int64)
    internal = cluster[g.src] == cluster[g.dst]
    acc.charge(*model.map_ws(g.m))
    bad = internal & (wb < 0)
    if not bad.any():
        return psi, None
    for cid in unique_sorted(cluster[g.src[bad]]).tolist():  # repro: noqa[RS001] one exact sub-solve per negative cluster; each charges its own johnson cost below
        nodes = np.flatnonzero(cluster == cid)
        keep = internal & (cluster[g.src] == cid)
        new_id = np.full(g.n, -1, dtype=np.int64)
        new_id[nodes] = np.arange(len(nodes), dtype=np.int64)
        acc.charge(*model.pack_ws(g.m))
        sub = DiGraph(len(nodes), new_id[g.src[keep]], new_id[g.dst[keep]],
                      wb[keep])
        pot = johnson_potential(sub)
        acc.charge_cost(pot.cost)
        if pot.negative_cycle is not None:
            # wb >= wr edge-wise, so a wb-negative cycle is negative under
            # the true weights as well
            return psi, [int(nodes[v]) for v in pot.negative_cycle]
        psi[nodes] += pot.price
    return psi, None


def _elim_neg(g: DiGraph, wr: np.ndarray, wb: np.ndarray, psi: np.ndarray,
              target: int, acc: CostAccumulator, meter: Meter,
              sp) -> tuple[np.ndarray, list[int] | None]:
    """Phases 2+3: ``ElimNeg`` — the Dijkstra/Bellman–Ford hybrid.

    Runs on the cluster-fixed weights, where only boundary edges are
    still ``wb``-negative, and stops as soon as the real goal
    ``wr``-reduced ``≥ −target`` holds (the early exit that keeps the
    outer scaling schedule honest).  A run still improving past the
    round cap proves a negative cycle, which the exact extractor then
    produces.
    """
    wcur = wb + psi[g.src] - psi[g.dst]
    acc.charge(*model.map_ws(g.m))
    neg = np.flatnonzero(wcur < 0)
    if len(neg) == 0:
        return psi, None
    pos_keep = wcur >= 0
    gpos = edge_subgraph_mask(g, pos_keep, weights=wcur)
    acc.charge(*model.pack_ws(g.m))
    nsrc, ndst, nw = g.src[neg], g.dst[neg], wcur[neg]
    d = np.zeros(g.n, dtype=np.int64)
    cap = min(len(neg), max(g.n - 1, 1)) + 1
    rounds = 0
    for _ in range(cap):  # repro: noqa[RS001] each BFD round charges its dijkstra + map cost inside
        check_cancelled("bnw:elim-neg")
        meter.tick()
        rounds += 1
        d = dijkstra_from_labels(gpos, d, acc)
        cand = d[nsrc] + nw
        acc.charge(*model.map_ws(len(neg)))
        improved = cand < d[ndst]
        if not improved.any():
            sp.count("elimneg_rounds", rounds)
            return psi + d, None
        np.minimum.at(d, ndst, cand)
        # early exit: the ScaleDown goal is weaker than full feasibility
        total = psi + d
        wgoal = wr + total[g.src] - total[g.dst]
        acc.charge(*model.map_ws(g.m))
        if int(wgoal.min()) >= -target:
            sp.count("elimneg_rounds", rounds)
            return total, None
    # still improving after the cap: negative cycle.  Extract it with the
    # independent exact machinery on the true reduced weights.
    pot = johnson_potential(g, weights=wr)
    acc.charge_cost(pot.cost)
    if pot.negative_cycle is not None:
        return psi, pot.negative_cycle
    # cap was conservative; the exact potential clears the goal outright
    return pot.price, None  # pragma: no cover
