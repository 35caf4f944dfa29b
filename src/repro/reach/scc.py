"""Strongly connected components via reachability (§6.1 Step 1).

The paper cites Blelloch et al.'s reduction of SCC to single-source
reachability (with logarithmic overhead).  We implement the batched
block-partition form of that reduction (see :func:`scc`): doubling batches
of random centers classify vertices by deterministic min-label forward and
backward reachability, finalising whole SCCs and splitting the remaining
blocks, in ``O(log n)`` reachability rounds with high probability.  Trim
passes run first and finalise every vertex with no live in-edge or no
live out-edge, so the rounds run only on what can lie on a cycle.

A sequential Tarjan implementation is provided as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.digraph import DiGraph
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.rng import make_rng
from .multisource import _min_search


@dataclass
class SccResult:
    comp: np.ndarray        # vertex -> component id (0..n_components-1)
    n_components: int
    cost: Cost
    trimmed: int            # vertices the trim passes finalised
    trim_passes: int        # trim passes run


def scc(g: DiGraph, acc: CostAccumulator | None = None, seed=0) -> SccResult:
    """Parallel-model SCC by batched reachability partitioning.

    The batch-doubling form of the reachability reduction (Blelloch, Gu,
    Shun & Sun): each round samples a doubling number of random live
    *centers* and runs two deterministic minimum-label multisource
    reachability calls (forward and backward) restricted to intra-block
    edges.  Every vertex is classified by its (min forward center, min
    backward center) pair; equal pairs are exactly the SCCs of "self-min"
    centers and finalise, and splitting blocks by the pair never separates
    an SCC (members of one SCC see identical center sets).  Once the batch
    covers all live vertices every block finalises at least its minimum
    vertex, so the loop ends within ``O(log n)`` doubling rounds plus a
    polylogarithmic tail, each round costing two black-box calls over the
    whole live graph — work ``Õ(m)`` per round, one oracle span per round.

    Both searches run on ``g`` and one transpose built per call, with the
    round's edges selected by ``edge_mask=``.  The transpose's edge ``j``
    is ``g``'s edge ``g.reids[j]``, so its mask is ``keep[g.reids]``.
    They enter the search behind :func:`multisource_reachability_min`'s
    checks: the centers are distinct live ids, sorted here, and the
    masks are built here, so one edge count serves both.

    The rounds run only on the vertices :func:`_trim` leaves live.  A
    graph with few cycles is mostly trimmed, so it pays for at most
    ``⌈lg n⌉`` passes over its edges, not for ``lg n`` doubling rounds
    over all ``n`` vertices; the transpose is built and centers are drawn
    only when some vertex survives.

    Component ids are contiguous.  The ``t`` trimmed vertices get
    ``0 .. t-1`` in vertex-id order; from ``t`` on, each round numbers
    its finalised components in the order of their forward winners.
    Block ids only ever meet in equality tests, so a round re-ranks the
    survivors by one injective key per ``(block, fwd, bwd)`` class
    (:func:`_split_key`).
    """
    rng = make_rng(seed)
    local = CostAccumulator()
    n = g.n
    live, passes = _trim(g, local)
    comp = np.full(n, -1, dtype=np.int64)
    cut = (~live).nonzero()[0]
    comp[cut] = np.arange(len(cut), dtype=np.int64)
    next_id = trimmed = len(cut)
    block = np.zeros(n, dtype=np.int64)   # current block of each vertex
    live_ids = live.nonzero()[0]
    rg = g.reversed() if len(live_ids) else None
    batch = 1
    while len(live_ids):
        take = min(batch, len(live_ids))
        centers = rng.choice(live_ids, size=take, replace=False)
        centers.sort()
        w, s = model.map_ws(len(live_ids))
        local.charge(w, s)
        # restrict to intra-block live edges; center labels cannot escape
        # their blocks
        keep = live[g.src] & live[g.dst] & (block[g.src] == block[g.dst])
        w, s = model.pack_ws(g.m)
        local.charge(w, s)
        m = int(np.count_nonzero(keep))
        fwd = _min_search(g, centers, local, keep, m).pi
        bwd = _min_search(rg, centers, local, keep[g.reids], m).pi
        w, s = model.map_ws(n)
        local.charge(w, s)
        done = live & (fwd >= 0) & (fwd == bwd)
        # finalise each self-min center's SCC with a fresh contiguous id:
        # the dense rank of its forward winner
        scc_ids = done.nonzero()[0]
        if len(scc_ids):
            inv = _dense_rank(fwd[scc_ids])
            comp[scc_ids] = next_id + inv
            next_id += int(inv.max()) + 1
            live[scc_ids] = False
        # split survivors by (block, fwd winner, bwd winner)
        live_ids = live.nonzero()[0]
        if len(live_ids):
            block[live_ids] = _dense_rank(_split_key(
                n, block[live_ids], fwd[live_ids], bwd[live_ids]))
            w, s = model.sort_ws(len(live_ids))
            local.charge(w, s)
        batch = min(batch * 2, max(len(live_ids), 1))
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return SccResult(comp, next_id, local.snapshot(), trimmed, passes)


def _trim(g: DiGraph, local: CostAccumulator) -> tuple[np.ndarray, int]:
    """The vertices the trim passes leave live, as a mask, and the number
    of passes run.

    A live vertex with no live in-edge or no live out-edge lies on no
    cycle of the live graph, so it is an SCC by itself (McLendon et al.,
    JPDC 2005).  One pass masks the live edges (``pack(m)``), scatters
    has-live-in and has-live-out flags (``map(n)``) and cuts the live
    vertices missing either (``pack(n)``): ``O(m)`` work and ``O(log n)``
    span.  Passes stop at the first one that cuts nothing, when no vertex
    is left live, or after ``⌈lg n⌉`` of them (one when ``n < 2``), so
    the trim adds at most ``O(m log n)`` work and ``O(log² n)`` span.  A
    vertex whose only live edge is a self-loop stays live; the rounds
    finalise it as a singleton.
    """
    n = g.n
    cap = max((n - 1).bit_length(), 1)    # ⌈lg n⌉
    live = np.ones(n, dtype=bool)
    has_in = np.empty(n, dtype=bool)
    has_out = np.empty(n, dtype=bool)
    left = n
    passes = 0
    while left and passes < cap:
        passes += 1
        e = live[g.src] & live[g.dst]
        w, s = model.pack_ws(g.m)
        local.charge(w, s)
        has_in.fill(False)
        has_out.fill(False)
        has_in[g.dst[e]] = True
        has_out[g.src[e]] = True
        w, s = model.map_ws(n)
        local.charge(w, s)
        cut = live & ~(has_in & has_out)
        w, s = model.pack_ws(n)
        local.charge(w, s)
        k = int(np.count_nonzero(cut))
        if not k:
            break
        live[cut] = False
        left -= k
    return live, passes


def _split_key(n: int, block: np.ndarray, fwd: np.ndarray, bwd: np.ndarray
               ) -> np.ndarray:
    """One int64 per ``(block, fwd, bwd)`` triple, equal exactly when the
    triples are equal, for winners in ``-1 .. n-1`` and blocks in
    ``0 .. n-1``.

    A winner is a center of its vertex's block (labels never leave a
    block), so it names the block: ``fwd·(n+1) + bwd + 1`` when ``fwd``
    is set, ``(n+1)² + bwd`` when only ``bwd`` is, and ``(n+1)² + n +
    block`` when neither is.  The three ranges are disjoint.
    """
    n1 = n + 1
    return np.where(fwd >= 0, fwd * n1 + bwd + 1,
                    n1 * n1 + np.where(bwd >= 0, bwd, n + block))


def _dense_rank(key: np.ndarray) -> np.ndarray:
    """Dense rank of each key among the distinct keys, from one default
    (unstable) argsort: equal keys get equal ranks whatever their order."""
    order = key.argsort()
    k = key[order]
    step = np.empty(len(k), dtype=bool)
    step[0] = False
    np.not_equal(k[1:], k[:-1], out=step[1:])
    rank = np.empty(len(k), dtype=np.int64)
    rank[order] = np.add.accumulate(step, dtype=np.int64)
    return rank


def scc_sequential(g: DiGraph) -> SccResult:
    """Iterative Tarjan SCC — the deterministic O(n+m) oracle."""
    n = g.n
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    comp = np.full(n, -1, dtype=np.int64)
    # ``.data`` views index to plain Python ints, as in ``dijkstra``
    iv, lv, cv = index.data, low.data, comp.data
    on_stack = bytearray(n)
    stack: list[int] = []
    next_index = 0
    next_comp = 0
    indptr, indices = g.indptr.data, g.indices.data

    for root in range(n):
        if iv[root] != -1:
            continue
        # explicit DFS: (vertex, next out-slot to try)
        work = [(root, indptr[root])]
        iv[root] = lv[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack[root] = 1
        while work:
            v, slot = work[-1]
            if slot < indptr[v + 1]:
                work[-1] = (v, slot + 1)
                u = indices[slot]
                if iv[u] == -1:
                    iv[u] = lv[u] = next_index
                    next_index += 1
                    stack.append(u)
                    on_stack[u] = 1
                    work.append((u, indptr[u]))
                elif on_stack[u]:
                    lv[v] = min(lv[v], iv[u])
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    lv[pv] = min(lv[pv], lv[v])
                if lv[v] == iv[v]:
                    while True:
                        u = stack.pop()
                        on_stack[u] = 0
                        cv[u] = next_comp
                        if u == v:
                            break
                    next_comp += 1
    return SccResult(comp, next_comp, Cost(n + g.m, n + g.m),
                     trimmed=0, trim_passes=0)
