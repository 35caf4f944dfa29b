"""Workload generators for every experiment in EXPERIMENTS.md.

The paper evaluates on abstract graph families; these builders synthesise
them reproducibly (seeded numpy RNG throughout):

* layered/random DAGs with ``{0, −1}`` weights (§3 inputs),
* nonnegative-integer digraphs with many zero-weight edges (§4 inputs —
  the paper notes the 0s are what make the problem hard),
* *hidden-potential* graphs: negative weights but provably no negative
  cycle, the canonical input for Goldberg's algorithm (§5/§6),
* graphs with planted negative cycles (detection experiments, E12),
* structured gadgets (chains, grids) that pin down worst-case shapes.
"""

from __future__ import annotations

import numpy as np

from ..runtime.primitives import stable_argsort
from ..runtime.rng import make_rng
from .digraph import DiGraph


def _dedupe_edges(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Boolean mask keeping one copy of each (src, dst) pair, no self-loops."""
    if len(src) == 0:
        return np.zeros(0, dtype=bool)
    keep = src != dst
    mx = max(int(dst.max(initial=0)), int(src.max(initial=0)))
    key = src.astype(np.int64) * (mx + 1) + dst
    order = stable_argsort(key, (mx + 1) ** 2)
    sorted_key = key[order]
    first = np.r_[True, sorted_key[1:] != sorted_key[:-1]]
    uniq = np.zeros(len(src), dtype=bool)
    uniq[order[first]] = True
    return keep & uniq


def random_digraph(n: int, m: int, *, min_w: int = 0, max_w: int = 10,
                   seed=None) -> DiGraph:
    """Uniform random simple digraph with ``~m`` edges, weights in
    ``[min_w, max_w]``."""
    rng = make_rng(seed)
    if n < 2:
        return DiGraph.from_edges(max(n, 0), [])
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    keep = _dedupe_edges(src, dst)
    src, dst = src[keep], dst[keep]
    w = rng.integers(min_w, max_w + 1, size=len(src), dtype=np.int64)
    return DiGraph(n, src, dst, w)


def random_dag(n: int, m: int, *, weights=(0, -1), weight_probs=None,
               seed=None, connect_from_source: int | None = 0) -> DiGraph:
    """Random DAG: edges oriented along a random permutation order.

    ``weights`` is the multiset of allowed weights; ``weight_probs`` their
    probabilities (uniform if omitted).  If ``connect_from_source`` is a
    vertex, extra 0-weight edges are added so that it reaches every vertex
    (the §3 precondition).
    """
    rng = make_rng(seed)
    if n < 2:
        return DiGraph.from_edges(max(n, 0), [])
    perm = rng.permutation(n).astype(np.int64)
    a = rng.integers(0, n, size=m, dtype=np.int64)
    b = rng.integers(0, n, size=m, dtype=np.int64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    src, dst = perm[lo], perm[hi]
    keep = _dedupe_edges(src, dst) & (lo != hi)
    src, dst = src[keep], dst[keep]
    w = rng.choice(np.asarray(weights, dtype=np.int64), size=len(src),
                   p=weight_probs)
    if connect_from_source is not None:
        s = int(connect_from_source)
        # ensure s is first in the topological order by rerouting: add 0-edges
        # from s to every vertex not already a successor (keeps DAG-ness as s
        # is moved to the front of the permutation order)
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        # relabel so that s swaps with the front vertex in the order
        front = perm[0]
        if front != s:
            swap = {s: front, front: s}
            src = np.array([swap.get(int(x), int(x)) for x in src], dtype=np.int64)
            dst = np.array([swap.get(int(x), int(x)) for x in dst], dtype=np.int64)
        others = np.setdiff1d(np.arange(n, dtype=np.int64), np.array([s]))
        src = np.r_[src, np.full(len(others), s, dtype=np.int64)]
        dst = np.r_[dst, others]
        w = np.r_[w, np.zeros(len(others), dtype=np.int64)]
        keep = _dedupe_edges(src, dst)
        src, dst, w = src[keep], dst[keep], w[keep]
    return DiGraph(n, src, dst, w)


def layered_dag(layers: int, width: int, *, p_edge: float = 0.5,
                p_negative: float = 0.5, long_edges: int = 0,
                seed=None) -> DiGraph:
    """Layered DAG with source 0: vertex 0 feeds layer 1, each layer feeds
    the next, plus ``long_edges`` random forward skip edges.

    Weights are drawn from ``{0, −1}`` with P(−1) = ``p_negative``.  Designed
    so distance-limited peeling runs through many rounds: the depth (in
    negative edges) grows with ``layers``.
    """
    rng = make_rng(seed)
    n = 1 + layers * width
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []

    def layer_nodes(i: int) -> np.ndarray:
        return np.arange(1 + (i - 1) * width, 1 + i * width, dtype=np.int64)

    first = layer_nodes(1)
    srcs.append(np.zeros(len(first), dtype=np.int64))
    dsts.append(first)
    for i in range(1, layers):
        a, b = layer_nodes(i), layer_nodes(i + 1)
        mask = rng.random((len(a), len(b))) < p_edge
        ai, bi = np.nonzero(mask)
        srcs.append(a[ai])
        dsts.append(b[bi])
        # guarantee connectivity layer-to-layer
        srcs.append(a)
        dsts.append(b[rng.integers(0, len(b), size=len(a))])
    if long_edges and layers > 2:
        li = rng.integers(1, layers - 1, size=long_edges)
        lj = li + rng.integers(1, np.maximum(layers - li, 2))
        lj = np.minimum(lj, layers)
        u = np.array([rng.choice(layer_nodes(int(i))) for i in li], dtype=np.int64)
        v = np.array([rng.choice(layer_nodes(int(j))) for j in lj], dtype=np.int64)
        srcs.append(u)
        dsts.append(v)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    keep = _dedupe_edges(src, dst)
    src, dst = src[keep], dst[keep]
    w = np.where(rng.random(len(src)) < p_negative, -1, 0).astype(np.int64)
    return DiGraph(n, src, dst, w)


def hidden_potential_graph(n: int, m: int, *, max_cost: int = 8,
                           potential_spread: int = 16,
                           seed=None, source: int = 0) -> DiGraph:
    """Random digraph with negative weights but **no negative cycle**.

    Weights are ``w(u,v) = c(u,v) + φ(u) − φ(v)`` with ``c ≥ 0`` and a random
    integer potential ``φ`` — every cycle's weight equals its (nonnegative)
    ``c``-weight, so the graph is guaranteed feasible while individual edges
    can be as negative as ``−potential_spread``.  This is the canonical
    Goldberg workload.  Extra edges from ``source`` keep everything
    reachable.
    """
    rng = make_rng(seed)
    if n < 2:
        return DiGraph.from_edges(max(n, 0), [])
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    keep = _dedupe_edges(src, dst)
    src, dst = src[keep], dst[keep]
    if source is not None:
        others = np.setdiff1d(np.arange(n, dtype=np.int64),
                              np.array([source]))
        src = np.r_[src, np.full(len(others), source, dtype=np.int64)]
        dst = np.r_[dst, others]
        keep = _dedupe_edges(src, dst)
        src, dst = src[keep], dst[keep]
    phi = rng.integers(0, potential_spread + 1, size=n, dtype=np.int64)
    c = rng.integers(0, max_cost + 1, size=len(src), dtype=np.int64)
    w = c + phi[src] - phi[dst]
    return DiGraph(n, src, dst, w)


def planted_negative_cycle_graph(n: int, m: int, cycle_len: int, *,
                                 max_w: int = 8, seed=None
                                 ) -> tuple[DiGraph, np.ndarray]:
    """A random nonnegative-weight digraph with one planted negative cycle.

    Returns ``(graph, cycle_vertices)``.  The cycle's edges have weight 0
    except one of weight −1, so its total weight is exactly −1 and it is the
    unique negative cycle with high probability.
    """
    rng = make_rng(seed)
    if cycle_len < 2 or cycle_len > n:
        raise ValueError("2 <= cycle_len <= n required")
    base = random_digraph(n, m, min_w=1, max_w=max_w, seed=rng)
    cyc = rng.choice(n, size=cycle_len, replace=False).astype(np.int64)
    cs = cyc
    cd = np.roll(cyc, -1)
    cw = np.zeros(cycle_len, dtype=np.int64)
    cw[0] = -1
    src = np.r_[base.src, cs]
    dst = np.r_[base.dst, cd]
    w = np.r_[base.w, cw]
    return DiGraph(n, src, dst, w), cyc


def negative_chain_gadget(k: int, *, tail: int = 0, seed=None) -> DiGraph:
    """A path of ``k`` negative edges (the chain case of √k-improvement).

    Vertex 0 is the source; edges ``i -> i+1`` alternate weight −1 with
    optional 0-weight tail vertices hanging off each chain vertex.  Goldberg
    must discover the full chain, forcing the distance-limited DAG SSSP to
    peel ``k`` rounds.
    """
    rng = make_rng(seed)
    edges: list[tuple[int, int, int]] = []
    n = k + 1
    for i in range(k):
        edges.append((i, i + 1, -1))
    for i in range(k + 1):
        for _ in range(tail):
            edges.append((i, n, 0))
            n += 1
    return DiGraph.from_edges(n, edges)


def independent_negatives_gadget(k: int, *, seed=None) -> DiGraph:
    """A star of ``k`` independent negative vertices (the independent-set
    case of √k-improvement): source 0 with a −1 edge to each of ``k``
    mutually unreachable vertices."""
    edges = [(0, i + 1, -1) for i in range(k)]
    return DiGraph.from_edges(k + 1, edges)


def grid_graph(rows: int, cols: int, *, min_w: int = 0, max_w: int = 4,
               seed=None) -> DiGraph:
    """Directed grid (right + down edges), weights in ``[min_w, max_w]`` —
    a high-diameter workload where BFS-substituted span is honest about
    depth."""
    rng = make_rng(seed)
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    srcs = [idx[:, :-1].ravel(), idx[:-1, :].ravel()]
    dsts = [idx[:, 1:].ravel(), idx[1:, :].ravel()]
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    w = rng.integers(min_w, max_w + 1, size=len(src), dtype=np.int64)
    return DiGraph(rows * cols, src, dst, w)


def zero_heavy_digraph(n: int, m: int, *, p_zero: float = 0.5,
                       max_w: int = 6, seed=None) -> DiGraph:
    """Nonnegative digraph where a ``p_zero`` fraction of edges weigh 0 —
    §4's hard regime (zero-weight edges mixed with positive weights)."""
    rng = make_rng(seed)
    g = random_digraph(n, m, min_w=1, max_w=max_w, seed=rng)
    zero = rng.random(g.m) < p_zero
    w = g.w.copy()
    w[zero] = 0
    return g.with_weights(w)


def scale_weights(g: DiGraph, factor: int) -> DiGraph:
    """Multiply all weights by ``factor`` (drives the log N scaling sweep)."""
    return g.with_weights(g.w * int(factor))


def bf_hard_graph(n: int, extra_edges: int, *, max_cost: int = 4,
                  potential_spread: int = 12, seed=None) -> DiGraph:
    """A Bellman–Ford-adversarial feasible graph: a long forward path plus
    random *backward* edges.

    Forward hops exist only along the path ``0 → 1 → … → n−1``, so the hop
    diameter is ``n−1`` and parallel Bellman–Ford needs ``Θ(n)`` rounds
    (``Θ(n·m)`` work) — the regime where Goldberg's ``Õ(m√n log N)`` wins
    (experiment E9).  Weights are hidden-potential, so edges go negative but
    no negative cycle exists.
    """
    rng = make_rng(seed)
    if n < 2:
        return DiGraph.from_edges(max(n, 0), [])
    path_src = np.arange(n - 1, dtype=np.int64)
    path_dst = path_src + 1
    hi = rng.integers(1, n, size=extra_edges, dtype=np.int64)
    lo = (rng.random(extra_edges) * hi).astype(np.int64)  # lo < hi
    src = np.r_[path_src, hi]
    dst = np.r_[path_dst, lo]
    keep = _dedupe_edges(src, dst)
    keep[:n - 1] = True  # always keep the path
    src, dst = src[keep], dst[keep]
    phi = rng.integers(0, potential_spread + 1, size=n, dtype=np.int64)
    c = rng.integers(0, max_cost + 1, size=len(src), dtype=np.int64)
    w = c + phi[src] - phi[dst]
    return DiGraph(n, src, dst, w)


def geometric_digraph(n: int, radius: float = None, *, max_cost: int = 6,
                      potential_spread: int = 10, seed=None) -> DiGraph:
    """Random geometric digraph: vertices in the unit square, edges between
    points within ``radius`` (both directions, independently kept), weights
    hidden-potential (negative edges, no negative cycle).

    Road-network-like: high diameter, strong locality — the regime where
    hop-limited algorithms struggle and shortcutting shines.
    """
    rng = make_rng(seed)
    if n < 2:
        return DiGraph.from_edges(max(n, 0), [])
    if radius is None:
        radius = 1.8 / np.sqrt(n)  # supercritical: mostly connected
    pts = rng.random((n, 2))
    # grid hashing keeps neighbour search near-linear
    cell = max(radius, 1e-9)
    gx = (pts[:, 0] // cell).astype(np.int64)
    gy = (pts[:, 1] // cell).astype(np.int64)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        buckets.setdefault((int(gx[i]), int(gy[i])), []).append(i)
    srcs, dsts = [], []
    for (cx, cy), members in buckets.items():
        cand: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cand.extend(buckets.get((cx + dx, cy + dy), ()))
        cand_arr = np.asarray(cand, dtype=np.int64)
        for i in members:
            d2 = ((pts[cand_arr] - pts[i]) ** 2).sum(axis=1)
            near = cand_arr[(d2 <= radius * radius) & (cand_arr != i)]
            keep = near[rng.random(len(near)) < 0.7]
            srcs.append(np.full(len(keep), i, dtype=np.int64))
            dsts.append(keep)
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    keep = _dedupe_edges(src, dst)
    src, dst = src[keep], dst[keep]
    phi = rng.integers(0, potential_spread + 1, size=n, dtype=np.int64)
    c = rng.integers(0, max_cost + 1, size=len(src), dtype=np.int64)
    return DiGraph(n, src, dst, c + phi[src] - phi[dst])


def power_law_digraph(n: int, attach: int = 3, *, max_cost: int = 6,
                      potential_spread: int = 10, seed=None) -> DiGraph:
    """Preferential-attachment digraph (Barabási–Albert flavour) with
    hidden-potential weights: hub-dominated degree distribution, low
    diameter — the opposite regime from :func:`geometric_digraph`.

    Each new vertex attaches ``attach`` out-edges to earlier vertices with
    probability proportional to their current degree, plus one back-edge
    from a random earlier vertex to keep things strongly-connected-ish.
    """
    rng = make_rng(seed)
    if n < 2:
        return DiGraph.from_edges(max(n, 0), [])
    targets: list[int] = [0]
    srcs, dsts = [], []
    for v in range(1, n):
        k = min(attach, v)
        picks = rng.choice(len(targets), size=k)
        chosen = {int(targets[p]) for p in picks}
        for u in sorted(chosen):
            srcs.append(v)
            dsts.append(u)
            targets.append(u)
        back = int(rng.integers(0, v))
        srcs.append(back)
        dsts.append(v)
        targets.extend([v] * (len(chosen) + 1))
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    keep = _dedupe_edges(src, dst)
    src, dst = src[keep], dst[keep]
    phi = rng.integers(0, potential_spread + 1, size=n, dtype=np.int64)
    c = rng.integers(0, max_cost + 1, size=len(src), dtype=np.int64)
    return DiGraph(n, src, dst, c + phi[src] - phi[dst])
