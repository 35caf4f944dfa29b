"""Independent test oracles (networkx-backed; tests only), and the
numpy-indexed references of the scalar kernels."""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np

from repro.baselines.dag_relax import DagSsspResult
from repro.baselines.dijkstra import DijkstraResult
from repro.graph import DiGraph
from repro.graph.validate import topological_order
from repro.reach.scc import SccResult
from repro.resilience.errors import InputValidationError
from repro.runtime.metrics import Cost, CostAccumulator
from repro.runtime.model import DEFAULT_MODEL, CostModel


def nx_sssp_oracle(g: DiGraph, source: int):
    """Bellman-Ford distances via networkx; (dist array, has_neg_cycle).

    "Unreachable" and "not in graph" are different things: a vertex of
    ``g`` that Bellman-Ford never reaches gets ``inf`` in the returned
    array, while a ``source`` outside ``g``'s vertex range raises
    ``ValueError`` — it is a caller bug, not an unreachable vertex, and
    must never be silently conflated with one.
    """
    import networkx as nx

    if not (0 <= source < g.n):
        raise ValueError(
            f"source {source} is not a vertex of this {g.n}-vertex graph")
    G = nx.MultiDiGraph()
    G.add_nodes_from(range(g.n))
    for u, v, w in g.edges():
        G.add_edge(u, v, weight=w)
    try:
        lengths = nx.single_source_bellman_ford_path_length(G, source)
    except nx.NetworkXUnbounded:
        return None, True
    dist = np.full(g.n, np.inf)
    for v, d in lengths.items():
        dist[v] = d
    return dist, False


def nx_limited_sssp_oracle(g: DiGraph, source: int, limit: int) -> np.ndarray:
    """Distance-limited SSSP oracle for nonnegative weights.

    Mirrors the ``limited_sssp`` output contract: ``dist[v] = dist(s,v)``
    when it is ``<= limit``, else ``inf`` (also for unreachable vertices).
    Same source-validity rule as :func:`nx_sssp_oracle`.
    """
    import networkx as nx

    if not (0 <= source < g.n):
        raise ValueError(
            f"source {source} is not a vertex of this {g.n}-vertex graph")
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if g.m and g.w.min() < 0:
        raise ValueError("limited oracle requires nonnegative weights")
    G = nx.MultiDiGraph()
    G.add_nodes_from(range(g.n))
    for u, v, w in g.edges():
        G.add_edge(u, v, weight=w)
    lengths = nx.single_source_dijkstra_path_length(G, source)
    dist = np.full(g.n, np.inf)
    for v, d in lengths.items():
        if d <= limit:
            dist[v] = d
    return dist


def assert_same_graph(got: DiGraph, want: DiGraph) -> None:
    """``got`` and ``want`` agree in all ten slots: ``n``, ``m`` and every
    array, dtype and shape included.  Fails at the first differing slot."""
    for slot in DiGraph.__slots__:
        a, b = getattr(got, slot), getattr(want, slot)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype \
                and a.shape == b.shape and (a == b).all(), \
                f"slot {slot!r} differs: {a!r} != {b!r}"
        else:
            assert type(a) is type(b) and a == b, \
                f"slot {slot!r} differs: {a!r} != {b!r}"



def assert_same_result(got, want, what: str = "result") -> None:
    """``got`` equals ``want``: arrays in dtype, shape and every byte (so
    ``-0.0``/``0.0`` and the infinities count), dataclasses field by field,
    anything else by ``==``."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype \
            and got.shape == want.shape and got.tobytes() == want.tobytes(), \
            f"{what} differs: {got!r} != {want!r}"
    elif dataclasses.is_dataclass(want) and not isinstance(want, type):
        assert type(got) is type(want), f"{what} differs in type"
        for f in dataclasses.fields(want):
            assert_same_result(getattr(got, f.name), getattr(want, f.name),
                               f"{what}.{f.name}")
    else:
        assert got == want, f"{what} differs: {got!r} != {want!r}"

# ---------------------------------------------------------------------------
# Numpy-indexed references for the scalar kernels.  Each body is the
# kernel as it stood before its loops read ``memoryview``s: same
# signature, same loop, same charges, so results must match bit for bit
# (``tests/test_kernels.py``, and the re-check mode in ``conftest.py``).
# ---------------------------------------------------------------------------


def dijkstra_reference(g: DiGraph, source: int,
                       weights: np.ndarray | None = None,
                       limit: float | None = None,
                       model: CostModel = DEFAULT_MODEL) -> DijkstraResult:
    """Reference for :func:`repro.baselines.dijkstra.dijkstra`."""
    if not (0 <= source < g.n):
        raise InputValidationError("source out of range")
    w = g.w if weights is None else np.asarray(weights, dtype=np.int64)
    if g.m and w.min() < 0:
        raise InputValidationError("dijkstra requires nonnegative weights")
    acc = CostAccumulator()
    acc.charge_cost(model.dijkstra(g.n, g.m))
    dist = np.full(g.n, np.inf)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    indptr, indices = g.indptr, g.indices
    settled = np.zeros(g.n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        if limit is not None and d > limit:
            # everything remaining is farther than the limit
            dist[u] = np.inf
            while heap:
                _, x = heapq.heappop(heap)
                if not settled[x]:
                    dist[x] = np.inf
            break
        settled[u] = True
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        for slot in range(lo, hi):
            v = int(indices[slot])
            nd = d + float(w[slot])
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    if limit is not None:
        beyond = dist > limit
        dist[beyond] = np.inf
        parent[beyond] = -1
    return DijkstraResult(dist, parent, acc.snapshot())


def dijkstra_from_labels_reference(g: DiGraph, labels: np.ndarray,
                                   acc: CostAccumulator | None = None,
                                   model: CostModel = DEFAULT_MODEL
                                   ) -> np.ndarray:
    """Reference for :func:`repro.baselines.dijkstra.dijkstra_from_labels`."""
    if g.m and int(g.w.min()) < 0:
        raise InputValidationError(
            "dijkstra_from_labels requires nonnegative weights")
    if acc is not None:
        acc.charge_cost(model.dijkstra(g.n, g.m))
    dist = np.asarray(labels, dtype=np.int64).astype(np.float64)
    heap = [(float(dist[v]), v) for v in range(g.n)]
    heapq.heapify(heap)
    indptr, indices, w = g.indptr, g.indices, g.w
    while heap:
        dv, u = heapq.heappop(heap)
        if dv > dist[u]:
            continue
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        for slot in range(lo, hi):
            x = int(indices[slot])
            nd = dv + float(w[slot])
            if nd < dist[x]:
                dist[x] = nd
                heapq.heappush(heap, (nd, x))
    return dist.astype(np.int64)


def dag_sssp_reference(g: DiGraph, source: int,
                       weights: np.ndarray | None = None,
                       model: CostModel = DEFAULT_MODEL) -> DagSsspResult:
    """Reference for :func:`repro.baselines.dag_relax.dag_sssp`."""
    if not (0 <= source < g.n):
        raise ValueError("source out of range")
    order = topological_order(g)
    if order is None:
        raise ValueError("dag_sssp requires an acyclic graph")
    w = (g.w if weights is None else np.asarray(weights, dtype=np.int64)
         ).astype(np.float64)
    acc = CostAccumulator()
    acc.charge(g.n + g.m, g.n + g.m)  # sequential baseline cost
    dist = np.full(g.n, np.inf)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0.0
    indptr, indices = g.indptr, g.indices
    for u in order.tolist():
        du = dist[u]
        if du == np.inf:
            continue
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        for slot in range(lo, hi):
            v = int(indices[slot])
            nd = du + w[slot]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
    return DagSsspResult(dist, parent, acc.snapshot())


def scc_sequential_reference(g: DiGraph) -> SccResult:
    """Reference for :func:`repro.reach.scc.scc_sequential`."""
    n = g.n
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    comp = np.full(n, -1, dtype=np.int64)
    stack: list[int] = []
    next_index = 0
    next_comp = 0
    indptr, indices = g.indptr, g.indices

    for root in range(n):
        if index[root] != -1:
            continue
        # explicit DFS: (vertex, next out-slot to try)
        work = [(root, int(indptr[root]))]
        index[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, slot = work[-1]
            if slot < indptr[v + 1]:
                work[-1] = (v, slot + 1)
                u = int(indices[slot])
                if index[u] == -1:
                    index[u] = low[u] = next_index
                    next_index += 1
                    stack.append(u)
                    on_stack[u] = True
                    work.append((u, int(indptr[u])))
                elif on_stack[u]:
                    low[v] = min(low[v], index[u])
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    while True:
                        u = stack.pop()
                        on_stack[u] = False
                        comp[u] = next_comp
                        if u == v:
                            break
                    next_comp += 1
    return SccResult(comp, next_comp, Cost(n + g.m, n + g.m))


def ldd_clusters_reference(g: DiGraph, wp: np.ndarray, diameter: int, rng,
                           acc: CostAccumulator, model: CostModel
                           ) -> np.ndarray:
    """Reference for :func:`repro.core.bnw._ldd_clusters`."""
    cluster = np.full(g.n, -1, dtype=np.int64)
    acc.charge_cost(model.map(g.n))
    indptr, indices = g.indptr, g.indices
    next_id = 0
    scanned = 0
    for v0 in rng.permutation(g.n).tolist():
        if cluster[v0] != -1:
            continue
        radius = int(min(rng.exponential(diameter), 4.0 * diameter)) + 1
        dist = {v0: 0}
        heap: list[tuple[int, int]] = [(0, v0)]
        members = []
        while heap:
            d, u = heapq.heappop(heap)
            if cluster[u] != -1 or d > dist.get(u, -1):
                continue
            cluster[u] = next_id
            members.append(u)
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            scanned += hi - lo
            for slot in range(lo, hi):
                x = int(indices[slot])
                if cluster[x] != -1:
                    continue
                nd = d + int(wp[slot])
                if nd <= radius and nd < dist.get(x, nd + 1):
                    dist[x] = nd
                    heapq.heappush(heap, (nd, x))
        acc.charge_cost(model.bfs_round(scanned, g.n))
        scanned = 0
        next_id += 1
    return cluster
