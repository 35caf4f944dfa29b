"""Independent test oracles (networkx-backed; tests only), the
numpy-indexed references of the scalar kernels, and the previous forms
of the public graph constructor, the reachability rounds, the SCC rounds
and their ranks, ``condense``, the SentLabel sets, Propagate, the §3
peeling and the cost accounting."""

from __future__ import annotations

import dataclasses
import heapq
import math

import numpy as np

from repro.baselines.dag_relax import DagSsspResult
from repro.baselines.dijkstra import DijkstraResult
from repro.dag01.peeling import NO_EDGE, Dag01Result, _State
from repro.graph import DiGraph
from repro.graph.csr import in_edge_slots, out_edge_slots
from repro.graph.digraph import (
    _aligned_weights,
    _as_int64,
    _per_vertex,
    _validated_weights,
)
from repro.graph.transform import Condensation, edge_subgraph_mask
from repro.graph.validate import check_source, is_dag, topological_order
from repro.observability.metrics import metric_inc
from repro.observability.tracer import trace_span
from repro.reach.multisource import (
    _UNLABELED,
    NO_SOURCE,
    ReachResult,
    multisource_reachability,
    multisource_reachability_min,
)
from repro.reach.scc import SccResult
from repro.resilience.errors import InputValidationError, VerificationError
from repro.resilience.faults import current_fault_plan
from repro.runtime.metrics import Cost, CostAccumulator
from repro.runtime.primitives import stable_argsort, unique_sorted
from repro.runtime.racecheck import race_read, race_write
from repro.runtime.rng import geometric_priorities, make_rng


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


def digraph_reference(n: int, src: np.ndarray, dst: np.ndarray,
                      w: np.ndarray) -> DiGraph:
    """Reference for the public ``DiGraph(n, src, dst, w)``: its body as
    it stood with two ``np.lexsort``\\ s, the forward order by ``(src,
    dst)`` and the reverse order by ``(dst, src)``, both stable.  It
    fills the slots itself, not through ``DiGraph._from_sorted``, which
    the re-check mode wraps with a call to this function."""
    g = object.__new__(DiGraph)
    if n < 0:
        raise InputValidationError("vertex count must be nonnegative")
    src = _as_int64(src, "edge sources")
    dst = _as_int64(dst, "edge destinations")
    w = _validated_weights(w)
    if not (len(src) == len(dst) == len(w)):
        raise InputValidationError("edge arrays must have equal length")
    if len(src) and (src.min() < 0 or src.max() >= n
                     or dst.min() < 0 or dst.max() >= n):
        raise InputValidationError("edge endpoint out of range")
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    # reverse CSR order; lexsort keys: primary dst, secondary src
    g._fill(n, src, dst, w[order], np.lexsort((src, dst)))
    return g


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
    elif isinstance(want, DiGraph):
        assert isinstance(got, DiGraph), f"{what} differs in type"
        for slot in DiGraph.__slots__:
            assert_same_result(getattr(got, slot), getattr(want, slot),
                               f"{what}.{slot}")
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
                       limit: float | None = None) -> DijkstraResult:
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
                                   acc: CostAccumulator | None = None
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
                       weights: np.ndarray | None = None) -> DagSsspResult:
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
    return SccResult(comp, next_comp, Cost(n + g.m, n + g.m),
                     trimmed=0, trim_passes=0)


def ldd_clusters_reference(g: DiGraph, wp: np.ndarray, diameter: int, rng,
                           acc: CostAccumulator
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


# ---------------------------------------------------------------------------
# Previous forms of code whose rewrite must not change a result, an RNG
# draw or a charge: multisource reachability with a numpy round whatever
# the frontier's size, the batched SCC with one masked subgraph and its
# transpose per round, the SortedIntSet-backed SetVector, Propagate
# with one in-edge gather per priority, and the §3 peeling whose
# Propagate re-masks one in-edge table at every priority.
# ---------------------------------------------------------------------------


def multisource_reachability_reference(
        g: DiGraph, sources: np.ndarray, acc: CostAccumulator | None = None, *,
        within: np.ndarray | None = None) -> ReachResult:
    """Reference for
    :func:`repro.reach.multisource.multisource_reachability`: numpy
    rounds only.  ``within=`` runs it on ``g.induced_subgraph`` and maps
    ``pi`` back to ``g``'s ids, which is that keyword's contract."""
    if within is not None:
        sub, nodes = g.induced_subgraph(np.asarray(within).nonzero()[0])
        res = multisource_reachability_reference(
            sub, np.searchsorted(nodes, sources), acc)
        pi = np.full(g.n, NO_SOURCE, dtype=np.int64)
        reached = res.pi >= 0
        pi[nodes[reached]] = nodes[res.pi[reached]]
        return ReachResult(pi, res.rounds, res.cost)
    sources = unique_sorted(np.asarray(sources, dtype=np.int64))
    if len(sources) and (sources[0] < 0 or sources[-1] >= g.n):
        raise ValueError("source out of range")
    local = CostAccumulator()
    # the span binds to the *caller's* accumulator and closes after the
    # fold below, so its span_model delta is the substituted black-box
    # bound (oracle_span), not the measured BFS rounds
    with trace_span("reach", acc=acc if acc is not None else local,
                    phase="reach", n=g.n, m=g.m,
                    sources=len(sources)) as rsp:
        pi = np.full(g.n, NO_SOURCE, dtype=np.int64)
        pi[sources] = sources
        frontier = sources
        rounds = 0
        while len(frontier):
            rounds += 1
            slots = out_edge_slots(g, frontier)
            local.charge_cost(model.bfs_round(len(slots), g.n))
            if len(slots) == 0:
                break
            targets = g.indices[slots]
            undiscovered = pi[targets] == NO_SOURCE
            newly = targets[undiscovered]
            # forward any reaching source along the edge (last write wins —
            # any single source satisfies the contract)
            pi[newly] = pi[g.src[slots][undiscovered]]
            frontier = unique_sorted(newly)
            local.charge_cost(model.pack(len(targets)))
        if acc is not None:
            acc.charge(local.work,
                       span=local.span,
                       span_model=model.oracle_span(g.n))
        rsp.count("rounds", rounds)
        metric_inc("repro_reach_calls_total")
        metric_inc("repro_reach_rounds_total", rounds)
    return ReachResult(pi, rounds, Cost(local.work, local.span,
                                        model.oracle_span(g.n)))


def multisource_reachability_min_reference(
        g: DiGraph, sources: np.ndarray, acc: CostAccumulator | None = None, *,
        edge_mask: np.ndarray | None = None) -> ReachResult:
    """Reference for
    :func:`repro.reach.multisource.multisource_reachability_min`: numpy
    rounds only."""
    if edge_mask is None:
        m = g.m
    else:
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if edge_mask.shape != (g.m,):
            raise InputValidationError("edge mask must align with edge ids")
        m = int(np.count_nonzero(edge_mask))
    sources = unique_sorted(np.asarray(sources, dtype=np.int64))
    if len(sources) and (sources[0] < 0 or sources[-1] >= g.n):
        raise ValueError("source out of range")
    local = CostAccumulator()
    with trace_span("reach", acc=acc if acc is not None else local,
                    phase="reach", n=g.n, m=m, sources=len(sources),
                    variant="min") as rsp:
        label = np.empty(g.n, dtype=np.int64)
        label.fill(_UNLABELED)
        label[sources] = sources
        frontier = sources
        rounds = 0
        while len(frontier):
            rounds += 1
            slots = out_edge_slots(g, frontier)
            if edge_mask is not None:
                slots = slots[edge_mask[slots]]
            local.charge_cost(model.bfs_round(len(slots), g.n))
            if len(slots) == 0:
                break
            targets = g.indices[slots]
            cand = label[g.src[slots]]
            old = label[targets]
            np.minimum.at(label, targets, cand)
            improved = label[targets] < old
            frontier = unique_sorted(targets[improved])
            local.charge_cost(model.pack(len(targets)))
        pi = label
        pi[pi == _UNLABELED] = NO_SOURCE
        if acc is not None:
            acc.charge(local.work, span=local.span,
                       span_model=model.oracle_span(g.n))
        rsp.count("rounds", rounds)
        metric_inc("repro_reach_calls_total")
        metric_inc("repro_reach_rounds_total", rounds)
    return ReachResult(pi, rounds, Cost(local.work, local.span,
                                        model.oracle_span(g.n)))


def condense_reference(g: DiGraph, comp: np.ndarray,
                       weights: np.ndarray | None = None) -> Condensation:
    """Reference for :func:`repro.graph.transform.condense`: one
    three-key lexsort groups the cross edges by ``(csrc, cdst)`` with the
    minimum weight first (ties by edge id), and the first edge of each
    group is kept."""
    comp = _per_vertex(g, comp, "component labels")
    w = _aligned_weights(g, weights)
    nc = int(comp.max()) + 1 if g.n else 0
    if g.n and comp.min() < 0:
        raise InputValidationError("component ids must be nonnegative")
    csrc = comp[g.src]
    cdst = comp[g.dst]
    cross = csrc != cdst
    csrc, cdst = csrc[cross], cdst[cross]
    wc = w[cross]
    orig_eids = np.flatnonzero(cross)
    if len(csrc):
        order = np.lexsort((wc, cdst, csrc))
        csrc, cdst, wc = csrc[order], cdst[order], wc[order]
        orig_eids = orig_eids[order]
        first = np.r_[True, (csrc[1:] != csrc[:-1]) | (cdst[1:] != cdst[:-1])]
        csrc, cdst, wc = csrc[first], cdst[first], wc[first]
        orig_eids = orig_eids[first]
    if weights is not None:
        wc = _validated_weights(wc)
    cg = DiGraph._from_sorted(nc, csrc, cdst, wc,
                              np.argsort(cdst, kind="stable"))
    return Condensation(cg, comp, orig_eids)


def lex_rank(*keys: np.ndarray) -> np.ndarray:
    """Dense rank of the tuples ``(keys[0][i], keys[1][i], ...)`` in
    lexicographic order: the inverse that ``np.unique`` returns for one key
    with ``return_inverse=True``, or for the stacked keys with ``axis=1``,
    from one int64 lexsort.  ``scc`` ranked its block splits this way
    before it ranked one injective key (``repro.reach.scc._split_key``)."""
    order = np.lexsort(keys[::-1])
    step = np.zeros(len(order), dtype=np.int64)
    for key in keys:
        k = key[order]
        step[1:] |= k[1:] != k[:-1]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.add.accumulate(step)
    return rank


def scc_reference(g: DiGraph, acc: CostAccumulator | None = None,
                  seed=0) -> SccResult:
    """Reference for :func:`repro.reach.scc.scc`: each trim pass builds
    the live-edge subgraph and reads its degrees, and each round builds
    the masked subgraph and its transpose."""
    rng = make_rng(seed)
    local = CostAccumulator()
    live = np.ones(g.n, dtype=bool)
    zero_w = np.zeros(g.m, dtype=np.int64)
    cap = 1 if g.n < 2 else math.ceil(math.log2(g.n))
    passes = 0
    while live.any() and passes < cap:
        passes += 1
        e = live[g.src] & live[g.dst]
        local.charge_cost(model.pack(g.m))
        sub = DiGraph(g.n, g.src[e], g.dst[e], zero_w[e])
        has_out = np.diff(sub.indptr) > 0
        has_in = np.diff(sub.rindptr) > 0
        local.charge_cost(model.map(g.n))
        cut = live & ~(has_in & has_out)
        local.charge_cost(model.pack(g.n))
        if not cut.any():
            break
        live[cut] = False
    # trimmed vertices are singletons numbered in vertex-id order
    trimmed = np.flatnonzero(~live)
    comp = np.full(g.n, -1, dtype=np.int64)
    comp[trimmed] = np.arange(len(trimmed))
    next_id = len(trimmed)
    block = np.zeros(g.n, dtype=np.int64)   # current block of each vertex
    batch = 1
    while live.any():
        live_ids = np.flatnonzero(live)
        take = min(batch, len(live_ids))
        centers = rng.choice(live_ids, size=take, replace=False)
        local.charge_cost(model.map(len(live_ids)))
        # restrict to intra-block live edges; center labels cannot escape
        # their blocks
        keep = live[g.src] & live[g.dst] & (block[g.src] == block[g.dst])
        local.charge_cost(model.pack(g.m))
        sub = edge_subgraph_mask(g, keep, weights=zero_w)
        fwd = multisource_reachability_min(sub, centers, local).pi
        bwd = multisource_reachability_min(sub.reversed(), centers, local).pi
        local.charge_cost(model.map(g.n))
        done = live & (fwd >= 0) & (fwd == bwd)
        # finalise each self-min center's SCC with a fresh contiguous id
        scc_ids = np.flatnonzero(done)
        if len(scc_ids):
            uniq, inv = np.unique(fwd[scc_ids], return_inverse=True)
            comp[scc_ids] = next_id + inv
            next_id += len(uniq)
            live[scc_ids] = False
        # split survivors by (block, fwd winner, bwd winner)
        survivors = np.flatnonzero(live)
        if len(survivors):
            block[survivors] = lex_rank(block[survivors], fwd[survivors],
                                        bwd[survivors])
            local.charge_cost(model.sort(len(survivors)))
        batch = min(batch * 2, max(int(live.sum()), 1))
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return SccResult(comp, next_id, local.snapshot(), len(trimmed), passes)


class SortedIntSet:
    """An ordered set of int64 keys backed by a sorted numpy array."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray | None = None) -> None:
        if data is None:
            self._data = np.empty(0, dtype=np.int64)
        else:
            arr = np.asarray(data, dtype=np.int64)
            self._data = np.unique(arr)

    def __len__(self) -> int:
        return len(self._data)

    def merge(self, other: SortedIntSet | np.ndarray,
              acc: CostAccumulator | None = None) -> None:
        """Union ``other`` into this set (in place)."""
        race_write(self, label="SortedIntSet", site="pset.merge")
        arr = other._data if isinstance(other, SortedIntSet) else \
            np.unique(np.asarray(other, dtype=np.int64))
        if acc is not None:
            small, big = sorted((len(arr), len(self._data)))
            acc.charge_cost(model.set_merge(small, big))
        if len(arr) == 0:
            return
        if len(self._data) == 0:
            self._data = arr.copy()
            return
        merged = np.union1d(self._data, arr)
        self._data = merged

    def clear(self, acc: CostAccumulator | None = None) -> None:
        race_write(self, label="SortedIntSet", site="pset.clear")
        if acc is not None:
            acc.charge_cost(model.set_enumerate(len(self._data)))
        self._data = np.empty(0, dtype=np.int64)


class SetVectorReference:
    """Reference for :class:`repro.runtime.pset.SetVector`: one
    :class:`SortedIntSet` per identifier."""

    __slots__ = ("_sets",)

    def __init__(self, n_sets: int,
                 acc: CostAccumulator | None = None) -> None:
        if acc is not None:
            acc.charge_cost(model.map(n_sets))
        self._sets: list[SortedIntSet] = [SortedIntSet() for _ in range(n_sets)]

    def __len__(self) -> int:
        return len(self._sets)

    def add_batch(self, ident: int, keys: np.ndarray,
                  acc: CostAccumulator | None = None) -> None:
        self._sets[ident].merge(np.asarray(keys, dtype=np.int64), acc)

    def size(self, ident: int) -> int:
        return len(self._sets[ident])

    def gather(self, idents: np.ndarray | list[int],
               acc: CostAccumulator | None = None) -> np.ndarray:
        """Flat array of all elements across the identified sets."""
        race_read(self, label="SetVector", site="pset.gather")
        parts = [self._sets[int(i)]._data for i in idents]
        total = sum(len(p) for p in parts)
        if acc is not None:
            acc.charge_cost(model.scan(len(parts)))
            acc.charge_cost(model.map(total))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def clear_many(self, idents: np.ndarray | list[int],
                   acc: CostAccumulator | None = None) -> None:
        race_write(self, label="SetVector", site="pset.clear_many")
        for i in idents:
            self._sets[int(i)].clear(acc)


def propagate_reference(st: _State, vprime: np.ndarray) -> None:
    """Reference for :func:`repro.dag01.peeling._propagate`: one
    GetNearbyLabel gather per priority."""
    g, acc = st.g, st.acc
    vprime = vprime[st.live[vprime]] if len(vprime) else vprime
    st.propagate_calls += 1
    st.propagate_node_total += len(vprime)
    if len(vprime) == 0:
        return
    newly_labeled: list[np.ndarray] = []
    cap = int(st.pri.max(initial=1))
    for p in range(cap, 0, -1):
        if len(vprime) == 0:
            break
        nearby_labels_reference(st, vprime, p)
        sources = vprime[st.label_eid[vprime] != NO_EDGE]
        acc.charge_cost(model.pack(len(vprime)))
        if len(sources):
            sub, nodes = g.induced_subgraph(vprime)
            acc.charge_cost(model.pack(incident_edges(g, vprime)))
            st.reach_calls += 1
            st.reach_node_total += sub.n
            local_sources = np.searchsorted(nodes, sources)
            res = multisource_reachability(sub, local_sources, acc)
            reached = np.flatnonzero(res.pi >= 0)
            global_v = nodes[reached]
            global_pi = nodes[res.pi[reached]]
            # inherit the label of the reaching source (π of a source is
            # itself, so already-labeled vertices keep their label)
            new_lab = st.label_eid[global_pi]
            changed = st.label_eid[global_v] != new_lab
            st.label_changes[global_v[changed]] += 1
            st.label_eid[global_v] = new_lab
            st.parent_eid[global_v] = new_lab
            acc.charge_cost(model.map(len(global_v)))
        # remove newly labeled vertices from V'
        still = st.label_eid[vprime] == NO_EDGE
        newly_labeled.append(vprime[~still])
        vprime = vprime[still]
        acc.charge_cost(model.pack(len(still)))
    # update SentLabel sets with all new label assignments, grouped by the
    # label head u (semisort idiom, §3.5)
    if newly_labeled:
        labeled = np.concatenate(newly_labeled)
        if len(labeled):
            heads = g.src[st.label_eid[labeled]]
            acc.charge_cost(model.sort(len(labeled)))
            order = np.argsort(heads, kind="stable")
            heads_s, labeled_s = heads[order], labeled[order]
            bounds = np.flatnonzero(
                np.r_[True, heads_s[1:] != heads_s[:-1]])
            for idx, start in enumerate(bounds):
                stop = (bounds[idx + 1] if idx + 1 < len(bounds)
                        else len(heads_s))
                st.sent.add_batch(int(heads_s[start]),
                                  labeled_s[start:stop], acc)


def nearby_labels_reference(st: _State, vprime: np.ndarray, p: int) -> None:
    """Reference for GetNearbyLabel: gathers ``V'``'s in-edges afresh."""
    g, acc = st.g, st.acc
    slots = in_edge_slots(g, vprime)
    acc.charge_cost(model.map(len(slots)))
    if len(slots) == 0:
        return
    eids = g.reids[slots]
    u = g.src[eids]
    v = g.dst[eids]
    in_vp = np.zeros(g.n, dtype=bool)
    in_vp[vprime] = True
    live_u = st.live[u]
    case_a = live_u & (g.w[eids] == -1) & (st.pri[u] == p)
    u_label = st.label_eid[u]
    head_pri = np.where(u_label != NO_EDGE, st.pri[g.src[u_label.clip(min=0)]], 0)
    case_b = live_u & ~in_vp[u] & (u_label != NO_EDGE) & (head_pri == p)
    # candidate label per qualifying edge slot
    cand = np.where(case_a, eids, np.where(case_b, u_label, NO_EDGE))
    hit = cand != NO_EDGE
    if not hit.any():
        return
    tv, tl = v[hit], cand[hit]
    old = st.label_eid[tv]
    st.label_eid[tv] = tl          # any one candidate per v (last wins)
    applied = st.label_eid[tv] != old
    # count distinct vertices whose label changed (dedupe repeated slots)
    changed_v = np.unique(tv[applied & (old != st.label_eid[tv])])
    st.label_changes[changed_v] += 1
    st.parent_eid[tv] = st.label_eid[tv]


def incident_edges(g: DiGraph, nodes: np.ndarray) -> int:
    """Number of edges incident to ``nodes`` (for subgraph-build charging)."""
    deg = (g.indptr[nodes + 1] - g.indptr[nodes]) + \
        (g.rindptr[nodes + 1] - g.rindptr[nodes])
    return int(deg.sum())


def dag01_limited_sssp_reference(g: DiGraph, source: int, limit: int, *,
                                 seed=0, acc: CostAccumulator | None = None,
                                 validate: bool = True,
                                 priorities: np.ndarray | None = None
                                 ) -> Dag01Result:
    """Reference for :func:`repro.dag01.peeling.dag01_limited_sssp`:
    Propagate gathers ``V'``'s in-edge table once, then steps through
    every priority, re-masking the whole table for GetNearbyLabel and
    filtering ``V'`` and the table after each priority that labels, and
    the SentLabel sets are sorted arrays (:class:`SetVectorReference`)."""
    source = check_source(g, source)
    if limit < 0:
        raise InputValidationError("limit must be nonnegative")
    if priorities is not None:
        priorities = _per_vertex(g, priorities, "priorities")
    if validate:
        if g.m and not np.isin(g.w, (0, -1)).all():
            raise InputValidationError("weights must be in {0, -1}")
        if not is_dag(g):
            raise InputValidationError("graph must be acyclic")

    local = CostAccumulator()
    with trace_span("dag01-peeling", acc=local, phase="dag01",
                    n=g.n, m=g.m, limit=limit) as psp:
        reach = multisource_reachability(g, np.array([source]), local)
        reachable = np.flatnonzero(reach.pi >= 0)
        dist = np.full(g.n, np.inf)
        parent_edge = np.full((g.n, 2), NO_EDGE, dtype=np.int64)
        priorities_full = np.zeros(g.n, dtype=np.int64)
        label_changes_full = np.zeros(g.n, dtype=np.int64)

        if len(reachable) == g.n:
            sub, ids = g, np.arange(g.n, dtype=np.int64)
            sub_source = source
        else:
            sub, ids = g.induced_subgraph(reachable)
            local.charge_cost(model.pack(g.m))
            sub_source = int(np.searchsorted(ids, source))

        rng = make_rng(seed)
        if priorities is None:
            pri = geometric_priorities(sub.n, rng)
        else:
            pri = priorities[ids]
        plan = current_fault_plan()
        if plan is not None:
            pri = plan.perturb_priorities(pri)
        if sub.n and (pri.min() < 1 or pri.max() > sub.n):
            raise VerificationError(
                "peeling priorities violate the §3.1 contract "
                f"(range [{int(pri.min())}, {int(pri.max())}], "
                f"need [1, {sub.n}])",
                stage="dag01_peeling")
        local.charge_cost(model.map(sub.n))

        st = _State(
            g=sub,
            pri=pri,
            live=np.ones(sub.n, dtype=bool),
            label_eid=np.full(sub.n, NO_EDGE, dtype=np.int64),
            parent_eid=np.full(sub.n, NO_EDGE, dtype=np.int64),
            sent=SetVectorReference(sub.n),
            acc=local,
            label_changes=np.zeros(sub.n, dtype=np.int64),
        )

        sub_dist = peel_reference(st, sub_source, limit)

        dist[ids] = sub_dist
        has_parent = st.parent_eid != NO_EDGE
        pe = st.parent_eid[has_parent]
        parent_edge[ids[has_parent], 0] = ids[sub.src[pe]]
        parent_edge[ids[has_parent], 1] = ids[sub.dst[pe]]
        priorities_full[ids] = pri
        label_changes_full[ids] = st.label_changes
        rounds = int(min(limit, -sub_dist[np.isfinite(sub_dist)].min()
                         if np.isfinite(sub_dist).any() else 0))
        psp.set(rounds=rounds)
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return Dag01Result(
        dist=dist,
        parent_edge=parent_edge,
        priorities=priorities_full,
        rounds=rounds,
        label_changes=label_changes_full,
        propagate_calls=st.propagate_calls,
        propagate_node_total=st.propagate_node_total,
        reach_calls=st.reach_calls,
        reach_node_total=st.reach_node_total,
        cost=local.snapshot(),
    )


def peel_reference(st: _State, source: int, limit: int) -> np.ndarray:
    """Algorithm 1's main loop, with :func:`propagate_table_reference`."""
    g, acc = st.g, st.acc
    dist = np.full(g.n, -np.inf)

    propagate_table_reference(st, np.arange(g.n, dtype=np.int64))
    frontier = np.flatnonzero(st.label_eid == NO_EDGE)
    acc.charge_cost(model.pack(g.n))

    for i in range(limit + 1):
        if len(frontier) == 0:
            break
        with trace_span("peel-round", acc=acc, phase="dag01",
                        d=i, frontier=len(frontier)) as rsp:
            candidates = st.sent.gather(frontier, acc)
            st.sent.clear_many(frontier, acc)
            acc.charge_cost(model.map(len(candidates)))
            in_f = np.zeros(g.n, dtype=bool)
            in_f[frontier] = True
            if len(candidates):
                cand_heads = g.src[st.label_eid[candidates].clip(min=0)]
                broken = (st.label_eid[candidates] != NO_EDGE) & \
                    in_f[cand_heads] & st.live[candidates]
                invalid = unique_sorted(candidates[broken])
            else:
                invalid = candidates
            st.label_eid[invalid] = NO_EDGE
            dist[frontier] = -i
            st.live[frontier] = False
            acc.charge_cost(model.map(len(frontier)))
            rsp.count("finalized", len(frontier))
            rsp.count("invalidated", len(invalid))
            if i == limit:
                break
            propagate_table_reference(st, invalid)
            frontier = invalid[st.label_eid[invalid] == NO_EDGE]
            acc.charge_cost(model.pack(len(invalid)))
    return dist


def propagate_table_reference(st: _State, vprime: np.ndarray) -> None:
    """Propagate with one in-edge table per call, re-masked at every
    priority."""
    g, acc = st.g, st.acc
    vprime = vprime[st.live[vprime]] if len(vprime) else vprime
    st.propagate_calls += 1
    st.propagate_node_total += len(vprime)
    if len(vprime) == 0:
        return
    in_vp = np.zeros(g.n, dtype=bool)
    in_vp[vprime] = True
    near = in_edge_table_reference(st, vprime, in_vp)
    newly_labeled: list[np.ndarray] = []
    cap = int(st.pri.max(initial=1))
    for p in range(cap, 0, -1):
        if len(vprime) == 0:
            break
        pack = model.pack(len(vprime))
        labeled_any = nearby_labels_table_reference(st, near, p)
        acc.charge_cost(pack)
        if labeled_any:
            sources = vprime[st.label_eid[vprime] != NO_EDGE]
            acc.charge_cost(model.pack(incident_edges(g, vprime)))
            st.reach_calls += 1
            st.reach_node_total += len(vprime)
            res = multisource_reachability(g, sources, acc,
                                           within=in_vp)
            pi = res.pi[vprime]
            reached = pi >= 0
            global_v = vprime[reached]
            global_pi = pi[reached]
            new_lab = st.label_eid[global_pi]
            changed = st.label_eid[global_v] != new_lab
            st.label_changes[global_v[changed]] += 1
            st.label_eid[global_v] = new_lab
            st.parent_eid[global_v] = new_lab
            acc.charge_cost(model.map(len(global_v)))
            still = st.label_eid[vprime] == NO_EDGE
            newly_labeled.append(vprime[~still])
            in_vp[newly_labeled[-1]] = False
            vprime = vprime[still]
            near = near[:, in_vp[near[_V]]]
        acc.charge_cost(pack)
    if newly_labeled:
        labeled = np.concatenate(newly_labeled)
        heads = g.src[st.label_eid[labeled]]
        acc.charge_cost(model.sort(len(labeled)))
        order = stable_argsort(heads, g.n)
        heads_s, labeled_s = heads[order], labeled[order]
        bounds = ((heads_s[1:] != heads_s[:-1]).nonzero()[0] + 1).tolist()
        for lo, hi in zip([0, *bounds], [*bounds, len(heads_s)]):
            st.sent.add_batch(int(heads_s[lo]), labeled_s[lo:hi], acc)


# rows of the per-call in-edge table built by ``in_edge_table_reference``
_V, _EID, _ULABEL, _APRI, _BPRI = range(5)


def in_edge_table_reference(st: _State, vprime: np.ndarray,
                            in_vp: np.ndarray) -> np.ndarray:
    """The in-edges ``(u, v)`` of ``V'`` as a ``(5, k)`` int64 table in
    reverse-CSR order: rows ``v``, edge id, ``u``'s label, and the
    priority at which case A and case B of GetNearbyLabel fire on the
    edge (0: never)."""
    g = st.g
    slots = in_edge_slots(g, vprime)
    eids = g.reids[slots]
    u = g.src[eids]
    live_u = st.live[u]
    u_label = st.label_eid[u]
    a_pri = np.where(live_u & (g.w[eids] == -1), st.pri[u], 0)
    head_pri = st.pri[g.src[u_label.clip(min=0)]]
    b_pri = np.where(live_u & ~in_vp[u] & (u_label != NO_EDGE), head_pri, 0)
    return np.array((g.dst[eids], eids, u_label, a_pri, b_pri))


def nearby_labels_table_reference(st: _State, near: np.ndarray,
                                  p: int) -> bool:
    """GetNearbyLabel at priority ``p`` over the whole table ``near``;
    returns whether any vertex got a label."""
    acc = st.acc
    acc.charge_cost(model.map(near.shape[1]))
    case_a = near[_APRI] == p
    hit = case_a | (near[_BPRI] == p)
    if not hit.any():
        return False
    tv = near[_V, hit]
    tl = np.where(case_a[hit], near[_EID, hit], near[_ULABEL, hit])
    old = st.label_eid[tv]
    st.label_eid[tv] = tl          # any one candidate per v (last wins)
    new = st.label_eid[tv]
    st.label_changes[unique_sorted(tv[new != old])] += 1
    st.parent_eid[tv] = new
    return True


# ---------------------------------------------------------------------------
# The cost accounting before the float forms, verbatim: the frozen
# dataclass ``Cost`` whose ``__post_init__`` resolved the ``span_model``
# default, the ``CostModel`` formulas that built one ``Cost`` per call,
# and the accumulator's ``charge_cost``.  Only names and line breaks
# differ.
# ``tests/test_cost_accounting.py`` checks each ``*_ws`` float form, the
# ``Cost`` wrappers, charge sequences and the new ``Cost`` against them
# bit for bit.  ``parallel_all`` keeps its builtin ``sum()``, which is
# what made its work depend on the Python version.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class CostReference:
    """An immutable (work, span) pair.

    ``span_model`` defaults to ``span`` so ordinary primitives only quote one
    number.  Costs compose sequentially with ``+`` (work adds, spans add) and
    in parallel with ``|`` (work adds, spans max).
    """

    work: float = 0.0
    span: float = 0.0
    span_model: float | None = None

    def __post_init__(self) -> None:
        if self.span_model is None:
            object.__setattr__(self, "span_model", self.span)

    def __add__(self, other: "CostReference") -> "CostReference":
        if not isinstance(other, CostReference):
            return NotImplemented
        return CostReference(
            self.work + other.work,
            self.span + other.span,
            self.span_model + other.span_model,
        )

    def __or__(self, other: "CostReference") -> "CostReference":
        if not isinstance(other, CostReference):
            return NotImplemented
        return CostReference(
            self.work + other.work,
            max(self.span, other.span),
            max(self.span_model, other.span_model),
        )

    def scaled(self, k: float) -> "CostReference":
        """Sequential repetition: ``k`` rounds of this cost."""
        return CostReference(self.work * k, self.span * k,
                             self.span_model * k)

    @staticmethod
    def parallel_all(costs: "list[CostReference]") -> "CostReference":
        """Compose ``costs`` as parallel siblings (work sums, span maxes)."""
        work = sum(c.work for c in costs)
        span = max((c.span for c in costs), default=0.0)
        span_model = max((c.span_model for c in costs), default=0.0)
        return CostReference(work, span, span_model)

    @property
    def parallelism(self) -> float:
        """Work over span — the model's available speed-up.  Divided as
        Python floats: numpy scalars warn on overflow where a Python
        float quietly gives ``inf``."""
        if self.span_model > 0:
            return float(self.work) / float(self.span_model)
        return float("inf")


def lg_reference(n: float) -> float:
    """Smoothed base-2 logarithm used in all span formulas."""
    return math.log2(n + 2.0)


@dataclasses.dataclass(frozen=True, slots=True)
class CostModelReference:
    """The cost model's formulas, each building a :class:`CostReference`."""

    reach_span_exponent: float = 0.5
    polylog_span_factor: float = 1.0

    def map(self, n: int, per_item_work: float = 1.0) -> CostReference:
        """Parallel-for over ``n`` items: work ``O(n)``, span ``O(lg n)``."""
        return CostReference(max(n, 1) * per_item_work, lg_reference(n))

    def reduce(self, n: int) -> CostReference:
        """Parallel reduction: work ``O(n)``, span ``O(lg n)``."""
        return CostReference(max(n, 1), lg_reference(n))

    def scan(self, n: int) -> CostReference:
        """Parallel prefix sums: work ``O(n)``, span ``O(lg n)``."""
        return CostReference(max(n, 1), lg_reference(n))

    def pack(self, n: int) -> CostReference:
        """Filter/compact ``n`` items (scan + scatter)."""
        return CostReference(2.0 * max(n, 1), 2.0 * lg_reference(n))

    def sort(self, n: int) -> CostReference:
        """Parallel comparison sort: work ``O(n lg n)``, span ``O(lg^2 n)``."""
        return CostReference(max(n, 1) * lg_reference(n),
                             lg_reference(n) ** 2)

    def fork(self, k: int) -> CostReference:
        """Spawning ``k`` parallel branches (binary fork tree)."""
        return CostReference(max(k, 1), lg_reference(k))

    def set_merge(self, m_small: int, n_big: int) -> CostReference:
        """Merging sets of sizes m <= n: work ``O(m lg(n/m + 1))``, span
        ``O(lg m · lg n)``."""
        m = max(m_small, 1)
        n = max(n_big, m)
        return CostReference(m * math.log2(n / m + 2.0),
                             lg_reference(m) * lg_reference(n))

    def set_enumerate(self, n: int) -> CostReference:
        """Enumerating a size-``n`` set: work ``O(n)``, span ``O(lg n)``."""
        return CostReference(max(n, 1), lg_reference(n))

    def bfs_round(self, frontier_edges: int, n: int) -> CostReference:
        """One parallel BFS round touching ``frontier_edges`` edges."""
        return CostReference(max(frontier_edges, 1), lg_reference(n))

    def oracle_span(self, n_sub: int) -> float:
        """Span of one black-box reachability/ASSSP call on ``n_sub`` nodes:
        ``n^(1/2+o(1))`` modelled as ``n^exp · polylog``."""
        n = max(n_sub, 1)
        return ((n ** self.reach_span_exponent) * lg_reference(n)
                * self.polylog_span_factor)

    def oracle_work(self, n_sub: int, m_sub: int) -> float:
        """Work of one black-box call: ``Õ(m)``."""
        sz = max(n_sub + m_sub, 1)
        return sz * lg_reference(sz)

    def dijkstra(self, n: int, m: int) -> CostReference:
        """Parallel Dijkstra [Brodal et al. / Driscoll et al.]:
        work ``Õ(m)``, span ``Õ(n)``."""
        sz = max(n + m, 1)
        return CostReference(sz * lg_reference(sz),
                             max(n, 1) * lg_reference(n))


#: What the kernel references above charge: one ``CostReference`` per
#: formula call, as the kernels did before the float forms.
model = CostModelReference()


class CostAccumulatorReference:
    """The accumulator's running totals and its ``charge_cost``."""

    __slots__ = ("work", "span", "span_model")

    def __init__(self) -> None:
        self.work = 0.0
        self.span = 0.0
        self.span_model = 0.0

    def charge_cost(self, cost: CostReference) -> None:
        self.work += cost.work
        self.span += cost.span
        self.span_model += cost.span_model
