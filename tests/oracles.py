"""Independent test oracles (networkx-backed; tests only)."""

from __future__ import annotations

import numpy as np

from repro.graph import DiGraph


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
