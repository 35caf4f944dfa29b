"""Negative-cycle extraction (Appendix A.2).

Two detection sites exist in the √k-improvement (§6): a negative edge inside
a strongly connected component of ``G≤0`` (Step 1), and a chain vertex left
unimproved after the chain reweighting (Step 3 / Lemma 19).  Both yield a
cycle over *contracted* vertices which is expanded through the contracted
components via 0-weight BFS — components of the ≤0 condensation are
internally strongly connected by 0-weight edges, so the splices preserve the
cycle's (negative) weight.

Every extractor validates its output against the true weights before
returning; :func:`fallback_cycle` (Bellman–Ford from a virtual source) is a
provably-correct safety net so the library's certificate contract can never
be violated by an extraction corner case.
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import DiGraph
from ..graph.transform import Condensation, edge_subgraph_mask
from ..graph.validate import validate_negative_cycle
from ..reach.multisource import bfs_parents, path_from_parents


class CycleExtractionError(RuntimeError):
    """No negative cycle could be produced despite a positive detection."""


def fallback_cycle(g: DiGraph, weights: np.ndarray | None = None
                   ) -> list[int]:
    """Any negative cycle in ``g``, via Bellman–Ford from a virtual source.

    Raises :class:`CycleExtractionError` if the graph has none (i.e. the
    caller's detection was wrong).
    """
    from ..baselines.johnson import johnson_potential

    res = johnson_potential(g, weights)
    if res.negative_cycle is None:
        raise CycleExtractionError("no negative cycle exists")
    return res.negative_cycle


def cycle_from_scc_negative_edge(g: DiGraph, w_red: np.ndarray,
                                 comp: np.ndarray, edge_id: int
                                 ) -> list[int]:
    """Step-1 extraction: edge ``(a, b)`` is negative and intra-component
    in the ≤0 subgraph, so some ``b → a`` path of ≤0 edges closes a
    negative cycle.  Vertices here are *original* vertices (``comp`` labels
    the ≤0-SCCs of the original graph)."""
    a, b = int(g.src[edge_id]), int(g.dst[edge_id])
    members = np.flatnonzero(comp == comp[a])
    keep = (w_red <= 0) & (comp[g.src] == comp[a]) & (comp[g.dst] == comp[a])
    sub = edge_subgraph_mask(g, keep, weights=np.zeros(g.m, dtype=np.int64))
    parent = bfs_parents(sub, b)
    path = path_from_parents(parent, b, a)
    if path is None:
        raise CycleExtractionError(
            f"no {b}->{a} path inside the strongly connected component")
    cycle = path  # [b, ..., a]; wraps via the negative edge a->b
    if not validate_negative_cycle(g, cycle, w_red):
        raise CycleExtractionError("Step-1 cycle failed validation")
    return cycle


def expand_contracted_cycle(g: DiGraph, w_red: np.ndarray,
                            cond: Condensation,
                            ccycle: list[int]) -> list[int]:
    """Expand a cycle over condensation vertices to original vertices.

    For each hop ``c1 → c2`` take the minimum-weight representative original
    edge (``cond.rep_eid``); inside each component, splice a 0-weight path
    from the incoming edge's head to the outgoing edge's tail (components of
    the ≤0 condensation are strongly connected through 0-weight edges).
    """
    if len(ccycle) == 0:
        raise CycleExtractionError("empty contracted cycle")
    cg = cond.graph
    hop_edges: list[int] = []
    for idx, c1 in enumerate(ccycle):
        c2 = ccycle[(idx + 1) % len(ccycle)]
        eids = cg.edge_ids_between(int(c1), int(c2))
        if len(eids) == 0:
            raise CycleExtractionError(
                f"contracted hop {c1}->{c2} has no edge")
        best = eids[int(np.argmin(cg.w[eids]))]
        hop_edges.append(int(cond.rep_eid[best]))
    out: list[int] = []
    k = len(ccycle)
    zero_intra = (w_red == 0) & (cond.comp[g.src] == cond.comp[g.dst])
    zsub = edge_subgraph_mask(g, zero_intra, weights=w_red)
    for idx in range(k):
        e_in = hop_edges[idx - 1]        # edge entering component ccycle[idx]
        e_out = hop_edges[idx]           # edge leaving it
        entry = int(g.dst[e_in])
        exit_ = int(g.src[e_out])
        if entry == exit_:
            out.append(entry)
            continue
        parent = bfs_parents(zsub, entry)
        path = path_from_parents(parent, entry, exit_)
        if path is None:
            raise CycleExtractionError(
                f"no 0-weight path {entry}->{exit_} inside component")
        out.extend(path)
    if not validate_negative_cycle(g, out, w_red):
        raise CycleExtractionError("expanded cycle failed validation")
    return out


def chain_failure_contracted_cycle(cg: DiGraph, w_red_cg: np.ndarray,
                                   chain: list[tuple[int, int]],
                                   d_hat: np.ndarray,
                                   parent_hat: np.ndarray,
                                   s_hat: int,
                                   zero_level_graph: DiGraph,
                                   level_of: np.ndarray) -> list[int]:
    """Step-3 extraction (Lemma 19 / A.2): the chain reweighting left some
    ``v_i`` unimproved, certifying a negative cycle in the contracted graph.

    Parameters mirror the chain-elimination context: ``d_hat``/``parent_hat``
    are the Ĝ shortest-path results (``s_hat`` the supersource id),
    ``zero_level_graph`` contains the 0-weight ≤0-graph edges within levels,
    and ``level_of[v]`` is ``−dist_H(v)`` from Step 2 (−1 if beyond).
    """
    L = len(chain)
    p_prime = d_hat[:cg.n] - L
    chain_index = {v: i + 1 for i, (_, v) in enumerate(chain)}

    # locate x: a chain vertex with a too-short Ĝ distance, else the tail of
    # an unimproved negative edge into some v_i
    x = None
    v_i = None
    for i, (_, v) in enumerate(chain, start=1):
        if d_hat[v] < L - i:
            x, v_i = v, v
            break
    if x is None:
        for i, (_, v) in enumerate(chain, start=1):
            eids = np.flatnonzero((cg.dst == v) & (w_red_cg == -1))
            for e in eids:
                u = int(cg.src[e])
                if w_red_cg[e] + p_prime[u] - p_prime[v] < 0:
                    x, v_i = u, v
                    break
            if x is not None:
                break
    if x is None:
        raise CycleExtractionError("no unimproved chain vertex found")

    # tree path ŝ -> x: first hop must be a chain vertex v_j
    path = path_from_parents(parent_hat_as_tree(parent_hat), s_hat, int(x))
    if path is None or len(path) < 2:
        raise CycleExtractionError("no Ĝ tree path to the witness vertex")
    v_j = int(path[1])
    j = chain_index.get(v_j)
    if j is None:
        raise CycleExtractionError("Ĝ path does not start at a chain vertex")
    tree_part = path[1:]                 # v_j ... x
    cyc = list(tree_part)
    if x != v_i:
        cyc.append(int(v_i))             # the unimproved edge (x, v_i)
    # chain part: v_i -> u_{i+1} -> v_{i+1} -> ... -> v_j via level paths
    i = chain_index[int(v_i)]
    if j < i:
        raise CycleExtractionError("witness ordering violated (j < i)")
    cur = int(v_i)
    for t in range(i, j):
        u_next, v_next = chain[t]        # edge (u_{t+1}, v_{t+1})
        seg = _level_path(zero_level_graph, level_of, cur, int(u_next))
        cyc.extend(seg[1:])              # cur ... u_next
        cyc.append(int(v_next))
        cur = int(v_next)
    # cyc currently ends at v_j == its first vertex; drop the duplicate
    if cyc[-1] == cyc[0]:
        cyc.pop()
    return cyc


def parent_hat_as_tree(parent_hat: np.ndarray) -> np.ndarray:
    """The Ĝ parent array is already a tree; alias for readability."""
    return parent_hat


def _level_path(zero_level_graph: DiGraph, level_of: np.ndarray,
                a: int, b: int) -> list[int]:
    """0-weight path ``a -> b`` within one level set (A.2)."""
    if a == b:
        return [a]
    if level_of[a] != level_of[b]:
        raise CycleExtractionError("level path endpoints in different levels")
    parent = bfs_parents(zero_level_graph, a)
    path = path_from_parents(parent, a, b)
    if path is None:
        raise CycleExtractionError(f"no 0-weight level path {a}->{b}")
    return path
