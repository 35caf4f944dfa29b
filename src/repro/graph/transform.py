"""Graph transformations: reweighting by price functions and condensation.

These implement the mechanical pieces of Goldberg's framework (§5): a price
function ``p`` induces reduced weights ``w_p(u,v) = w(u,v) + p(u) − p(v)``
(shortest paths are preserved), and strongly-connected components get
contracted into a condensation whose parallel edges collapse to their
minimum weight (the correct semantics for shortest paths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..resilience.errors import InputValidationError
from .digraph import DiGraph, _validated_weights


def reweight(g: DiGraph, price: np.ndarray) -> np.ndarray:
    """Reduced weights ``w_p`` aligned with ``g``'s edge ids.

    Johnson-style reweighting: around any cycle the price terms telescope,
    so cycle weights — in particular negative cycles — are invariant.
    """
    price = np.asarray(price, dtype=np.int64)
    if len(price) != g.n:
        raise ValueError("price function must have one entry per vertex")
    return g.w + price[g.src] - price[g.dst]


@dataclass(frozen=True)
class Condensation:
    """Result of contracting vertex groups of a graph.

    Attributes
    ----------
    graph : DiGraph
        The contracted graph.  Parallel edges between two components are
        collapsed to a single minimum-weight edge; intra-component edges are
        dropped.
    comp : np.ndarray
        Maps each original vertex to its component id.
    rep_eid : np.ndarray
        For each contracted edge id, one *original* edge id achieving the
        minimum weight — used to expand paths/cycles back to the original
        graph (Appendix A.2).
    """

    graph: DiGraph
    comp: np.ndarray
    rep_eid: np.ndarray

    @property
    def n_components(self) -> int:
        return self.graph.n


def condense(g: DiGraph, comp: np.ndarray,
             weights: np.ndarray | None = None) -> Condensation:
    """Contract each component of ``comp`` to a single vertex.

    ``weights`` overrides ``g.w`` (e.g. reduced weights) without copying the
    topology.  Fully vectorised: a lexsort groups parallel contracted edges
    so the first edge of each group is the minimum-weight representative,
    and leaves the contracted edges sorted by ``(src, dst)`` with no
    parallel pair, so one stable argsort of the heads is the reverse order.
    """
    comp = np.asarray(comp, dtype=np.int64)
    if len(comp) != g.n:
        raise ValueError("component labels must cover every vertex")
    w = g.w if weights is None else np.asarray(weights, dtype=np.int64)
    if len(w) != g.m:
        raise ValueError("weights must align with edge ids")
    nc = int(comp.max()) + 1 if g.n else 0
    if g.n and comp.min() < 0:
        raise ValueError("component ids must be nonnegative")

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


def edge_subgraph_mask(g: DiGraph, mask: np.ndarray,
                       weights: np.ndarray | None = None) -> DiGraph:
    """Subgraph keeping only the edges selected by boolean ``mask`` (same
    vertex set).  ``weights`` overrides ``g.w``, aligned with ``g``'s edge
    ids like ``mask``; the kept edges keep ``g``'s relative order."""
    mask = np.asarray(mask, dtype=bool)
    if len(mask) != g.m:
        raise InputValidationError("mask must align with edge ids")
    if weights is None:
        w = g.w[mask]
    else:
        weights = np.asarray(weights)
        if len(weights) != g.m:
            raise InputValidationError("weights must align with edge ids")
        w = _validated_weights(weights[mask])
    return DiGraph._from_sorted(g.n, g.src[mask], g.dst[mask], w,
                                g._kept_reids(mask))


def leq_zero_subgraph(g: DiGraph, weights: np.ndarray | None = None
                      ) -> tuple[DiGraph, np.ndarray]:
    """``G≤0``: the subgraph of edges with weight ≤ 0 (§5).

    Returns the subgraph and the original edge ids of its edges (aligned
    with the subgraph's edge ids).
    """
    w = g.w if weights is None else np.asarray(weights, dtype=np.int64)
    keep = w <= 0
    sub = edge_subgraph_mask(g, keep, None if weights is None else w)
    return sub, np.flatnonzero(keep)
