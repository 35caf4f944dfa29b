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
from ..runtime.primitives import stable_argsort
from .digraph import DiGraph, _aligned_weights, _per_vertex, _validated_weights
from .validate import _SCALED_PRODUCT_LIMIT


def reweight(g: DiGraph, price: np.ndarray) -> np.ndarray:
    """Reduced weights ``w_p`` aligned with ``g``'s edge ids.

    Johnson-style reweighting: around any cycle the price terms telescope,
    so cycle weights — in particular negative cycles — are invariant.
    """
    price = _per_vertex(g, price, "price function",
                        max_abs=_SCALED_PRODUCT_LIMIT)
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
    topology.  Fully vectorised: one stable argsort of the pair key
    ``csrc·nc + cdst`` groups parallel contracted edges in edge-id order
    and leaves the groups sorted by ``(src, dst)``; each group keeps its
    first minimum-weight edge, as ``lexsort((w, cdst, csrc))`` followed by
    "first of each group" would.  The contracted edges have no parallel
    pair, so one stable argsort of the heads is the reverse order.
    """
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
    orig_eids = cross.nonzero()[0]

    if len(csrc):
        pair = csrc * nc + cdst
        order = stable_argsort(pair, nc * nc)
        pair, wc = pair[order], wc[order]
        first = np.empty(len(pair), dtype=bool)
        first[0] = True
        np.not_equal(pair[1:], pair[:-1], out=first[1:])
        starts = first.nonzero()[0]
        wmin = np.minimum.reduceat(wc, starts)
        # the first sorted position of each group whose weight is its minimum
        group = np.add.accumulate(first, dtype=np.int64) - 1
        at_min = np.where(wc == wmin[group], np.arange(len(wc)), len(wc))
        pick = order[np.minimum.reduceat(at_min, starts)]
        csrc, cdst, wc = csrc[pick], cdst[pick], wmin
        orig_eids = orig_eids[pick]
    if weights is not None:
        wc = _validated_weights(wc)
    cg = DiGraph._from_sorted(nc, csrc, cdst, wc, stable_argsort(cdst, nc))
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
    w = _aligned_weights(g, weights)
    keep = w <= 0
    sub = edge_subgraph_mask(g, keep, None if weights is None else w)
    return sub, np.flatnonzero(keep)
