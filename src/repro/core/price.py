"""Price functions for Goldberg's framework (§5).

A price function ``p : V → Z`` rewrites weights as
``w_p(u,v) = w(u,v) + p(u) − p(v)``; shortest paths are preserved and cycle
weights are invariant, so a *feasible* ``p`` (all ``w_p ≥ 0``) certifies the
absence of negative cycles and reduces SSSP to Dijkstra.  τ-improvements
(§5) are validated here against the three defining properties.
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import DiGraph, _aligned_weights, _as_int64
from ..graph.transform import reweight
from ..resilience.errors import InputValidationError
from ..runtime.primitives import unique_sorted


def negative_vertices(g: DiGraph, weights: np.ndarray | None = None
                      ) -> np.ndarray:
    """Vertices with an incoming negative edge (Goldberg's "improvable")."""
    w = _aligned_weights(g, weights)
    return unique_sorted(g.dst[w < 0])


def count_negative_vertices(g: DiGraph,
                            weights: np.ndarray | None = None) -> int:
    return len(negative_vertices(g, weights))


def is_valid_improvement(g: DiGraph, w_before: np.ndarray,
                         price_delta: np.ndarray,
                         tau: int | None = None) -> bool:
    """Check the τ-improvement properties (§5):

    1. *valid* — reduced weights stay integers ≥ −1,
    2. *monotonic* — no nonnegative edge turns negative,
    3. *progress* — at least ``tau`` negative vertices are eliminated
       (skipped if ``tau`` is None).
    """
    w_before = _aligned_weights(g, w_before)
    w_after = reweight(g.with_weights(w_before), price_delta)
    if g.m:
        if w_after.min() < -1:
            return False
        if ((w_before >= 0) & (w_after < 0)).any():
            return False
    if tau is not None:
        before = set(negative_vertices(g, w_before).tolist())
        after = set(negative_vertices(g, w_after).tolist())
        if not after <= before:
            return False
        if len(before) - len(after) < tau:
            return False
    return True


def lift_price_to_members(price_contracted: np.ndarray,
                          comp: np.ndarray) -> np.ndarray:
    """Extend a contracted-graph price to original vertices (Alg. 4 L12-14):
    every member of a component inherits its component's price."""
    price = _as_int64(price_contracted, "contracted price")
    comp = _as_int64(comp, "component ids")
    if len(comp) and (comp.min() < 0 or comp.max() >= len(price)):
        raise InputValidationError(
            "component ids must index the contracted price")
    return price[comp]
