"""Johnson-style feasible potentials via Bellman–Ford.

Computes a feasible price function (all reduced weights nonnegative) or a
negative-cycle certificate by running Bellman–Ford from a virtual source
with 0-weight edges to every vertex.  This is the textbook ``O(nm)``
solution to the exact problem Goldberg's scaling solves in ``Õ(m√n log N)``
— the head-to-head in experiment E9 — and an independent oracle for the
price functions produced by :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.digraph import DiGraph, _aligned_weights
from ..runtime.metrics import Cost
from .bellman_ford import bellman_ford


@dataclass
class PotentialResult:
    price: np.ndarray | None          # feasible potential, or None
    negative_cycle: list[int] | None  # certificate when infeasible
    cost: Cost


def johnson_potential(g: DiGraph, weights: np.ndarray | None = None
                      ) -> PotentialResult:
    """Feasible potential for ``g`` or a negative cycle."""
    w = _aligned_weights(g, weights)
    # augmented graph: virtual source n with 0-weight edge to every vertex
    src = np.r_[g.src, np.full(g.n, g.n, dtype=np.int64)]
    dst = np.r_[g.dst, np.arange(g.n, dtype=np.int64)]
    ww = np.r_[w, np.zeros(g.n, dtype=np.int64)]
    aug = DiGraph(g.n + 1, src, dst, ww)
    res = bellman_ford(aug, g.n)
    if res.negative_cycle is not None:
        cyc = [v for v in res.negative_cycle if v != g.n]
        return PotentialResult(None, cyc, res.cost)
    price = res.dist[:g.n].astype(np.int64)
    return PotentialResult(price, None, res.cost)
