"""Hub-sampling hopset ASSSP — a structurally faithful black-box stand-in.

Cao, Fineman & Russell's ASSSP black box [8] is built on *directed hopsets*.
This engine reproduces the structure that matters downstream with the
classic hub-sampling construction:

1. sample each vertex as a *hub* with probability ``Θ(log n / β)``
   (``β ≈ √n``), always including the source;
2. compute ``β``-hop-limited distances from every hub by ``β`` rounds of
   vectorised Bellman–Ford (these are the hopset edges);
3. run Dijkstra on the hub overlay from the source and combine:
   ``d(v) = min_h d_overlay(s, h) + d_β(h, v)``.

Whp every shortest path has a hub in each window of ``β`` consecutive
vertices, so the combination is *exact*; when sampling fails the output can
only be an **overestimate** (every candidate is a genuine path length) —
precisely the paper's black-box contract, with a genuinely randomised
failure mode rather than injected noise.

Span is ``O(β·log n + |H|-overlay Dijkstra)`` — the ``n^(1/2+o(1))`` shape
of the published bound.  Work is ``O(|H|·β·m)``, more than the paper's
``Õ(m)`` (achieving that needs their recursive hopset machinery); DESIGN.md
records this as a documented substitution, and the model ledger charges the
oracle bounds exactly like the other engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..graph.digraph import DiGraph, _aligned_weights
from ..resilience.errors import InputValidationError
from ..runtime import model
from ..runtime.metrics import CostAccumulator
from ..runtime.primitives import unique_sorted
from ..runtime.rng import make_rng
from .engines import _charge_oracle


@dataclass
class HopsetAssp:
    """Hub-sampling hopset engine (see module docstring).

    ``beta`` is the hop-limit (default ``⌈√n⌉``); ``oversample`` scales the
    hub-sampling rate — raise it to push the failure probability down, or
    set it below 1 to make sampling failures observable (useful for
    exercising the §4.2 verification path with *organic* failures).
    """

    beta: int | None = None
    oversample: float = 2.0
    seed: int = 0
    name: str = field(default="hopset", init=False)

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)

    def __call__(self, g: DiGraph, source: int, eps: float,
                 acc: CostAccumulator | None = None,
                 weights: np.ndarray | None = None) -> np.ndarray:
        w = _aligned_weights(g, weights)
        if g.m and w.min() < 0:
            raise InputValidationError(
                "hopset ASSSP requires nonnegative weights")
        local = CostAccumulator()
        dist = self._solve(g, source, w, local)
        _charge_oracle(g, acc, measured_span=local.span)
        return dist

    def _solve(self, g: DiGraph, source: int, w: np.ndarray,
               acc: CostAccumulator) -> np.ndarray:
        n = g.n
        beta = self.beta if self.beta is not None else \
            max(2, math.isqrt(max(n, 1)))
        rate = min(1.0, self.oversample * math.log(n + 2) / beta)
        hubs = np.flatnonzero(self._rng.random(n) < rate)
        if source not in hubs:
            hubs = unique_sorted(np.r_[hubs, source])
        acc.charge(*model.map_ws(n))

        # β-hop-limited distances from every hub (rows of `dlim`); each
        # hub's Bellman-Ford runs logically in parallel with the others
        dlim = np.full((len(hubs), n), np.inf)
        wf = w.astype(np.float64)
        branch_costs = []
        for row, h in enumerate(hubs.tolist()):
            branch = acc.fork()
            dlim[row] = _hop_limited_bf(g, h, wf, beta, branch)
            branch_costs.append(branch)
        acc.join_parallel(branch_costs,
                          fork_span=math.log2(len(hubs) + 2))

        # overlay Dijkstra from the source over hub-to-hub hopset edges
        src_row = int(np.searchsorted(hubs, source))
        overlay = dlim[:, hubs]  # |H| x |H| limited distances
        d_hub = _overlay_dijkstra(overlay, src_row)
        acc.charge(*model.dijkstra_ws(len(hubs), len(hubs) ** 2))

        # combine: best hub relay, plus the direct <=β-hop estimate from s
        acc.charge(*model.map_ws(len(hubs) * n, per_item_work=1.0))
        with np.errstate(invalid="ignore"):
            relay = (d_hub[:, None] + dlim).min(axis=0)
        out = np.minimum(relay, dlim[src_row])
        out[source] = 0.0
        return out


def _hop_limited_bf(g: DiGraph, source: int, wf: np.ndarray, hops: int,
                    acc: CostAccumulator) -> np.ndarray:
    """Exact distances over paths of at most ``hops`` edges."""
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    for _ in range(hops):
        acc.charge(*model.bfs_round_ws(g.m, g.n))
        cand = dist[g.src] + wf
        new = dist.copy()
        np.minimum.at(new, g.dst, cand)
        if np.array_equal(new, dist):
            break
        dist = new
    return dist


def _overlay_dijkstra(overlay: np.ndarray, src_row: int) -> np.ndarray:
    """Dense Dijkstra on the hub overlay matrix."""
    h = overlay.shape[0]
    d = np.full(h, np.inf)
    d[src_row] = 0.0
    done = np.zeros(h, dtype=bool)
    for _ in range(h):
        masked = np.where(done, np.inf, d)
        u = int(np.argmin(masked))
        if not np.isfinite(masked[u]):
            break
        done[u] = True
        with np.errstate(invalid="ignore"):
            cand = d[u] + overlay[u]
        np.minimum(d, cand, out=d)
    return d
