"""Fischer et al.'s simple near-linear-work parallel SSSP (arXiv 2410.20959).

The direct successor to the source paper replaces Goldberg's scaling
machinery with a strikingly simple interleave — the Bellman–Ford/
Dijkstra (BFD) hybrid:

    repeat:
        Dijkstra over the nonnegative edges (from the current labels)
        one parallel relaxation of the negative edges

Starting from the all-zero virtual-source labelling, round ``k`` makes
every label exact for walks using at most ``k`` negative edges; when a
negative-edge relaxation finds nothing to improve, the labels are a
feasible potential (the Dijkstra pass closed the nonnegative edges, the
relaxation just verified the negative ones).  A shortest simple walk
uses at most ``min(#negative edges, n−1)`` negative ones, so a run
still improving past that cap certifies a negative cycle — extracted
here by the independent Bellman–Ford machinery.

What this reproduction keeps from the paper: the BFD core, its
round-count argument, and the parallel structure (the negative-edge
relaxation is a pure per-block map executed on whichever
:mod:`repro.runtime.backends` substrate the caller supplies — serial,
thread pool, or the fault-tolerant process pool).  What it simplifies:
the paper's randomized hop-reduction preprocessing (which bounds the
number of negative edges per shortest path to keep the round count
polylogarithmic) is not implemented, so the worst-case round count is
the plain BFD bound.  The algorithm itself is deterministic — ``seed``
is accepted for engine-interface uniformity and ignored.

Model costs (one ``dijkstra(n, m⁺)`` per round plus a ``map(m⁻)`` per
relaxation) are charged identically on every backend and pool size.
"""

from __future__ import annotations

import numpy as np

from ..baselines.dijkstra import dijkstra_from_labels
from ..baselines.johnson import johnson_potential
from ..graph.digraph import DiGraph
from ..graph.transform import edge_subgraph_mask
from ..observability.metrics import metric_inc
from ..observability.profiler import profile_scope
from ..observability.tracer import trace_span
from ..observability.worker import worker_span
from ..resilience.guard import Meter, current_guard
from ..resilience.preempt import check_cancelled
from ..runtime import model
from ..runtime.metrics import CostAccumulator
from ..runtime.racecheck import race_read

__all__ = ["fischer_potential"]


def _neg_candidates_block(lo: int, hi: int, nsrc: np.ndarray,
                          nw: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One block of negative-edge relaxation candidates ``d[src] + w`` —
    a pure function of ``(lo, hi)``, so any backend may execute or
    re-execute it and the concatenation is bit-identical to the
    whole-array expression."""
    # shared-memory contract, checked by `repro check --race`: blocks
    # read the whole label vector, slice-read the edge arrays, write
    # nothing shared (each returns a fresh candidate array)
    race_read(d, site="fischer.neg:d")
    race_read(nsrc, lo, hi, site="fischer.neg:src")
    race_read(nw, lo, hi, site="fischer.neg:w")
    # worker_span: shipped from process workers, no-op everywhere else
    with worker_span("block-neg-candidates", lo=lo, hi=hi) as wsp:
        wsp.count("edges", hi - lo)
        return d[nsrc[lo:hi]] + nw[lo:hi]


def fischer_potential(g: DiGraph, *, seed=0,
                      acc: CostAccumulator | None = None, backend=None
                      ) -> tuple[np.ndarray | None, list[int] | None]:
    """Feasible potential for ``g`` (or a negative-cycle vertex list)
    via the Bellman–Ford/Dijkstra hybrid.

    Returns ``(price, None)`` with every reduced weight nonnegative, or
    ``(None, cycle)``.  ``backend`` executes the negative-edge candidate
    map; it changes physical execution only, never the answer or the
    charged model cost.
    """
    del seed  # deterministic; accepted for engine-interface uniformity
    local = CostAccumulator()
    meter = Meter(current_guard(), local)
    try:
        local.charge(*model.map_ws(max(g.n, 1)))
        if g.m == 0 or int(g.w.min()) >= 0:
            return np.zeros(g.n, dtype=np.int64), None
        pos_keep = g.w >= 0
        local.charge(*model.pack_ws(g.m))
        gpos = edge_subgraph_mask(g, pos_keep)
        neg = np.flatnonzero(~pos_keep)
        nsrc, ndst, nw = g.src[neg], g.dst[neg], g.w[neg]
        d = np.zeros(g.n, dtype=np.int64)
        cap = min(len(neg), max(g.n - 1, 1)) + 1
        with trace_span("fischer-bfd", acc=local, phase="fischer",
                        n=g.n, m=g.m, neg_edges=len(neg)) as sp, \
                profile_scope("fischer-bfd"):
            for rounds in range(1, cap + 1):  # repro: noqa[RS001] each BFD round charges its dijkstra + map cost inside
                check_cancelled("fischer:bfd-round")
                meter.tick()
                d = dijkstra_from_labels(gpos, d, local)
                if backend is not None and len(neg):
                    parts = backend.map_blocks(
                        len(neg), _neg_candidates_block, (nsrc, nw, d))
                    cand = np.concatenate(parts)
                else:
                    cand = d[nsrc] + nw
                local.charge(*model.map_ws(len(neg)))
                if not (cand < d[ndst]).any():
                    sp.count("bfd_rounds", rounds)
                    metric_inc("repro_bfd_rounds_total", outcome="converged")
                    return d, None
                np.minimum.at(d, ndst, cand)
            sp.set(negative_cycle=True)
            metric_inc("repro_bfd_rounds_total", outcome="cycle")
        # improving past the cap proves a negative cycle; produce the
        # certificate with the independent exact extractor
        pot = johnson_potential(g)
        local.charge_cost(pot.cost)
        if pot.negative_cycle is not None:
            return None, pot.negative_cycle
        # cap was conservative; accept the exact potential
        return pot.price, None  # pragma: no cover
    finally:
        if acc is not None:
            acc.charge_cost(local.snapshot())
