"""Multisource reachability — the paper's first black box (§2).

Problem: given sources ``S``, output ``π(v) ∈ S ∩ Anc(v)`` for every vertex
reachable from some source, else ``π(v) = ⊥``.  The paper uses Jambulapati,
Liu & Sidford's shortcutting algorithm (``Õ(m)`` work, ``n^(1/2+o(1))``
span) as a black box and notes any parallel-BFS-based algorithm extends to
the multisource variant by forwarding a source id along discovered edges.

We substitute a vectorised frontier-parallel BFS (identical output contract)
and keep two span ledgers: the *measured* span is one ``O(log n)`` term per
BFS round actually executed; the *model* span charges the black box's
published ``n^(1/2+o(1))`` bound per call, which is what the paper's
theorems compose (DESIGN.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import out_edge_slots
from ..graph.digraph import DiGraph
from ..observability.metrics import metric_inc
from ..observability.tracer import trace_span
from ..resilience.errors import InputValidationError
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.model import CostModel, DEFAULT_MODEL
from ..runtime.primitives import unique_sorted

NO_SOURCE = -1
_UNLABELED = np.iinfo(np.int64).max


@dataclass
class ReachResult:
    """``pi[v]`` = a source that reaches ``v`` (−1 if none); plus metering."""

    pi: np.ndarray
    rounds: int
    cost: Cost


def multisource_reachability(g: DiGraph, sources: np.ndarray,
                             acc: CostAccumulator | None = None,
                             model: CostModel = DEFAULT_MODEL) -> ReachResult:
    """One reaching source per vertex, by frontier-parallel BFS.

    ``sources`` may be empty (everything gets −1).  Ties are broken
    arbitrarily, as the contract allows ("just one source ... not all").
    """
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


def multisource_reachability_min(g: DiGraph, sources: np.ndarray,
                                 acc: CostAccumulator | None = None,
                                 model: CostModel = DEFAULT_MODEL, *,
                                 edge_mask: np.ndarray | None = None
                                 ) -> ReachResult:
    """Deterministic variant: ``pi[v]`` is the *minimum* source reaching
    ``v`` (−1 if none).

    Label-correcting frontier propagation: a vertex re-enters the frontier
    whenever its label decreases.  The batched SCC algorithm needs this
    determinism so that all members of one SCC receive identical
    forward/backward winners.  Costs are metered like the plain variant
    (measured rounds + the black-box model span).

    ``edge_mask`` (boolean, aligned with ``g``'s edge ids) restricts the
    search to the selected edges.  The call then returns, charges and
    traces exactly what the same call on ``edge_subgraph_mask(g,
    edge_mask)`` would: that subgraph keeps the selected edges in ``g``'s
    order, so each round visits the same edges in the same order, and
    the span records the kept edge count as ``m``.
    """
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


def reachable_mask(g: DiGraph, sources: np.ndarray,
                   acc: CostAccumulator | None = None,
                   model: CostModel = DEFAULT_MODEL) -> np.ndarray:
    """Boolean mask of vertices reachable from any source."""
    return multisource_reachability(g, sources, acc, model).pi != NO_SOURCE


def bfs_parents(g: DiGraph, source: int,
                acc: CostAccumulator | None = None,
                model: CostModel = DEFAULT_MODEL) -> np.ndarray:
    """Parent array of a BFS tree from ``source`` (−1 off-tree).

    Used by the negative-cycle reporting path (Appendix A.2), which only
    needs *some* path, so BFS parents suffice.
    """
    if not (0 <= source < g.n):
        raise ValueError("source out of range")
    local = CostAccumulator()
    parent = np.full(g.n, -1, dtype=np.int64)
    seen = np.zeros(g.n, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    while len(frontier):
        slots = out_edge_slots(g, frontier)
        local.charge_cost(model.bfs_round(len(slots), g.n))
        if len(slots) == 0:
            break
        targets = g.indices[slots]
        undiscovered = ~seen[targets]
        newly = targets[undiscovered]
        parent[newly] = g.src[slots][undiscovered]
        seen[newly] = True
        frontier = unique_sorted(newly)
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return parent


def path_from_parents(parent: np.ndarray, source: int, target: int
                      ) -> list[int] | None:
    """Reconstruct the tree path ``source -> target``; None if unreachable."""
    if target == source:
        return [source]
    if parent[target] < 0:
        return None
    path = [int(target)]
    v = int(target)
    for _ in range(len(parent)):
        v = int(parent[v])
        path.append(v)
        if v == source:
            path.reverse()
            return path
        if v < 0:
            return None
    return None
