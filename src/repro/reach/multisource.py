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

Most rounds are tiny: the median frontier of a small-batch solve has 2
vertices with 2 out-edges, and of a hidden-potential solve 4 vertices
with 3, while one numpy round makes 20-odd numpy calls whatever its
size.  So each round of :func:`multisource_reachability` and
:func:`multisource_reachability_min` runs as a scalar loop over
zero-copy ``memoryview``s of the CSR and the labels when the frontier's
vertex count plus its out-edge slot count is at most
:data:`SCALAR_ROUND_MAX`, and as the numpy round otherwise.  The two
forms visit the same edges in the same order and return the same labels,
slot count and next frontier, so ``pi``, ``rounds``, the charges and the
spans do not depend on the choice.  Both stay: SCC rounds on a large
strongly connected component reach frontiers of thousands of vertices,
where the numpy round is many times faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import out_edge_slots
from ..graph.digraph import DiGraph, _as_int64
from ..observability.metrics import metric_inc
from ..observability.tracer import trace_span
from ..resilience.errors import InputValidationError
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.primitives import unique_sorted

NO_SOURCE = -1
_UNLABELED = np.iinfo(np.int64).max

#: A round runs as a scalar loop when its frontier's vertex count plus
#: its out-edge slot count is at most this, and as a numpy round
#: otherwise.  The measured break-even: the 17,444 rounds of 30
#: small-batch, 6 hidden-potential and 2 planted-cycle solves, replayed
#: in both forms (2-core x86 Xeon VM, Python 3.11, numpy 2.4), took
#: 0.30x the numpy round's time in the scalar form at sizes up to 8,
#: 0.92x at 41-48 and 1.23x at 49-64; all rounds together took 223 ms
#: in numpy form, 103 ms with this constant and 105 ms with 64.
SCALAR_ROUND_MAX = 48


@dataclass
class ReachResult:
    """``pi[v]`` = a source that reaches ``v`` (−1 if none); plus metering."""

    pi: np.ndarray
    rounds: int
    cost: Cost


def multisource_reachability(g: DiGraph, sources: np.ndarray,
                             acc: CostAccumulator | None = None, *,
                             within: np.ndarray | None = None
                             ) -> ReachResult:
    """One reaching source per vertex, by frontier-parallel BFS.

    ``sources`` may be empty (everything gets −1); a source that is not
    a vertex id (NaN, ±inf, fractional or out of range) raises
    :class:`InputValidationError` (a ``ValueError``).  When several
    sources reach a vertex first in the same round, the one forwarded
    along its last in-edge in slot order wins (last write wins, as in a
    numpy fancy assignment).  The contract allows any one ("just one
    source ... not all"); this deterministic choice is the tested one.

    ``within`` (boolean, aligned with ``g``'s vertex ids) restricts the
    search to the vertices it selects, which must hold every source.
    The call then returns ``pi`` in ``g``'s ids (−1 outside ``within``)
    and charges and traces exactly what the same call on
    ``g.induced_subgraph(within.nonzero()[0])`` would: each round visits
    the same edges in the same order, and the span and the model see
    ``n`` = the selected vertex count and ``m`` = the edges inside it.
    """
    sources = _source_ids(sources, g.n)
    if within is None:
        n, m = g.n, g.m
    else:
        within = np.asarray(within, dtype=bool)
        if within.shape != (g.n,):
            raise InputValidationError(
                "within mask must align with vertex ids")
        if not within[sources].all():
            raise InputValidationError("sources must lie within the mask")
        n = int(np.count_nonzero(within))
        m = int(np.count_nonzero(within[g.src] & within[g.dst]))
    local = CostAccumulator()
    # the span binds to the *caller's* accumulator and closes after the
    # fold below, so its span_model delta is the substituted black-box
    # bound (oracle_span), not the measured BFS rounds
    with trace_span("reach", acc=acc if acc is not None else local,
                    phase="reach", n=n, m=m,
                    sources=len(sources)) as rsp:
        pi = np.full(g.n, NO_SOURCE, dtype=np.int64)
        pi[sources] = sources
        indptr, indices, pv = g.indptr.data, g.indices.data, pi.data
        wv = None if within is None else within.data
        frontier: np.ndarray | list[int] = sources
        rounds = 0
        while len(frontier):
            rounds += 1
            small = _small_frontier(indptr, frontier)
            if small is None:
                k, frontier = _round(g, pi, within, frontier)
            else:
                k, frontier = _round_scalar(indptr, indices, pv, wv, small)
            w, s = model.bfs_round_ws(k, n)
            local.charge(w, s)
            if k == 0:
                break
            w, s = model.pack_ws(k)
            local.charge(w, s)
        span_model = model.oracle_span(n)
        if acc is not None:
            acc.charge(local.work, span=local.span, span_model=span_model)
        rsp.count("rounds", rounds)
        metric_inc("repro_reach_calls_total")
        metric_inc("repro_reach_rounds_total", rounds)
    return ReachResult(pi, rounds, Cost(local.work, local.span, span_model))


def multisource_reachability_min(g: DiGraph, sources: np.ndarray,
                                 acc: CostAccumulator | None = None, *,
                                 edge_mask: np.ndarray | None = None
                                 ) -> ReachResult:
    """Deterministic variant: ``pi[v]`` is the *minimum* source reaching
    ``v`` (−1 if none).

    Label-correcting frontier propagation: a vertex re-enters the frontier
    whenever its label decreases.  The batched SCC algorithm needs this
    determinism so that all members of one SCC receive identical
    forward/backward winners.  Sources are checked and costs metered
    like the plain variant's (measured rounds + the black-box model
    span).

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
    return _min_search(g, _source_ids(sources, g.n), acc, edge_mask, m)


def _min_search(g: DiGraph, sources: np.ndarray,
                acc: CostAccumulator | None,
                edge_mask: np.ndarray | None, m: int) -> ReachResult:
    """The search of :func:`multisource_reachability_min` on checked
    arguments: ``sources`` sorted, distinct int64 vertex ids;
    ``edge_mask`` ``None`` or a boolean array aligned with ``g``'s edge
    ids; ``m`` the edge count it selects (``g.m`` without one).  ``scc``
    calls it directly, as its centers and masks are built checked."""
    local = CostAccumulator()
    with trace_span("reach", acc=acc if acc is not None else local,
                    phase="reach", n=g.n, m=m, sources=len(sources),
                    variant="min") as rsp:
        label = np.empty(g.n, dtype=np.int64)
        label.fill(_UNLABELED)
        label[sources] = sources
        indptr, indices, lv = g.indptr.data, g.indices.data, label.data
        mv = None if edge_mask is None else edge_mask.data
        frontier: np.ndarray | list[int] = sources
        rounds = 0
        while len(frontier):
            rounds += 1
            small = _small_frontier(indptr, frontier)
            if small is None:
                k, frontier = _min_round(g, label, edge_mask, frontier)
            else:
                k, frontier = _min_round_scalar(indptr, indices, lv, mv,
                                                small)
            w, s = model.bfs_round_ws(k, g.n)
            local.charge(w, s)
            if k == 0:
                break
            w, s = model.pack_ws(k)
            local.charge(w, s)
        pi = label
        pi[pi == _UNLABELED] = NO_SOURCE
        span_model = model.oracle_span(g.n)
        if acc is not None:
            acc.charge(local.work, span=local.span, span_model=span_model)
        rsp.count("rounds", rounds)
        metric_inc("repro_reach_calls_total")
        metric_inc("repro_reach_rounds_total", rounds)
    return ReachResult(pi, rounds, Cost(local.work, local.span, span_model))


def _source_ids(sources, n: int) -> np.ndarray:
    """``sources`` cast like the public constructor's arrays, sorted and
    deduplicated; :class:`InputValidationError` for NaN, ±inf, fractional
    values and ids outside ``0 .. n-1``."""
    ids = unique_sorted(_as_int64(sources, "sources"))
    if len(ids) and (ids[0] < 0 or ids[-1] >= n):
        raise InputValidationError("source out of range")
    return ids


def _small_frontier(indptr: memoryview, frontier: np.ndarray | list[int]
                    ) -> list[int] | None:
    """``frontier`` as a list when its vertex count plus its out-edge slot
    count is at most :data:`SCALAR_ROUND_MAX`, else ``None``."""
    if len(frontier) > SCALAR_ROUND_MAX:
        return None
    small = frontier if isinstance(frontier, list) else frontier.tolist()
    size = len(small)
    for u in small:
        size += indptr[u + 1] - indptr[u]
    return small if size <= SCALAR_ROUND_MAX else None


# One BFS round each, in a numpy form and a scalar form that return the
# same thing: the number ``k`` of edge slots visited, which the caller
# charges as ``bfs_round(k, n)`` and then ``pack(k)``, and the next
# frontier, sorted and deduplicated.  The scalar forms read and write the
# CSR, ``pi``/``label`` and the masks through zero-copy memoryviews.


def _round(g: DiGraph, pi: np.ndarray, within: np.ndarray | None,
           frontier: np.ndarray | list[int]) -> tuple[int, np.ndarray]:
    slots = out_edge_slots(g, frontier)
    targets = g.indices[slots]
    if within is not None:
        inside = within[targets]
        slots, targets = slots[inside], targets[inside]
    undiscovered = pi[targets] == NO_SOURCE
    newly = targets[undiscovered]
    # forward the reaching source along the edge (last write wins)
    pi[newly] = pi[g.src[slots][undiscovered]]
    return len(slots), unique_sorted(newly)


def _round_scalar(indptr: memoryview, indices: memoryview, pv: memoryview,
                  wv: memoryview | None, frontier: list[int]
                  ) -> tuple[int, list[int]]:
    # pv is written after the loops, so ``pv[t] == NO_SOURCE`` tests
    # "undiscovered at round start", and a later slot overwrites an
    # earlier one in ``found`` (last write wins)
    k = 0
    found: dict[int, int] = {}
    for u in frontier:
        s = pv[u]
        lo, hi = indptr[u], indptr[u + 1]
        if wv is None:
            k += hi - lo
            for t in indices[lo:hi]:
                if pv[t] == NO_SOURCE:
                    found[t] = s
        else:
            for t in indices[lo:hi]:
                if wv[t]:
                    k += 1
                    if pv[t] == NO_SOURCE:
                        found[t] = s
    for t, s in found.items():
        pv[t] = s
    return k, sorted(found)


def _min_round(g: DiGraph, label: np.ndarray, edge_mask: np.ndarray | None,
               frontier: np.ndarray | list[int]) -> tuple[int, np.ndarray]:
    slots = out_edge_slots(g, frontier)
    if edge_mask is not None:
        slots = slots[edge_mask[slots]]
    targets = g.indices[slots]
    cand = label[g.src[slots]]
    old = label[targets]
    np.minimum.at(label, targets, cand)
    improved = label[targets] < old
    return len(slots), unique_sorted(targets[improved])


def _min_round_scalar(indptr: memoryview, indices: memoryview,
                      lv: memoryview, mv: memoryview | None,
                      frontier: list[int]) -> tuple[int, list[int]]:
    k = 0
    improved: set[int] = set()
    # candidate labels are read at round start, as np.minimum.at reads them
    for u, c in zip(frontier, [lv[u] for u in frontier]):
        lo, hi = indptr[u], indptr[u + 1]
        if mv is None:
            k += hi - lo
            for t in indices[lo:hi]:
                if c < lv[t]:
                    lv[t] = c
                    improved.add(t)
        else:
            for slot in range(lo, hi):
                if mv[slot]:
                    k += 1
                    t = indices[slot]
                    if c < lv[t]:
                        lv[t] = c
                        improved.add(t)
    return k, sorted(improved)


def reachable_mask(g: DiGraph, sources: np.ndarray,
                   acc: CostAccumulator | None = None) -> np.ndarray:
    """Boolean mask of vertices reachable from any source."""
    return multisource_reachability(g, sources, acc).pi != NO_SOURCE


def bfs_parents(g: DiGraph, source: int,
                acc: CostAccumulator | None = None) -> np.ndarray:
    """Parent array of a BFS tree from ``source`` (−1 off-tree).

    Used by the negative-cycle reporting path (Appendix A.2), which only
    needs *some* path, so BFS parents suffice.  A ``source`` that is not
    a vertex id raises :class:`InputValidationError`.
    """
    (source,) = _source_ids([source], g.n).tolist()
    local = CostAccumulator()
    parent = np.full(g.n, -1, dtype=np.int64)
    seen = np.zeros(g.n, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    while len(frontier):
        slots = out_edge_slots(g, frontier)
        local.charge(*model.bfs_round_ws(len(slots), g.n))
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
