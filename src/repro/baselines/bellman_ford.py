"""Bellman–Ford: the classic O(nm) baseline (paper §1).

Vectorised Jacobi-style rounds (`numpy.minimum.at` over all edges at once)
— exactly the "trivially parallel" version the paper credits with work
``O(mn)`` and span ``O(n log n)``; the cost accumulator charges that model.
Also provides negative-cycle extraction, used as the library's independent
cycle oracle.

:func:`bellman_ford_parallel` runs the same rounds with the relaxation map
(``cand = dist[src] + w`` over all edges) on an execution backend's
``map_blocks``.  Its block function is a pure function of ``(lo, hi)``,
so the same code runs on the serial, thread, or fault-tolerant process
backend (:mod:`repro.runtime.backends`): a process worker dying mid-round
re-executes only its block, and the answer is bit-identical to
:func:`bellman_ford`'s.  Under CPython's GIL the thread backend speeds up
only when numpy releases the GIL, and the process backend pays pickling
per dispatch; both exist to demonstrate and test the fork-join structure
and its fault tolerance, not to win benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..graph.digraph import DiGraph, _aligned_weights
from ..graph.validate import check_source
from ..resilience.errors import VerificationError
from ..runtime import model
from ..runtime.backends import resolve_backend
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.primitives import unique_sorted
from ..runtime.racecheck import race_read


@dataclass
class BellmanFordResult:
    """Distances, predecessor tree, and negative-cycle certificate.

    ``dist`` is float64: ``+inf`` for unreachable vertices.  When
    ``negative_cycle`` is not None the distances are not meaningful for
    vertices that can reach/are reached through the cycle.
    """

    dist: np.ndarray
    parent: np.ndarray
    negative_cycle: list[int] | None
    rounds: int
    cost: Cost

    @property
    def has_negative_cycle(self) -> bool:
        return self.negative_cycle is not None


def bellman_ford(g: DiGraph, source: int, weights: np.ndarray | None = None
                 ) -> BellmanFordResult:
    """Single-source shortest paths tolerating negative integer weights.

    Runs at most ``n`` relaxation rounds with early exit; a relaxation in
    round ``n`` certifies a negative cycle *reachable from the source*,
    which is then extracted by walking predecessor pointers.  ``weights``
    (default ``g.w``) must be integral and aligned with the edge ids.
    """
    source = check_source(g, source)
    w = _aligned_weights(g, weights).astype(np.float64)
    return _bellman_ford(g, source, w)


def bellman_ford_parallel(g: DiGraph, source: int, backend=None,
                          weights: np.ndarray | None = None,
                          grain: int = 4096) -> BellmanFordResult:
    """:func:`bellman_ford`, relaxing edges through ``backend.map_blocks``
    (any :class:`~repro.runtime.backends.ExecutionBackend`, including a
    :class:`~repro.runtime.backends.DegradationLadder`, or a backend name,
    whose ladder lives for this call).  ``backend=None`` relaxes in
    process; anything without ``map_blocks`` and ``shutdown`` raises
    :class:`~repro.resilience.errors.InputValidationError` before any
    work."""
    source = check_source(g, source)
    if isinstance(backend, str):
        with resolve_backend(backend) as be:
            return bellman_ford_parallel(g, source, be, weights, grain)
    backend = resolve_backend(backend)
    w = _aligned_weights(g, weights).astype(np.float64)
    if backend is None:
        return _bellman_ford(g, source, w)

    def relax(dist: np.ndarray) -> np.ndarray:
        return np.concatenate(backend.map_blocks(
            g.m, _relax_block, (g.src, w, dist), grain=grain))

    return _bellman_ford(g, source, w, relax)


def _relax_block(lo: int, hi: int, src: np.ndarray, w: np.ndarray,
                 dist: np.ndarray) -> np.ndarray:
    """One relaxation block: pure function of ``(lo, hi)`` and the
    (read-only) arrays — the ``map_blocks`` contract that makes process
    re-dispatch idempotent."""
    race_read(dist, site="bf.relax:dist")
    race_read(src, lo, hi, site="bf.relax:src")
    race_read(w, lo, hi, site="bf.relax:w")
    return dist[src[lo:hi]] + w[lo:hi]


def _bellman_ford(g: DiGraph, source: int, w: np.ndarray,
                  relax: Callable[[np.ndarray], np.ndarray] | None = None
                  ) -> BellmanFordResult:
    acc = CostAccumulator()
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    parent = np.full(g.n, -1, dtype=np.int64)
    rounds = 0
    changed = True
    while changed and rounds < g.n:
        changed = _relax_round(g, w, dist, parent, acc, relax)
        rounds += 1
    cycle = None
    if changed:  # still relaxing after n rounds: negative cycle
        cycle = _extract_cycle(g, w, dist, parent, acc)
    return BellmanFordResult(dist, parent, cycle, rounds, acc.snapshot())


def _relax_round(g: DiGraph, w: np.ndarray, dist: np.ndarray,
                 parent: np.ndarray, acc: CostAccumulator,
                 relax: Callable[[np.ndarray], np.ndarray] | None = None
                 ) -> bool:
    """One Jacobi relaxation over all edges; True if any distance improved.

    ``relax(dist)``, when given, computes the candidates ``dist[src] + w``
    (on a backend); the min-merge and the parent update stay here.
    """
    acc.charge(*model.map_ws(g.m))
    if g.m == 0:
        return False
    cand = dist[g.src] + w if relax is None else relax(dist)
    new_dist = dist.copy()
    np.minimum.at(new_dist, g.dst, cand)
    improved_v = new_dist < dist
    if not improved_v.any():
        return False
    # set parents: any edge achieving the new (strictly better) distance
    tight = np.isfinite(cand) & (cand == new_dist[g.dst]) & improved_v[g.dst]
    parent[g.dst[tight]] = g.src[tight]
    dist[:] = new_dist
    return True


def _extract_cycle(g: DiGraph, w: np.ndarray, dist: np.ndarray,
                   parent: np.ndarray, acc: CostAccumulator) -> list[int]:
    """Extract a negative cycle once one is known to exist.

    Fast path: walk predecessor pointers from each still-relaxing vertex with
    a visited stamp; any parent-chain loop is a candidate, accepted only if
    it validates as negative against ``w``.  If the Jacobi parent pointers
    happen not to contain a negative loop (possible in pathological
    simultaneous-update schedules), fall back to a provably correct
    sequential extractor on the affected subgraph.
    """
    from ..graph.validate import validate_negative_cycle

    du = dist[g.src]
    cand = du + w
    relaxing = unique_sorted(g.dst[np.isfinite(cand) & (cand < dist[g.dst])])
    acc.charge(2 * g.n, 2 * g.n)  # sequential pointer walks
    stamp = np.full(g.n, -1, dtype=np.int64)
    for trial, v0 in enumerate(relaxing.tolist()):  # repro: noqa[RS001] pointer walks pre-charged: acc.charge(2n, 2n) above covers the stamped traversals
        v = int(v0)
        while v != -1 and stamp[v] != trial:  # repro: noqa[RS001] stamped walk, covered by the 2n pre-charge above
            stamp[v] = trial
            v = int(parent[v])
        if v == -1:
            continue
        # v starts a loop in the parent chain
        cycle = [v]
        u = int(parent[v])
        while u != v:  # repro: noqa[RS001] cycle readout <= n, covered by the 2n pre-charge above
            cycle.append(u)
            u = int(parent[u])
        cycle.reverse()
        if validate_negative_cycle(g, cycle, w.astype(np.int64)):
            return cycle
    return _extract_cycle_sequential(g, w, acc)


def _extract_cycle_sequential(g: DiGraph, w: np.ndarray,
                              acc: CostAccumulator) -> list[int]:
    """Provably correct extraction via sequential (Gauss–Seidel) relaxation.

    Relax edges one at a time from a virtual zero source; whenever setting
    ``parent[v] = u`` closes a loop in the predecessor graph, that loop has
    negative weight (CLRS Lemma 24.17 applies to sequential relaxations).
    Only invoked as a fallback after detection, so the extra O(n·m) sweep is
    a one-off.
    """
    dist = np.zeros(g.n)  # virtual source with 0-weight edge to everyone
    parent = np.full(g.n, -1, dtype=np.int64)
    src, dst = g.src.tolist(), g.dst.tolist()
    wl = w.tolist()
    for _ in range(g.n + 1):
        acc.charge(g.m, g.m)
        changed = False
        for e in range(g.m):  # repro: noqa[RS001] sequential fallback: each sweep pre-charges acc.charge(m, m)
            u, v = src[e], dst[e]
            nd = dist[u] + wl[e]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                changed = True
                # did this close a predecessor loop through v?
                x = u
                steps = 0
                while x != -1 and steps <= g.n:  # repro: noqa[RS001] closure walk O(n) <= sweep charge; runs once, on exit
                    if x == v:
                        cycle = [v]
                        y = u
                        while y != v:  # repro: noqa[RS001] cycle readout, covered by the sweep charge
                            cycle.append(y)
                            y = int(parent[y])
                        cycle.reverse()
                        return cycle
                    x = int(parent[x])
                    steps += 1
        if not changed:
            break
    raise VerificationError("negative cycle detected but extraction failed")


def bellman_ford_distance_only(g: DiGraph, source: int,
                               weights: np.ndarray | None = None,
                               max_rounds: int | None = None) -> np.ndarray:
    """Distances after ``max_rounds`` (default n) rounds; no cycle check.

    Handy oracle for hop-limited / distance-limited comparisons in tests.
    """
    source = check_source(g, source)
    w = _aligned_weights(g, weights).astype(np.float64)
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    parent = np.full(g.n, -1, dtype=np.int64)
    acc = CostAccumulator()
    rounds = max_rounds if max_rounds is not None else g.n
    for _ in range(rounds):
        if not _relax_round(g, w, dist, parent, acc):
            break
    return dist
