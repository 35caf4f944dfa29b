"""Certificate checking: price feasibility, cycles, DAG-ness.

Every nontrivial output of the library is checkable: a feasible price
function certifies "no negative cycle" (Johnson), a vertex cycle with
negative total weight certifies "negative cycle".  The validators here are
deliberately independent of the algorithms that produce the certificates
and are used both by the public API and by the test suite.
"""

from __future__ import annotations

import numpy as np

from ..resilience.errors import InputValidationError
from ..runtime.primitives import _as_count
from .csr import ranges_concat as _ranges_concat
from .digraph import DiGraph, _aligned_weights, _as_int64, _per_vertex

# Bit scaling keeps |price| ≤ 2·n·max|w| and reduced weights add two price
# terms to a weight, so this product bound keeps every int64 intermediate
# at least two orders of magnitude away from overflow.
_SCALED_PRODUCT_LIMIT = 2 ** 60


def check_overflow_safety(g: DiGraph,
                          weights: np.ndarray | None = None) -> None:
    """Raise :class:`InputValidationError` if scaled/reduced-weight
    arithmetic on this instance could overflow int64.

    The per-weight cap in the :class:`DiGraph` constructor bounds single
    values; this whole-instance check bounds the *products* the scaling
    loop actually forms (prices grow like ``n · max|w|`` across scales).
    """
    w = _aligned_weights(g, weights)
    if len(w) == 0:
        return
    # np.abs(INT64_MIN) is INT64_MIN, which reads 2**63 unsigned
    max_abs = int(np.abs(w).view(np.uint64).max())
    if max_abs and max(g.n, 1) > _SCALED_PRODUCT_LIMIT // (4 * max_abs):
        raise InputValidationError(
            f"n·max|w| = {g.n}·{max_abs} risks int64 overflow in "
            "scaled/reduced weights; rescale the instance")


def check_source(g: DiGraph, source) -> int:
    """``source`` as a Python int, checked like the public constructor's
    vertex ids: integral floats and bools count as their int value;
    fractional, NaN, ±inf, non-scalar and out-of-range values raise
    :class:`InputValidationError`.  O(1): no whole-graph work, and a
    plain in-range ``int`` returns before any numpy call."""
    if type(source) is int and 0 <= source < g.n:  # not bool: a subclass
        return source
    arr = _as_int64(source, "source")
    if arr.ndim != 0 or not (0 <= arr < g.n):
        raise InputValidationError(
            f"source {source} out of range [0, {g.n})")
    return int(arr)


def check_limit(limit) -> int:
    """A distance limit as a nonnegative Python int, read like the
    public constructor's vertex count
    (:func:`~repro.runtime.primitives._as_count`): integral floats and
    bools count as their int value; fractional, NaN, ±inf, negative and
    non-scalar values raise :class:`InputValidationError`."""
    return _as_count(limit, "limit")


def validate_graph(g: DiGraph, source=None,
                   weights: np.ndarray | None = None) -> int | None:
    """Full input validation for the public solver entry points.

    The :class:`DiGraph` constructor already guarantees well-formed CSR
    arrays and finite integral weights; this adds the solver-level
    contract: a valid source (:func:`check_source`) and overflow-safe
    magnitudes.  Raises :class:`InputValidationError` (a ``ValueError``)
    on violation; returns the source as a Python int (None without one).
    """
    if source is not None:
        source = check_source(g, source)
    check_overflow_safety(g, weights)
    return source


def is_feasible_price(g: DiGraph, price: np.ndarray,
                      weights: np.ndarray | None = None) -> bool:
    """True iff all reduced weights ``w + p(u) − p(v)`` are nonnegative."""
    return min_reduced_weight(g, price, weights) >= 0


def min_reduced_weight(g: DiGraph, price: np.ndarray,
                       weights: np.ndarray | None = None) -> int:
    """Minimum reduced weight (≥ -1 required by the 1-reweighting problem).
    Prices and weights above 2^60 in magnitude raise, so |w + p(u) − p(v)|
    stays below 2^63."""
    w = _aligned_weights(g, weights, max_abs=_SCALED_PRODUCT_LIMIT)
    price = _per_vertex(g, price, "price function",
                        max_abs=_SCALED_PRODUCT_LIMIT)
    if g.m == 0:
        return 0
    return int((w + price[g.src] - price[g.dst]).min())


def cycle_weight(g: DiGraph, cycle: list[int] | np.ndarray,
                 weights: np.ndarray | None = None) -> int:
    """Total weight of the closed walk ``cycle`` (vertex list, first != last
    repeated implicitly).  Uses the minimum-weight parallel edge on each hop.

    Raises :class:`InputValidationError` (a ``ValueError``) if a hop has
    no edge, or if ``weights`` are not integral values aligned with the
    edge ids.
    """
    cyc = [int(v) for v in cycle]
    if len(cyc) == 0:
        raise InputValidationError("empty cycle")
    w = _aligned_weights(g, weights)
    total = 0
    for i, u in enumerate(cyc):
        v = cyc[(i + 1) % len(cyc)]
        eids = g.edge_ids_between(u, v)
        if len(eids) == 0:
            raise InputValidationError(f"cycle hop {u}->{v} is not an edge")
        total += int(w[eids].min())
    return total


def validate_negative_cycle(g: DiGraph, cycle: list[int] | np.ndarray,
                            weights: np.ndarray | None = None) -> bool:
    """True iff ``cycle`` is a closed walk in ``g`` with negative weight."""
    try:
        return cycle_weight(g, cycle, weights) < 0
    except ValueError:
        return False


def is_dag(g: DiGraph) -> bool:
    """Kahn's algorithm, vectorised per round."""
    return topological_order(g) is not None


def topological_order(g: DiGraph) -> np.ndarray | None:
    """A topological order of ``g``'s vertices, or None if cyclic.

    Kahn peeling with numpy frontier rounds: each round removes all
    current in-degree-0 vertices at once.
    """
    indeg = g.in_degree().copy()
    order = np.empty(g.n, dtype=np.int64)
    frontier = np.flatnonzero(indeg == 0)
    done = 0
    while len(frontier):
        order[done:done + len(frontier)] = frontier
        done += len(frontier)
        # decrement in-degree of all successors of the frontier at once
        lo = g.indptr[frontier]
        hi = g.indptr[frontier + 1]
        counts = hi - lo
        if counts.sum() == 0:
            frontier = np.empty(0, dtype=np.int64)
            continue
        idx = _ranges_concat(lo, hi)
        targets = g.indices[idx]
        dec = np.bincount(targets, minlength=g.n)
        indeg -= dec
        newly = np.flatnonzero((indeg == 0) & (dec > 0))
        frontier = newly
    return order if done == g.n else None


def check_distances(g: DiGraph, source: int, dist: np.ndarray,
                    weights: np.ndarray | None = None) -> bool:
    """Verify exact SSSP output by the Bellman criterion (paper Lemma 10).

    ``dist`` may contain ``+inf`` (unreachable).  Requires no negative
    cycle reachable from ``source``; callers handle ``-inf`` separately.
    """
    w = g.w.astype(np.float64) if weights is None else np.asarray(weights, dtype=np.float64)
    d = np.asarray(dist, dtype=np.float64)
    if d[source] != 0:
        return False
    finite = np.isfinite(d)
    # no edge may relax: d[v] <= d[u] + w
    du = d[g.src]
    dv = d[g.dst]
    with np.errstate(invalid="ignore"):
        slack_ok = dv <= du + w
    ok_edges = slack_ok | ~np.isfinite(du)
    if not ok_edges.all():
        return False
    # every finite d[v] (v != source) must be attained by some incoming edge
    attain = np.zeros(g.n, dtype=bool)
    with np.errstate(invalid="ignore"):
        tight = np.isfinite(du) & (dv == du + w)
    attain[g.dst[tight]] = True
    need = finite.copy()
    need[source] = False
    return bool((attain | ~need).all())
