"""§4 — Distance-limited SSSP with nonnegative integer weights (Alg. 3).

``LimitedSP`` finalises vertices in increasing distance order 0..D (where
``D`` is the smallest power of two strictly above the limit ``L``), using a
``(1+ε)``-ASSSP black box to *refine* each unfinished vertex's dyadic
distance interval: whenever the sweep value ``d`` reaches the left end of an
interval ``[d, d+2^i)``, Refine shifts distances down by ``d`` (turning the
multiplicative approximation into a better additive one), reruns ASSSP on
the overlap subgraph from a fresh supersource, finalises vertices whose
shifted estimate hits 0, and reassigns the rest to one of three half-size
subintervals.  Each vertex joins ``O(lg² D)`` refinement graphs (Lemma 13),
giving ``Õ(m)`` work and ``√L·n^(1/2+o(1))`` span (Theorem 15).

Integer-weight footnote: for interval sizes 1 and 2 the paper's middle
subinterval ``[d+2^(i-2), d+3·2^(i-2))`` has non-integer endpoints; since
true distances are integers, the only integer it can contain is ``d+1``, so
those sizes collapse to the size-1 interval ``[d+1, d+2)`` (pure
finalise-or-move-on behaviour).  This preserves the invariant
``dist(s,v) ∈ I(v)`` of Lemma 11 verbatim.

Because the ASSSP guarantee is only with-high-probability, the result is
verified (§4.2, Lemma 10) and the whole computation retried with fresh
randomness on failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assp.engines import ExactAssp, FaultInjectingAssp
from ..graph.csr import in_edge_slots
from ..graph.digraph import DiGraph
from ..graph.validate import check_limit, check_source
from ..observability.metrics import metric_inc
from ..observability.tracer import trace_span
from ..resilience.errors import InputValidationError, RetryExhaustedError
from ..resilience.errors import VerificationError  # noqa: F401 (re-export)
from ..resilience.faults import current_fault_plan
from ..resilience.retry import AttemptRecord, RetryPolicy
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.model import lg
from .intervals import IntervalTable, smallest_power_of_two_above
from .verify import shortest_path_tree, verify_limited_distances


@dataclass
class LimitedSpResult:
    """Distances up to the limit, the SP tree, and instrumentation.

    ``dist[v] = dist(s,v)`` when ``≤ limit``, else ``+inf`` (also for
    unreachable vertices).  ``parent[v]`` realises the distances through
    tight edges (−1 at the source and beyond the limit).
    """

    dist: np.ndarray
    parent: np.ndarray
    limit: int
    refine_calls: int
    refine_node_total: int           # Σ|V'| over Refine calls (Lemma 14)
    interval_additions: np.ndarray   # per-vertex (Lemma 13)
    retries: int
    verified: bool
    cost: Cost


def limited_sssp(g: DiGraph, source: int, limit: int, *,
                 engine=None, eps: float = 0.2,
                 acc: CostAccumulator | None = None,
                 retry_policy: RetryPolicy | None = None,
                 validate: bool = True) -> LimitedSpResult:
    """Exact distances to all vertices within ``limit`` of ``source``.

    ``engine`` is any ASSSP callable (default: exact); ``eps`` must be
    < 1/4 for the refinement case analysis (Lemma 11).

    Resilience hooks: ``retry_policy`` budgets the verified passes (6
    attempts without one); the ambient fault plan (site ``"assp"``)
    corrupts engine answers so tests can prove the Lemma-10 verifier fires.
    Exhausting the retry budget raises
    :class:`~repro.resilience.errors.RetryExhaustedError` (a
    ``VerificationError``) carrying the attempt log.
    """
    source = check_source(g, source)
    limit = check_limit(limit)
    if not (0 < eps < 0.25):
        raise InputValidationError("eps must be in (0, 1/4)")
    if validate and g.m and g.w.min() < 0:
        raise InputValidationError("weights must be nonnegative")
    if engine is None:
        engine = ExactAssp()
    plan = current_fault_plan()
    if plan is not None:
        engine = FaultInjectingAssp(plan=plan, inner=engine)
    policy = retry_policy or RetryPolicy(max_attempts=6)

    local = CostAccumulator()
    attempts: list[AttemptRecord] = []
    with trace_span("limited-sssp", acc=local, phase="limited",
                    n=g.n, m=g.m, limit=limit) as lsp:
        for attempt in range(policy.max_attempts):
            dist, table, calls, node_total = _limited_pass(
                g, source, limit, engine, eps, local)
            ok = verify_limited_distances(g, source, dist, limit,
                                          acc=local)
            attempts.append(AttemptRecord(
                "limited_sssp", attempt, 0, bool(ok),
                None if ok else "Lemma-10 check failed"))
            if ok:
                parent = shortest_path_tree(g, source, dist,
                                            acc=local)
                lsp.set(retries=attempt, verified=True)
                lsp.count("refine_calls", calls)
                lsp.count("refine_nodes", node_total)
                metric_inc("repro_refine_calls_total", calls)
                if attempt:
                    metric_inc("repro_retries_total",
                               stage="limited_sssp",
                               error="VerificationError")
                if acc is not None:
                    acc.charge_cost(local.snapshot())
                return LimitedSpResult(
                    dist=dist, parent=parent, limit=limit,
                    refine_calls=calls, refine_node_total=node_total,
                    interval_additions=table.additions, retries=attempt,
                    verified=True, cost=local.snapshot())
        lsp.set(retries=policy.max_attempts, verified=False)
        if acc is not None:
            acc.charge_cost(local.snapshot())
        raise RetryExhaustedError(
            f"limited_sssp failed verification {policy.max_attempts} times "
            f"(engine={getattr(engine, 'name', engine)!r})",
            stage="limited_sssp", attempts=attempts)


def _limited_pass(g: DiGraph, source: int, limit: int, engine, eps: float,
                  acc: CostAccumulator):
    """One un-verified execution of Algorithm 3."""
    D = smallest_power_of_two_above(limit)
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    finalized = np.zeros(g.n, dtype=bool)
    finalized[source] = True
    table = IntervalTable(g.n)

    # initial 2-approximation assigns everything near enough to [0, 2D)
    d0 = engine(g, source, 1.0, acc)
    near = np.flatnonzero((d0 <= 2 * D) & (np.arange(g.n) != source))
    acc.charge(*model.pack_ws(g.n))
    table.assign(near, 0, 2 * D, acc)

    calls = 0
    node_total = 0
    max_size = 2 * D
    # sweeping to `limit` suffices: every vertex within the limit finalises
    # by round `dist(v) <= limit`; farther vertices stay +inf by contract
    for d in range(limit + 1):
        size = max_size
        while size >= 1:
            align = max(size // 2, 1)
            if d % align == 0:
                c, nt = _refine(g, source, d, size, dist, finalized, table,
                                engine, eps, acc, max_size)
                calls += c
                node_total += nt
            size //= 2
    # clamp to the output contract (a faulty engine can finalise past it)
    dist[dist > limit] = np.inf
    return dist, table, calls, node_total


def _refine(g: DiGraph, source: int, d: int, size: int, dist: np.ndarray,
            finalized: np.ndarray, table: IntervalTable, engine, eps: float,
            acc: CostAccumulator, max_size: int) -> tuple[int, int]:
    """Refine(d, size): re-estimate everything overlapping ``[d, d+size)``."""
    keys = table.overlap_keys(d, size, max_size)
    acc.charge(size, span=lg(size))  # Õ(2^i) enumeration term (Lemma 14)
    if not keys:
        return 0, 0
    vprime = table.gather(keys, acc)
    vprime = vprime[~finalized[vprime]]
    if len(vprime) == 0:
        return 0, 0

    with trace_span("refine", acc=acc, phase="limited",
                    d=d, size=size) as rsp:
        rsp.count("nodes", len(vprime))
        d_shift = _run_assp_on_shifted(g, d, vprime, dist, finalized,
                                       engine, eps, acc)

        # finalise vertices whose shifted distance is 0 (distance d exactly)
        zero = d_shift == 0.0
        done = vprime[zero]
        dist[done] = float(d)
        finalized[done] = True
        table.remove(done)
        acc.charge(*model.map_ws(len(vprime)))
        rsp.count("finalized", len(done))

        # reassign only vertices whose interval is exactly [d, d+size)
        mine = (table.start[vprime] == d) & (table.size[vprime] == size) \
            & ~zero
        movers = vprime[mine]
        dm = d_shift[mine]
        rsp.count("reassigned", len(movers))
        if len(movers):
            if size <= 2:
                # integer-weight collapse (see module docstring): everything
                # unfinalised in [d, d+1) or [d, d+2) has distance d+1
                # barring engine failure; park it in [d+1, d+2)
                table.assign(movers, d + 1, 1, acc)
            else:
                half = size // 2
                quarter = size // 4
                lo = dm < half
                mid = ~lo & (dm < 3 * quarter)
                hi = ~lo & ~mid
                table.assign(movers[lo], d, half, acc)
                table.assign(movers[mid], d + quarter, half, acc)
                table.assign(movers[hi], d + half, half, acc)
    return 1, len(vprime)


def _run_assp_on_shifted(g: DiGraph, d: int, vprime: np.ndarray,
                         dist: np.ndarray, finalized: np.ndarray,
                         engine, eps: float, acc: CostAccumulator
                         ) -> np.ndarray:
    """Build ``G'`` (shifted by d, fresh supersource) and run ASSSP.

    Returns the shifted distance estimate for each vertex of ``vprime``.
    Supersource edges go to every unfinished vertex with a finalized
    in-neighbour, weighted ``d(u) + w(u,v) − d`` (clamped at 0 so a faulty
    engine cannot crash the build; verification owns correctness).
    """
    sub, nodes = g.induced_subgraph(vprime)
    acc.charge(*model.pack_ws(g.m))
    s_prime = sub.n

    slots = in_edge_slots(g, vprime)
    acc.charge(*model.map_ws(len(slots)))
    eids = g.reids[slots]
    u = g.src[eids]
    v = g.dst[eids]
    fin = finalized[u]
    entry_w = np.full(len(vprime), np.inf)
    if fin.any():
        cand = dist[u[fin]] + g.w[eids[fin]].astype(np.float64) - d
        local_v = np.searchsorted(nodes, v[fin])
        np.minimum.at(entry_w, local_v, cand)
    has_entry = np.isfinite(entry_w)
    entry_targets = np.flatnonzero(has_entry)
    ew = np.maximum(entry_w[entry_targets], 0.0).astype(np.int64)

    gp = sub._with_source(entry_targets, ew)
    d_prime = engine(gp, s_prime, eps, acc)
    # gp's first sub.n vertices are exactly vprime, in sorted order
    return d_prime[:sub.n]
