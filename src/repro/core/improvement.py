"""√k-improvement (§5 Steps 1–3, §6.1) — the core of 1-reweighting.

Given current reduced weights with values ≥ −1, one call either

* reports a **negative cycle** (original-graph vertex list), or
* returns a price update improving ≥ ⌈√k⌉ negative vertices, where ``k``
  counts negative vertices in the 0/−1-SCC condensation.

Step 1 condenses the SCCs of ``G≤0`` (negative intra-component edge ⇒
cycle).  Step 2 solves ``⌈√k⌉``-distance-limited DAG SSSP (§3) from a
supersource over the condensation's ≤0 subgraph, yielding either a length-
``⌈√k⌉`` chain of negative edges or the level sets whose largest negative
slice is an independent set.  Step 3 reweights: the independent set by a
unit price drop on everything at its level or deeper; the chain through the
``Ĝ`` construction solved by ``⌈√k⌉``-distance-limited nonnegative SSSP
(§4), with Lemma 19 turning any unimproved chain vertex into a cycle
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..baselines.dag_relax import dag_sssp
from ..baselines.dijkstra import dijkstra
from ..dag01.chain import recover_chain
from ..dag01.peeling import dag01_limited_sssp
from ..graph.digraph import DiGraph, _aligned_weights
from ..graph.transform import (
    Condensation,
    condense,
    edge_subgraph_mask,
    leq_zero_subgraph,
)
from ..limited.limited import limited_sssp
from ..observability.tracer import trace_span
from ..reach.scc import scc, scc_sequential
from ..resilience.errors import InputValidationError
from ..resilience.faults import current_fault_plan
from ..resilience.retry import RetryPolicy
from ..runtime import model
from ..runtime.metrics import CostAccumulator
from . import cycle as cyclemod
from .price import lift_price_to_members, negative_vertices


@dataclass
class ImprovementOutcome:
    """Result of one √k-improvement attempt.

    Exactly one of ``price_delta`` (original-vertex price update) and
    ``negative_cycle`` (original-vertex cycle) is set.  ``k`` is the
    negative-vertex count of the condensation before improving;
    ``improved`` the number of negative vertices targeted; ``method`` is
    ``"chain"``, ``"independent-set"`` or ``"cycle"``.
    """

    k: int
    method: str
    price_delta: np.ndarray | None = None
    negative_cycle: list[int] | None = None
    improved: int = 0
    chain_length: int = 0


def sqrt_k_improvement(g: DiGraph, w_red: np.ndarray, *,
                       mode: str = "parallel",
                       assp_engine=None, eps: float = 0.2,
                       seed=0,
                       acc: CostAccumulator | None = None,
                       retry_policy: RetryPolicy | None = None
                       ) -> ImprovementOutcome:
    """One √k-improvement on reduced weights ``w_red`` (all ≥ −1).

    ``mode="parallel"`` uses the paper's subroutines (§3 peeling, §4
    LimitedSP, reachability-based SCC); ``mode="sequential"`` swaps in the
    classic sequential ones (Tarjan, topological relaxation, Dijkstra) —
    that is Goldberg's original algorithm, used as the baseline.

    Resilience hooks: the ambient fault plan can off-by-one the returned
    price delta (site ``"price"``); the caller (``one_reweighting``) owns
    the τ-improvement verification that catches it.  ``retry_policy``
    governs the nested verified stages.
    """
    if mode not in ("parallel", "sequential"):
        raise InputValidationError("mode must be 'parallel' or 'sequential'")
    w_red = _aligned_weights(g, w_red)
    if g.m and w_red.min() < -1:
        raise InputValidationError(
            "1-reweighting requires reduced weights >= -1")
    local = acc if acc is not None else CostAccumulator()

    # ---- Step 1: SCCs of G≤0; intra-component negative edge => cycle ----
    sub0, eids0 = leq_zero_subgraph(g, w_red)
    with local.stage("scc"), \
            trace_span("scc", acc=local, phase="improvement",
                       n=sub0.n, m=sub0.m, mode=mode) as ssp:
        if mode == "parallel":
            sres = scc(sub0, local, seed=seed)
        else:
            sres = scc_sequential(sub0)
        comp = sres.comp
        ssp.set(components=sres.n_components, trimmed=sres.trimmed,
                trim_passes=sres.trim_passes)
    neg_intra = np.flatnonzero((w_red < 0) & (comp[g.src] == comp[g.dst]))
    if len(neg_intra):
        cycle = _step1_cycle(g, w_red, comp, int(neg_intra[0]))
        return ImprovementOutcome(k=-1, method="cycle", negative_cycle=cycle)

    cond = condense(g, comp, weights=w_red)
    cg = cond.graph
    negs = negative_vertices(cg)
    k = len(negs)
    if k == 0:
        # already feasible after contraction: zero improvement suffices
        return ImprovementOutcome(k=0, method="independent-set",
                                  price_delta=np.zeros(g.n, dtype=np.int64),
                                  improved=0)
    L = math.isqrt(k)
    if L * L < k:
        L += 1  # ⌈√k⌉

    # ---- Step 2: distance-limited DAG SSSP over H = ≤0(cg) + supersource --
    with local.stage("dag01"), \
            trace_span("dag01", acc=local, phase="improvement",
                       k=k, limit=L, mode=mode) as dsp:
        dist_h, chain = _find_chain_or_levels(cg, L, mode, seed, local,
                                              retry_policy)
        dsp.set(found_chain=chain is not None)

    if chain is not None:
        outcome = _step3_chain(g, w_red, cond, cg, chain, dist_h, k, L, mode,
                               assp_engine, eps, seed, local,
                               retry_policy)
    else:
        outcome = _step3_independent_set(g, cond, cg, negs, dist_h, L, local)
    plan = current_fault_plan()
    if plan is not None and outcome.price_delta is not None:
        outcome.price_delta = plan.corrupt_price_delta(
            g.src, g.dst, w_red, outcome.price_delta)
    return outcome


def _step1_cycle(g: DiGraph, w_red: np.ndarray, comp: np.ndarray,
                 edge_id: int) -> list[int]:
    try:
        return cyclemod.cycle_from_scc_negative_edge(g, w_red, comp, edge_id)
    except cyclemod.CycleExtractionError:
        return cyclemod.fallback_cycle(g, w_red)


def _find_chain_or_levels(cg: DiGraph, L: int, mode: str, seed,
                          acc: CostAccumulator,
                          retry_policy: RetryPolicy | None = None):
    """Step 2: solve the {0,−1} DAG problem with limit L on H.

    Returns ``(dist_h, chain)`` where ``dist_h`` covers the cg vertices
    (supersource removed) and ``chain`` is the length-L negative-edge chain
    if some vertex reaches depth −L, else None.

    The peeling draw is a verified randomized stage: a priority-contract
    violation (only reachable via fault injection or bad user priorities)
    is healed here by redrawing with a fresh derived seed.
    """
    sub_cg, _ = leq_zero_subgraph(cg)
    s_star = cg.n
    h = sub_cg._with_source(np.arange(cg.n, dtype=np.int64),
                            np.zeros(cg.n, dtype=np.int64))

    if mode == "parallel":
        policy = retry_policy or RetryPolicy(max_attempts=3)
        res = policy.run(
            "dag01_peeling", seed,
            lambda attempt, aseed: dag01_limited_sssp(
                h, s_star, L, seed=aseed, acc=acc, validate=False))
        dist_h = res.dist[:cg.n]
        deep = np.flatnonzero(res.dist == -L)
        if len(deep) == 0:
            return dist_h, None
        edges = recover_chain(res, L, start=int(deep[0]))
        return dist_h, edges

    seq = dag_sssp(h, s_star)
    acc.charge_cost(seq.cost)
    dist_full = seq.dist.copy()
    dist_h = dist_full[:cg.n]
    dist_h_clamped = dist_h.copy()
    dist_h_clamped[dist_h_clamped < -L] = -np.inf
    deep = np.flatnonzero(dist_full == -L)
    if len(deep) == 0:
        # vertices strictly below −L imply vertices exactly at −L on the
        # way down, so no deep vertex means everything is shallower
        return dist_h_clamped, None
    # walk the predecessor path from a depth −L vertex, collecting its
    # negative edges — they form the chain
    chain: list[tuple[int, int]] = []
    v = int(deep[0])
    while v != s_star and seq.parent[v] >= 0:  # repro: noqa[RS001] predecessor walk O(n), covered by the step-2 sequential solve's own ledger
        u = int(seq.parent[v])
        if u != s_star and h.min_weight_between(u, v) == -1:
            chain.append((u, v))
        v = u
    chain.reverse()
    return dist_h_clamped, chain[:L] if len(chain) >= L else None


def _step3_independent_set(g: DiGraph, cond: Condensation, cg: DiGraph,
                           negs: np.ndarray, dist_h: np.ndarray, L: int,
                           acc: CostAccumulator) -> ImprovementOutcome:
    """Improve the largest per-level independent set of negative vertices."""
    levels = (-dist_h[negs]).astype(np.int64)
    acc.charge(*model.map_ws(len(negs)))
    counts = np.bincount(levels, minlength=L + 1)
    counts[0] = 0  # negative vertices never sit at level 0
    best = int(np.argmax(counts))
    improved = int(counts[best])
    # V^R = everything at level >= best (reachable from S_best in ≤0(cg))
    in_vr = dist_h <= -best
    price_cg = np.where(in_vr, -1, 0).astype(np.int64)
    acc.charge(*model.map_ws(cg.n))
    delta = lift_price_to_members(price_cg, cond.comp)
    return ImprovementOutcome(k=len(negs), method="independent-set",
                              price_delta=delta, improved=improved)


def _step3_chain(g: DiGraph, w_red: np.ndarray, cond: Condensation,
                 cg: DiGraph, chain: list[tuple[int, int]],
                 dist_h: np.ndarray, k: int, L: int, mode: str,
                 assp_engine, eps: float, seed,
                 acc: CostAccumulator,
                 retry_policy: RetryPolicy | None = None
                 ) -> ImprovementOutcome:
    """Eliminate the chain via the Ĝ reduction (§6.1 Step 3, App. A.1)."""
    s_hat = cg.n
    w_hat = np.maximum(cg.w, 0)
    super_w = np.full(cg.n, L, dtype=np.int64)
    for i, (_, v) in enumerate(chain, start=1):  # repro: noqa[RS001] O(|chain|) <= L supersource setup, covered by the map charges in this stage
        super_w[v] = L - i
    src = np.r_[cg.src, np.full(cg.n, s_hat, dtype=np.int64)]
    dst = np.r_[cg.dst, np.arange(cg.n, dtype=np.int64)]
    w = np.r_[w_hat, super_w]
    g_hat = DiGraph(cg.n + 1, src, dst, w)

    with acc.stage("chain-elimination"), \
            trace_span("chain-elimination", acc=acc, phase="improvement",
                       limit=L, mode=mode):
        if mode == "parallel":
            # generous retry budget: a whp-style engine fails a full pass
            # only rarely, but failure injection can need many attempts
            policy = retry_policy or RetryPolicy(max_attempts=51)
            res = limited_sssp(g_hat, s_hat, L, engine=assp_engine, eps=eps,
                               acc=acc, validate=False,
                               retry_policy=policy)
            d_hat, parent_hat = res.dist, res.parent
        else:
            res = dijkstra(g_hat, s_hat, limit=L)
            acc.charge_cost(res.cost)
            d_hat, parent_hat = res.dist, res.parent

    price_cg = (d_hat[:cg.n] - L).astype(np.int64)
    acc.charge(*model.map_ws(cg.n))

    # Lemma 19: all chain v_i must be improved, else a negative cycle exists
    chain_v = np.array([v for _, v in chain], dtype=np.int64)
    w_after = cg.w + price_cg[cg.src] - price_cg[cg.dst]
    in_chain_v = np.zeros(cg.n, dtype=bool)
    in_chain_v[chain_v] = True
    unimproved = (w_after < 0) & in_chain_v[cg.dst]
    acc.charge(*model.map_ws(cg.m))
    if not unimproved.any():
        delta = lift_price_to_members(price_cg, cond.comp)
        return ImprovementOutcome(k=k, method="chain", price_delta=delta,
                                  improved=L, chain_length=L)

    cycle = _step3_cycle(g, w_red, cond, cg, chain, d_hat, parent_hat,
                         s_hat, dist_h)
    return ImprovementOutcome(k=k, method="cycle", negative_cycle=cycle,
                              chain_length=L)


def _step3_cycle(g: DiGraph, w_red: np.ndarray, cond: Condensation,
                 cg: DiGraph, chain, d_hat, parent_hat, s_hat, dist_h
                 ) -> list[int]:
    try:
        level_of = np.where(np.isfinite(dist_h), -dist_h, -1).astype(np.int64)
        intra_level = (cg.w == 0) & np.isfinite(dist_h[cg.src]) & \
            (level_of[cg.src] == level_of[cg.dst])
        zsub = edge_subgraph_mask(cg, intra_level)
        ccycle = cyclemod.chain_failure_contracted_cycle(
            cg, cg.w, chain, d_hat, parent_hat, s_hat, zsub, level_of)
        return cyclemod.expand_contracted_cycle(g, w_red, cond, ccycle)
    except cyclemod.CycleExtractionError:
        return cyclemod.fallback_cycle(g, w_red)
