"""Experiment runners: parameter sweeps producing table rows.

Each experiment of EXPERIMENTS.md is one runner here, registered with its
sweeps and its claim in :mod:`repro.analysis.benchruns`.  A runner returns
:class:`Row` objects; its correctness checks are columns (``correct``,
``agrees``, ``identical``) that the claims require.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..assp.engines import get_engine
from ..baselines.bellman_ford import bellman_ford
from ..core.engines import get_sssp_engine
from ..core.sssp import solve_sssp
from ..dag01.naive import dag01_limited_sssp_naive
from ..dag01.peeling import dag01_limited_sssp
from ..graph.generators import (
    hidden_potential_graph,
    layered_dag,
    planted_negative_cycle_graph,
    random_dag,
    zero_heavy_digraph,
)
from ..limited.limited import limited_sssp
from ..runtime.metrics import Cost
from ..runtime.rng import derive_seed


@dataclass
class Row:
    """One table row: parameters plus measured quantities."""

    params: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def flat(self) -> dict:
        return {**self.params, **self.values}


def fit_exponent(xs, ys) -> float:
    """Least-squares slope of log(y) vs log(x): the empirical scaling
    exponent.  Used by shape assertions ("work grows ~linearly in m")."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    mask = (xs > 0) & (ys > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive points")
    return float(np.polyfit(np.log(xs[mask]), np.log(ys[mask]), 1)[0])


def _interleaved_samples(fns, repeats: int) -> list[list[float]]:
    """Wall-clock samples of each of ``fns``, run round-robin ``repeats``
    times.  Back-to-back blocks of one variant drift 10–20% on a shared
    host (frequency scaling, allocator state); round-robin puts every
    variant through the same drift."""
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            samples[i].append(time.perf_counter() - t0)
    return samples


# ---------------------------------------------------------------------------
# E1/E2: §3 peeling work & span scaling
# ---------------------------------------------------------------------------

def run_dag01_work_scaling(sizes=(200, 400, 800, 1600, 3200),
                           avg_degree=4, seed=0) -> list[Row]:
    """E1: peeling work vs m at L = ⌈√n⌉ (claim: Õ(m))."""
    rows = []
    for n_target in sizes:
        layers = max(2, int(math.sqrt(n_target)))
        width = max(1, n_target // layers)
        g = layered_dag(layers, width, p_negative=0.5,
                        p_edge=min(1.0, avg_degree / width), seed=seed)
        limit = int(math.isqrt(g.n)) + 1
        res = dag01_limited_sssp(g, 0, limit, seed=seed)
        rows.append(Row(
            params={"n": g.n, "m": g.m, "L": limit},
            values={"work": res.cost.work,
                    "work_per_edge": res.cost.work / max(g.m, 1),
                    "span_measured": res.cost.span,
                    "span_model": res.cost.span_model,
                    "label_changes_max": int(res.label_changes.max()),
                    "reach_calls": res.reach_calls}))
    return rows


def run_dag01_span_scaling(layers_list=(4, 8, 16, 32, 64), width=40,
                           seed=0) -> list[Row]:
    """E2: peeling span vs L at ~fixed n (claim: √L·n^(1/2+o(1)))."""
    rows = []
    max_layers = max(layers_list)
    for layers in layers_list:
        g = layered_dag(max_layers, width, p_negative=1.0 * layers / max_layers,
                        seed=seed)
        limit = layers
        res = dag01_limited_sssp(g, 0, limit, seed=seed)
        rows.append(Row(
            params={"n": g.n, "m": g.m, "L": limit},
            values={"span_model": res.cost.span_model,
                    "span_measured": res.cost.span,
                    "span_model_per_sqrtL": res.cost.span_model / math.sqrt(limit),
                    "rounds": res.rounds}))
    return rows


def run_label_changes(sizes=(100, 400, 1600, 6400), seed=0) -> list[Row]:
    """E3: max/mean label changes per vertex vs n (claim: O(log² n))."""
    rows = []
    for n_target in sizes:
        layers = max(2, int(math.sqrt(n_target) / 2))
        width = max(1, n_target // layers)
        g = layered_dag(layers, width, p_negative=0.5, seed=seed)
        res = dag01_limited_sssp(g, 0, layers, seed=seed)
        lg2 = math.log2(g.n + 2) ** 2
        rows.append(Row(
            params={"n": g.n, "m": g.m},
            values={"label_changes_max": int(res.label_changes.max()),
                    "label_changes_mean": float(res.label_changes.mean()),
                    "log2_squared": lg2,
                    "ratio_max_over_log2sq": res.label_changes.max() / lg2}))
    return rows


def run_peeling_vs_naive(depths=(5, 10, 20, 40, 80), tail=3,
                         seed=0) -> list[Row]:
    """E4: labelled peeling vs per-round-reachability baseline vs depth."""
    from ..graph.generators import negative_chain_gadget

    rows = []
    for depth in depths:
        g = negative_chain_gadget(depth, tail=tail, seed=seed)
        smart = dag01_limited_sssp(g, 0, depth, seed=seed)
        naive = dag01_limited_sssp_naive(g, 0, depth)
        rows.append(Row(
            params={"n": g.n, "m": g.m, "L": depth},
            values={"peeling_work": smart.cost.work,
                    "naive_work": naive.cost.work,
                    "work_ratio_naive_over_peeling":
                        naive.cost.work / max(smart.cost.work, 1),
                    "peeling_reach_nodes": smart.reach_node_total,
                    "naive_reach_nodes": naive.reach_node_total}))
    return rows


# ---------------------------------------------------------------------------
# E5/E6: §4 LimitedSP
# ---------------------------------------------------------------------------

def run_limited_work_span(sizes=(200, 400, 800, 1600), avg_degree=5,
                          seed=0) -> list[Row]:
    """E5: LimitedSP work vs m and span vs √L (claims of Theorem 15)."""
    rows = []
    for n in sizes:
        g = zero_heavy_digraph(n, avg_degree * n, p_zero=0.4, max_w=4,
                               seed=seed)
        limit = int(math.isqrt(n)) + 1
        res = limited_sssp(g, 0, limit)
        rows.append(Row(
            params={"n": n, "m": g.m, "L": limit},
            values={"work": res.cost.work,
                    "work_per_edge": res.cost.work / max(g.m, 1),
                    "span_model": res.cost.span_model,
                    "span_model_per_sqrtL":
                        res.cost.span_model / math.sqrt(limit),
                    "refine_calls": res.refine_calls}))
    return rows


def run_interval_reassignments(limits=(4, 16, 64, 256), n=400,
                               seed=0) -> list[Row]:
    """E6: interval additions per vertex vs D (claim: O(lg² D))."""
    rows = []
    g = zero_heavy_digraph(n, 5 * n, p_zero=0.3, max_w=3, seed=seed)
    for limit in limits:
        res = limited_sssp(g, 0, limit)
        lg2 = math.log2(2 * limit + 2) ** 2
        rows.append(Row(
            params={"n": n, "m": g.m, "L": limit},
            values={"additions_max": int(res.interval_additions.max()),
                    "additions_mean": float(res.interval_additions.mean()),
                    "log2D_squared": lg2,
                    "ratio_max_over_log2sq":
                        res.interval_additions.max() / lg2}))
    return rows


# ---------------------------------------------------------------------------
# E7/E8: improvement & reweighting progress
# ---------------------------------------------------------------------------

def run_sqrt_k_progress(ks=(9, 25, 100, 400), seed=0) -> list[Row]:
    """E7: negative vertices eliminated per improvement vs k.

    Two extreme gadgets: the independent-negatives star (improvement takes
    the independent-set branch and wipes everything at once) and the long
    negative chain (the chain branch eliminates exactly ⌈√k⌉ per call).
    """
    from ..core.improvement import sqrt_k_improvement
    from ..core.price import count_negative_vertices
    from ..graph.generators import (
        independent_negatives_gadget,
        negative_chain_gadget,
    )

    rows = []
    for gadget, build in (("star", independent_negatives_gadget),
                          ("chain", negative_chain_gadget)):
        for k in ks:
            g = build(k)
            out = sqrt_k_improvement(g, g.w, seed=seed)
            w_after = g.w + out.price_delta[g.src] - out.price_delta[g.dst]
            eliminated = k - count_negative_vertices(g, w_after)
            rows.append(Row(
                params={"gadget": gadget, "k": k},
                values={"eliminated": int(eliminated),
                        "sqrt_k": math.isqrt(k),
                        "method": out.method,
                        "meets_bound": bool(eliminated >= math.isqrt(k))}))
    return rows


def run_reweighting_iterations(sizes=(50, 200, 800), seed=0) -> list[Row]:
    """E8: 1-reweighting iteration count vs initial negatives K
    (claim: O(√K))."""
    from ..core.goldberg import one_reweighting
    from ..core.price import count_negative_vertices

    rows = []
    for n in sizes:
        g = random_dag(n, 5 * n, weights=(0, -1, 1, 2),
                       weight_probs=(0.3, 0.3, 0.2, 0.2), seed=seed)
        K = count_negative_vertices(g)
        res = one_reweighting(g, seed=seed)
        rows.append(Row(
            params={"n": n, "m": g.m, "K": K},
            values={"iterations": res.stats.iterations,
                    "sqrt_K": math.sqrt(max(K, 1)),
                    "iters_per_sqrtK":
                        res.stats.iterations / math.sqrt(max(K, 1)),
                    "methods": dict(
                        (m, res.stats.methods.count(m))
                        for m in sorted(set(res.stats.methods)))}))
    return rows


# ---------------------------------------------------------------------------
# E9/E10/E11: the headline comparison
# ---------------------------------------------------------------------------

def run_goldberg_vs_bellman_ford(sizes=(128, 256, 512, 1024, 2048),
                                 avg_degree=4,
                                 spread=16, seed=0) -> list[Row]:
    """E9: total model work, parallel Goldberg vs parallel Bellman–Ford.

    Uses the BF-adversarial workload (hop diameter Θ(n), so Bellman–Ford
    really pays Θ(n·m)).  Claim shape: the work ratio grows like
    ~√n/polylog, with the crossover where the polylog constants are paid
    off (n ≈ 10³ under this cost model).
    """
    from ..graph.generators import bf_hard_graph

    rows = []
    for n in sizes:
        g = bf_hard_graph(n, (avg_degree - 1) * n,
                          potential_spread=spread, seed=seed)
        t0 = time.perf_counter()
        gres = solve_sssp(g, 0, seed=seed)
        t_gold = time.perf_counter() - t0
        t0 = time.perf_counter()
        bres = bellman_ford(g, 0)
        t_bf = time.perf_counter() - t0
        assert not gres.has_negative_cycle
        np.testing.assert_array_equal(gres.dist, bres.dist)
        rows.append(Row(
            params={"n": n, "m": g.m, "N": spread},
            values={"goldberg_work": gres.cost.work,
                    "bellman_ford_work": bres.cost.work,
                    "work_ratio_bf_over_goldberg":
                        bres.cost.work / max(gres.cost.work, 1),
                    "goldberg_span_model": gres.cost.span_model,
                    "bf_rounds": bres.rounds,
                    "goldberg_seconds": t_gold,
                    "bf_seconds": t_bf}))
    return rows


def run_span_parallelism(sizes=(64, 128, 256, 512), avg_degree=4,
                         seed=0) -> list[Row]:
    """E10: model span and parallelism (work/span) of the full solver."""
    rows = []
    for n in sizes:
        g = hidden_potential_graph(n, avg_degree * n, potential_spread=8,
                                   seed=seed)
        res = solve_sssp(g, 0, seed=seed)
        c: Cost = res.cost
        rows.append(Row(
            params={"n": n, "m": g.m},
            values={"work": c.work,
                    "span_model": c.span_model,
                    "parallelism": c.parallelism,
                    "m_quarter": g.m ** 0.25,
                    "parallelism_over_m_quarter":
                        c.parallelism / g.m ** 0.25}))
    return rows


def run_scaling_in_n(spreads=(2, 8, 32, 128, 512, 2048), n=100,
                     avg_degree=4, seed=0) -> list[Row]:
    """E11: scales and work vs weight magnitude N (claim: ~log N factor)."""
    rows = []
    for spread in spreads:
        g = hidden_potential_graph(n, avg_degree * n,
                                   potential_spread=spread, seed=seed)
        res = solve_sssp(g, 0, seed=seed)
        n_neg = int(max(0, -g.w.min()))
        rows.append(Row(
            params={"n": n, "m": g.m, "N": n_neg},
            values={"scales": len(res.stats.scales),
                    "log2_N": math.log2(max(n_neg, 1) + 1),
                    "total_iterations": res.stats.total_iterations,
                    "work": res.cost.work}))
    return rows


def run_negative_cycle_detection(sizes=(50, 100, 200), cycle_len=4,
                                 seed=0) -> list[Row]:
    """E12: cycle detection & certificate validity across graph sizes."""
    from ..graph.validate import validate_negative_cycle

    rows = []
    for n in sizes:
        g, planted = planted_negative_cycle_graph(n, 4 * n, cycle_len,
                                                  seed=seed)
        res = solve_sssp(g, 0, seed=seed)
        rows.append(Row(
            params={"n": n, "m": g.m, "cycle_len": cycle_len},
            values={"detected": res.has_negative_cycle,
                    "certificate_valid": bool(
                        res.has_negative_cycle and validate_negative_cycle(
                            g, res.negative_cycle)),
                    "reported_len": len(res.negative_cycle or [])}))
    return rows


def run_verification_retry(p_fails=(0.0, 0.05, 0.15, 0.3), rows_cols=(9, 9),
                           limit=20, seed=0) -> list[Row]:
    """E13: flaky-ASSSP failure probability vs retries (correctness held).

    Uses a weighted grid so true distances spread across the whole
    ``[0, limit]`` range — interval misassignments then actually corrupt
    the answer unless verification catches them.
    """
    from ..baselines.dijkstra import dijkstra
    from ..graph.generators import grid_graph

    rows = []
    g = grid_graph(*rows_cols, min_w=0, max_w=3, seed=seed)
    expected = dijkstra(g, 0, limit=limit).dist
    for p in p_fails:
        engine = get_engine("flaky", p_fail=p, seed=seed)
        res = limited_sssp(g, 0, limit, engine=engine, max_retries=2000)
        np.testing.assert_array_equal(res.dist, expected)
        rows.append(Row(
            params={"n": g.n, "m": g.m, "p_fail": p},
            values={"retries": res.retries,
                    "engine_calls": engine.calls,
                    "engine_failures": engine.failures,
                    "correct": True}))
    return rows


def run_fault_injection_sweep(rates=(0.0, 0.1, 0.3, 1.0), n=60, m=200,
                              graphs=8, seed=0) -> list[Row]:
    """E13b: end-to-end fault-rate sweep through the resilience harness.

    For each fault rate, every one of the four fault sites fires
    independently with that probability (one deterministic
    :class:`~repro.resilience.faults.FaultPlan` per graph), and
    ``solve_sssp_resilient`` must still match the Bellman–Ford oracle —
    by healing through retries when it can, and by degrading to the
    fallback when it cannot.  Rows report how often each recovery path
    was taken and how many faults actually fired.
    """
    from ..baselines.johnson import johnson_potential
    from ..core.sssp import solve_sssp_resilient
    from ..graph.validate import validate_negative_cycle
    from ..resilience import FaultPlan, RetryPolicy

    rows = []
    for rate in rates:
        fired = retries = fallbacks = cycles = 0
        for i in range(graphs):
            g = hidden_potential_graph(n, m, potential_spread=6,
                                       seed=derive_seed(seed, i))
            plan = FaultPlan.with_rate(rate, seed=derive_seed(seed, i, 1))
            res = solve_sssp_resilient(
                g, 0, seed=derive_seed(seed, i, 2), fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=3))
            if res.has_negative_cycle:
                assert validate_negative_cycle(g, res.negative_cycle)
                assert johnson_potential(g).negative_cycle is not None
                cycles += 1
            else:
                np.testing.assert_array_equal(res.dist,
                                              bellman_ford(g, 0).dist)
            fired += plan.fired()
            retries += res.provenance.retries
            fallbacks += int(res.provenance.used_fallback)
        rows.append(Row(
            params={"n": n, "m": m, "graphs": graphs, "fault_rate": rate},
            values={"faults_fired": fired,
                    "retries": retries,
                    "fallbacks": fallbacks,
                    "cycles": cycles,
                    "correct": True}))
    return rows


def run_cost_breakdown(sizes=(128, 512), avg_degree=4, seed=0) -> list[Row]:
    """A4: where the solver's work goes — per-stage shares of total work.

    Stages: reachability-based SCC (Step 1), §3 peeling (Step 2), §4
    chain elimination (Step 3), the final Dijkstra, and everything else
    (contraction, bookkeeping, scaling overhead).
    """
    from ..graph.generators import bf_hard_graph
    from ..runtime.metrics import CostAccumulator

    rows = []
    for n in sizes:
        g = bf_hard_graph(n, (avg_degree - 1) * n, seed=seed)
        acc = CostAccumulator()
        res = solve_sssp(g, 0, seed=seed, acc=acc)
        assert not res.has_negative_cycle
        total = acc.work
        staged = sum(c.work for c in acc.stages.values())
        values = {"total_work": total}
        for name, cost in sorted(acc.stages.items()):
            values[f"{name}_share"] = cost.work / total
        values["other_share"] = (total - staged) / total
        rows.append(Row(params={"n": n, "m": g.m}, values=values))
    return rows


def run_priority_ablation(layers=16, width=20, seed=3) -> list[Row]:
    """A1: §3.1's geometric priorities vs constant and uniform-random
    ones at ``L = layers``: same distances, different label changes."""
    from ..baselines.dag_relax import dag_limited_sssp_reference
    from ..runtime.rng import make_rng, priority_cap

    g = layered_dag(layers, width, p_negative=0.6, seed=seed)
    expected = dag_limited_sssp_reference(g, 0, layers)
    rng = make_rng(seed)
    variants = {
        "geometric": None,  # the algorithm draws its own
        "constant": np.ones(g.n, dtype=np.int64),
        "uniform": rng.integers(1, priority_cap(g.n) + 1, size=g.n),
    }
    rows = []
    for name, pri in variants.items():
        res = dag01_limited_sssp(g, 0, layers, seed=seed, priorities=pri)
        rows.append(Row(
            params={"priorities": name, "n": g.n},
            values={"work": res.cost.work,
                    "label_changes_total": int(res.label_changes.sum()),
                    "label_changes_max": int(res.label_changes.max()),
                    "reach_nodes": res.reach_node_total,
                    "correct": bool(np.array_equal(res.dist, expected))}))
    return rows


def run_assp_engine_ablation(n=200, m=1000, limit=14, seed=5) -> list[Row]:
    """A2: the ASSSP engine inside §4 LimitedSP — exact, perturbed,
    Δ-stepping and flaky — against Dijkstra's limited distances."""
    from ..baselines.dijkstra import dijkstra

    g = zero_heavy_digraph(n, m, p_zero=0.4, seed=seed)
    expected = dijkstra(g, 0, limit=limit).dist
    rows = []
    for name in ("exact", "perturbed", "delta-stepping", "flaky"):
        engine = (get_engine(name, seed=seed)
                  if name in ("perturbed", "flaky") else get_engine(name))
        res = limited_sssp(g, 0, limit, engine=engine, max_retries=500)
        rows.append(Row(
            params={"engine": name},
            values={"work": res.cost.work,
                    "span_model": res.cost.span_model,
                    "refine_calls": res.refine_calls,
                    "retries": res.retries,
                    "correct": bool(np.array_equal(res.dist, expected))}))
    return rows


def run_weighted_bfs_ablation(sizes=(200, 800), limit=12,
                              seed=1) -> list[Row]:
    """A3: LimitedSP vs weighted BFS (O(m + L) work, §1.2) on strictly
    positive weights."""
    from ..baselines.dijkstra import dijkstra
    from ..graph.generators import random_digraph
    from ..limited.weighted_bfs import weighted_bfs_limited

    rows = []
    for n in sizes:
        g = random_digraph(n, 5 * n, min_w=1, max_w=5, seed=seed)
        expected = dijkstra(g, 0, limit=limit).dist
        wbfs = weighted_bfs_limited(g, 0, limit)
        lsp = limited_sssp(g, 0, limit)
        rows.append(Row(
            params={"n": n, "m": g.m, "L": limit},
            values={"weighted_bfs_work": wbfs.cost.work,
                    "limited_sp_work": lsp.cost.work,
                    "overhead_factor":
                        lsp.cost.work / max(wbfs.cost.work, 1),
                    "correct": bool(np.array_equal(wbfs.dist, expected)
                                    and np.array_equal(lsp.dist, expected))}))
    return rows


def run_shortcut_tradeoff(n=2000, hub_counts=(2, 8, 32, 128),
                          seed=0) -> list[Row]:
    """A5: hub shortcuts on an n-vertex path: BFS rounds (span side)
    against added edges (work side), reachability unchanged."""
    from ..graph.digraph import DiGraph
    from ..reach.multisource import multisource_reachability
    from ..reach.shortcuts import build_hub_shortcuts

    g = DiGraph.from_edges(n, [(i, i + 1, 0) for i in range(n - 1)])
    base = multisource_reachability(g, np.array([0]))
    rows = [Row(params={"n": n, "hubs": 0},
                values={"bfs_rounds": base.rounds, "added_edges": 0,
                        "total_edges": g.m, "correct": True})]
    for hubs in hub_counts:
        sc = build_hub_shortcuts(g, hubs, seed=seed)
        res = multisource_reachability(sc.graph, np.array([0]))
        rows.append(Row(
            params={"n": n, "hubs": hubs},
            values={"bfs_rounds": res.rounds,
                    "added_edges": sc.added_edges,
                    "total_edges": sc.graph.m,
                    "correct": bool(np.array_equal(res.pi >= 0,
                                                   base.pi >= 0))}))
    return rows


def run_family_robustness(n: int = 400, seed=0) -> list[Row]:
    """E15: the solver on five structurally different graph families.

    Distances must match Bellman-Ford everywhere; work/span/parallelism
    show how instance structure moves the constants around.
    """
    from ..graph.generators import (
        bf_hard_graph,
        geometric_digraph,
        power_law_digraph,
    )

    families = {
        "hidden-potential": lambda: hidden_potential_graph(
            n, 4 * n, potential_spread=16, seed=seed),
        "bf-hard": lambda: bf_hard_graph(n, 3 * n, seed=seed),
        "geometric": lambda: geometric_digraph(n, seed=seed),
        "power-law": lambda: power_law_digraph(n, seed=seed),
        "layered-dagish": lambda: random_dag(
            n, 4 * n, weights=(-1, 0, 1, 3), seed=seed),
    }
    rows = []
    for name, build in families.items():
        g = build()
        res = solve_sssp(g, 0, seed=seed)
        bf = bellman_ford(g, 0)
        assert res.has_negative_cycle == bf.has_negative_cycle
        if not res.has_negative_cycle:
            np.testing.assert_array_equal(res.dist, bf.dist)
        rows.append(Row(
            params={"family": name, "n": g.n, "m": g.m},
            values={"neg_edges": int((g.w < 0).sum()),
                    "bf_rounds": bf.rounds,
                    "goldberg_work": res.cost.work,
                    "bf_work": bf.cost.work,
                    "work_ratio": bf.cost.work / max(res.cost.work, 1),
                    "parallelism": res.cost.parallelism,
                    "correct": True}))
    return rows


def run_wallclock(n: int = 300, repeats: int = 7, seed=0,
                  raw_out: dict | None = None) -> list[Row]:
    """E14: wall clock of every solver on one shared workload; the raw
    interleaved samples land in ``raw_out`` for the statistical gate."""
    from ..assp.engines import DeltaSteppingAssp, ExactAssp
    from ..baselines.dijkstra import dijkstra
    from ..baselines.johnson import johnson_potential

    g_neg = hidden_potential_graph(n, 4 * n, potential_spread=24, seed=seed)
    g_nonneg = zero_heavy_digraph(n, 5 * n, p_zero=0.4, seed=seed)
    parallel = get_sssp_engine("goldberg_parallel")
    sequential = get_sssp_engine("goldberg_sequential")
    workloads = [
        ("goldberg_parallel", g_neg, lambda: parallel.solve(g_neg, 0, seed=seed)),
        ("goldberg_sequential", g_neg, lambda: sequential.solve(g_neg, 0, seed=seed)),
        ("bellman_ford", g_neg, lambda: bellman_ford(g_neg, 0)),
        ("johnson", g_neg, lambda: johnson_potential(g_neg)),
        ("dijkstra", g_nonneg, lambda: dijkstra(g_nonneg, 0)),
        ("limited_exact", g_nonneg,
         lambda: limited_sssp(g_nonneg, 0, 12, engine=ExactAssp())),
        ("limited_delta_stepping", g_nonneg,
         lambda: limited_sssp(g_nonneg, 0, 12, engine=DeltaSteppingAssp())),
    ]
    for _, _, fn in workloads:
        fn()  # warm-up outside the measured rounds
    samples = _interleaved_samples([fn for _, _, fn in workloads], repeats)
    rows = [
        Row(params={"solver": name,
                    "graph": "neg" if g is g_neg else "nonneg",
                    "n": g.n, "m": g.m},
            values={"best_s": round(min(s), 4),
                    "median_s": round(sorted(s)[len(s) // 2], 4),
                    "samples": len(s)})
        for (name, g, _), s in zip(workloads, samples)]
    if raw_out is not None:
        raw_out.update(zip((name for name, _, _ in workloads), samples))
    return rows


def run_checkpoint_overhead(ns=(512, 1024, 2048),
                            repeats: int = 3) -> list[Row]:
    """E16: the cost of one hash-stamped checkpoint per scale level on
    the E09 family, measured directly (solver noise swamps a difference
    of two solve times): the ``on_checkpoint`` hook re-times each
    checkpoint's fsync'd atomic write to a scratch path, best of
    ``repeats``, and the fingerprint hash is timed standalone."""
    import pathlib
    import tempfile

    from ..graph.generators import bf_hard_graph
    from ..resilience.checkpoint import (
        checkpoint_fingerprint,
        load_checkpoint,
        save_checkpoint,
    )

    def best_seconds(fn):
        return min(_interleaved_samples([fn], repeats)[0])

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in ns:
            g = bf_hard_graph(n, 4 * n, potential_spread=8, seed=0)
            ck, scratch = (pathlib.Path(tmp) / f"e16_{n}.{ext}"
                           for ext in ("bin", "scratch"))

            solve_sssp(g, 0, seed=0)  # import/cache warm-up
            plain = best_seconds(lambda g=g: solve_sssp(g, 0, seed=0))
            fp = best_seconds(
                lambda g=g: checkpoint_fingerprint(g, g.w, mode="parallel",
                                                   eps=0.25, seed=0))
            saves: list[float] = []

            def timed_resave(checkpoint, scratch=scratch, saves=saves):
                saves.append(best_seconds(
                    lambda: save_checkpoint(str(scratch), checkpoint)))

            solve_sssp(g, 0, seed=0, checkpoint_path=str(ck),
                       on_checkpoint=timed_resave)
            added = fp + sum(saves)
            rows.append(Row(
                params={"n": n, "m": g.m},
                values={"plain_s": round(plain, 4),
                        "saves": len(saves),
                        "save_ms_total": round(1e3 * sum(saves), 3),
                        "ck_bytes": ck.stat().st_size,
                        "done": load_checkpoint(str(ck)).done,
                        "overhead_pct": round(100 * added / plain, 3)}))
    return rows


def _python_burn_block(lo: int, hi: int, weight: int) -> int:
    """A deliberately GIL-bound kernel: pure-Python arithmetic, no numpy.

    Module-level (hence picklable) so the process backend can ship it to
    workers; deterministic in ``(lo, hi)`` so any backend may re-execute
    or duplicate blocks and the results stay identical.
    """
    acc = 0
    for i in range(lo, hi):
        acc += (i * weight) % 1009
    return acc


def run_backend_scaling(n: int = 200_000, n_workers: int = 2, repeats: int = 5,
                        raw_out: dict | None = None) -> list[Row]:
    """E19: ``map_blocks`` throughput across the execution backends.

    The kernel is pure Python, so the thread rung is GIL-bound (its
    speedup over serial hovers near 1x) while the process rung can use
    real cores — the structural reason ``ProcessForkJoinPool`` exists.
    Results must be bit-identical across all three backends (that is
    the portable-contract claim the chaos suite leans on); wall-clock
    is measured best-of-``repeats`` with the pools pre-warmed so spawn
    cost is amortised, and raw samples land in ``raw_out`` (when given)
    for the statistical gate.
    """
    from ..runtime.backends import ProcessForkJoinPool, SerialBackend
    from ..runtime.executor import ForkJoinPool

    g = max(1, n // (4 * n_workers))
    backends = [
        ("serial", SerialBackend(grain=g)),
        ("thread", ForkJoinPool(n_workers, grain=g)),
        ("process", ProcessForkJoinPool(n_workers, grain=g)),
    ]
    rows = []
    try:
        outputs: dict[str, list] = {}
        samples: dict[str, list[float]] = {}
        for name, be in backends:
            run = partial(be.map_blocks, n, _python_burn_block, (3,))
            outputs[name] = run()  # warms the pool
            samples[name] = _interleaved_samples([run], repeats)[0]
        # thread and process share worker count + grain, hence the same
        # partition: their block lists must match exactly.  The serial
        # rung runs inline as one block, so compare its (associative,
        # integer) total instead.
        identical = (outputs["thread"] == outputs["process"]
                     and sum(outputs["serial"]) == sum(outputs["thread"]))
        serial_best = min(samples["serial"])
        for name, _ in backends:
            best = min(samples[name])
            rows.append(Row(
                params={"backend": name, "n": n, "workers": n_workers},
                values={"best_s": round(best, 4),
                        "speedup_vs_serial": round(serial_best / best, 3),
                        "blocks": len(outputs[name]),
                        "identical": identical}))
        if raw_out is not None:
            raw_out.update(samples)
    finally:
        for _, be in backends:
            be.shutdown()
    return rows


def run_engine_shootout(n: int = 300, seed=0, repeats: int = 3,
                        raw_out: dict | None = None) -> list[Row]:
    """E20: every registered SSSP engine on every graph family.

    The hard claim is the registry's contract: identical inputs give
    *bit-identical* distances on every engine (or agreeing, verified
    negative-cycle verdicts), because every engine ends in the same
    potential → reduced-Dijkstra → map-back tail.  Model costs are
    deterministic per engine (gated bit-exact by ``bench compare``);
    per-engine wall-clock samples land in ``raw_out`` for the INFO-only
    statistical track — the engines do very different amounts of real
    work, so absolute speed is reported, never asserted.
    """
    from ..core.engines import REFERENCE_ENGINE, engine_names, \
        get_sssp_engine
    from ..graph.generators import bf_hard_graph

    families = {
        "hidden-potential": lambda: hidden_potential_graph(
            n, 4 * n, potential_spread=16, seed=seed),
        "bf-hard": lambda: bf_hard_graph(n, 3 * n, seed=seed),
        "zero-heavy": lambda: zero_heavy_digraph(n, 4 * n, seed=seed),
        "planted-cycle": lambda: planted_negative_cycle_graph(
            n, 4 * n, 6, seed=seed)[0],
    }
    names = [REFERENCE_ENGINE] + [e for e in engine_names()
                                  if e != REFERENCE_ENGINE]
    rows = []
    samples: dict[str, list[float]] = {}
    for fam, build in families.items():
        g = build()
        reference = None
        for name in names:
            eng = get_sssp_engine(name)
            res = None
            key = f"{name}/{fam}"
            samples[key] = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                res = eng.solve(g, 0, seed=seed)
                samples[key].append(time.perf_counter() - t0)
            if reference is None:
                reference = res
            if res.has_negative_cycle:
                assert reference.has_negative_cycle, (name, fam)
                assert res.certificate.verify(g), (name, fam)
                agrees = True
            else:
                assert not reference.has_negative_cycle, (name, fam)
                agrees = bool(np.array_equal(reference.dist, res.dist))
            assert agrees, f"engine {name} diverged on {fam}"
            rows.append(Row(
                params={"engine": name, "family": fam,
                        "n": g.n, "m": g.m},
                values={"outcome": ("negative_cycle"
                                    if res.has_negative_cycle
                                    else "distances"),
                        "work": res.cost.work,
                        "span_model": res.cost.span_model,
                        "parallelism": round(res.cost.parallelism, 3),
                        "agrees": agrees}))
    if raw_out is not None:
        raw_out.update(samples)
    return rows


def _overhead_sweep(ns, repeats: int, variants: dict, capture,
                    raw_out: dict | None) -> list[Row]:
    """E17, E18 and E21's method: per instance of the E09 family,
    best-of-``repeats`` interleaved wall clock of the plain sequential
    solve, of ``disabled`` (a re-measure of it: its delta is timer noise
    and bounds what the no-op guards could cost) and of each of
    ``variants`` (name → context-manager factory around the solve), plus
    ``capture(eng, g)``'s deterministic columns from clean runs.  Raw
    samples of the largest instance land in ``raw_out`` when given."""
    from contextlib import nullcontext

    from ..graph.generators import bf_hard_graph

    eng = get_sssp_engine("goldberg_sequential")
    rows = []
    for n in ns:
        g = bf_hard_graph(n, 4 * n, potential_spread=8, seed=0)

        def run(scope=nullcontext, g=g):
            with scope():
                eng.solve(g, 0, seed=0)

        run()  # import/cache warm-up before the first sample
        samples = _interleaved_samples(
            [run, run, *(partial(run, s) for s in variants.values())],
            repeats)
        plain, *rest = (min(s) for s in samples)
        rows.append(Row(
            params={"n": n, "m": g.m},
            values={"plain_s": round(plain, 4),
                    **{f"{name}_pct": round(100 * (t - plain) / plain, 3)
                       for name, t in zip(["disabled", *variants], rest)},
                    **capture(eng, g)}))
        if raw_out is not None and n == max(ns):
            raw_out.update(plain=samples[0], **dict(zip(variants, samples[2:])))
    return rows


def run_trace_overhead(ns=(512, 1024, 2048), repeats: int = 13) -> list[Row]:
    """E17: an ambient ``Tracer`` (``enabled``); spans per solve."""
    from ..observability import Tracer, tracing

    def capture(eng, g):
        tr = Tracer()
        with tracing(tr):
            eng.solve(g, 0, seed=0)
        return {"spans": len(tr.spans)}

    return _overhead_sweep(ns, repeats, {"enabled": lambda: tracing(Tracer())},
                           capture, None)


def run_metrics_overhead(ns=(512, 1024, 2048), repeats: int = 13,
                         raw_out: dict | None = None) -> list[Row]:
    """E18: an ambient ``MetricsRegistry`` (``enabled``); the metric
    families a solve records."""
    from ..observability import MetricsRegistry, metering

    def capture(eng, g):
        reg = MetricsRegistry()
        with metering(reg):
            eng.solve(g, 0, seed=0)
        return {"metric_families": len(reg.state())}

    return _overhead_sweep(
        ns, repeats, {"enabled": lambda: metering(MetricsRegistry())},
        capture, raw_out)


def run_telemetry_overhead(ns=(1024, 2048, 4096), repeats: int = 13,
                           raw_out: dict | None = None) -> list[Row]:
    """E21: ``telemetry`` is an ambient ``Tracer`` and ``MetricsRegistry``
    with a live :class:`~repro.observability.http.TelemetryServer`
    scraped every 100 ms (~50x a production scrape loop; the first scrape
    waits one interval), ``profiler`` per-phase cProfile capture.  The
    deterministic columns come from captures without the live server, so
    its scrape counter cannot leak into bit-exact comparisons."""
    import threading
    import urllib.request
    from contextlib import contextmanager

    from ..observability import MetricsRegistry, Tracer, metering, tracing
    from ..observability.http import TelemetryServer
    from ..observability.profiler import PhaseProfiler, profiling

    # one server for the whole sweep, given each telemetry run's fresh
    # registry and tracer before the run, so live scrapes read (and count
    # repro_scrapes_total into) the registry the solve fills
    with TelemetryServer() as server:

        @contextmanager
        def live_telemetry():
            stop = threading.Event()

            def scrape():
                url = server.url("/metrics")
                while not stop.wait(0.1):
                    with urllib.request.urlopen(url, timeout=5) as r:
                        r.read()

            th = threading.Thread(target=scrape, daemon=True)
            server.registry, server.tracer = MetricsRegistry(), Tracer()
            with tracing(server.tracer), metering(server.registry):
                th.start()
                try:
                    yield
                finally:
                    stop.set()
                    th.join()

        def capture(eng, g):
            reg, tr, prof = MetricsRegistry(), Tracer(), PhaseProfiler()
            with tracing(tr), metering(reg):
                eng.solve(g, 0, seed=0)
            with profiling(prof):
                eng.solve(g, 0, seed=0)
            return {"metric_families": len(reg.state()),
                    "spans_closed": tr.cursor(),
                    "profiled_phases": len(prof.to_json()["phases"])}

        return _overhead_sweep(
            ns, repeats, {"telemetry": live_telemetry,
                          "profiler": lambda: profiling(PhaseProfiler())},
            capture, raw_out)
