"""Integration tests: realistic multi-module workflows at larger scale."""

import numpy as np
import pytest

from repro import DiGraph, dag01_limited_sssp, limited_sssp, solve_sssp
from repro.assp import DeltaSteppingAssp, HopsetAssp, PerturbedAssp
from repro.baselines import bellman_ford, dijkstra, johnson_potential
from repro.graph import (
    bf_hard_graph,
    dumps_dimacs,
    grid_graph,
    hidden_potential_graph,
    is_feasible_price,
    layered_dag,
    loads_dimacs,
    planted_negative_cycle_graph,
    random_digraph,
    validate_negative_cycle,
    zero_heavy_digraph,
)
from repro.runtime import CostAccumulator


class TestDimacsWorkflow:
    """Generate → serialise → parse → solve → verify, like a CLI user."""

    def test_feasible_roundtrip(self):
        g = hidden_potential_graph(80, 400, potential_spread=20, seed=11)
        g2 = loads_dimacs(dumps_dimacs(g))
        res = solve_sssp(g2, 0, seed=11)
        assert not res.has_negative_cycle
        np.testing.assert_array_equal(res.dist, bellman_ford(g, 0).dist)
        assert is_feasible_price(g2, res.price)

    def test_cycle_roundtrip(self):
        g, _ = planted_negative_cycle_graph(60, 300, 5, seed=12)
        g2 = loads_dimacs(dumps_dimacs(g))
        res = solve_sssp(g2, 0, seed=12)
        assert res.has_negative_cycle
        assert validate_negative_cycle(g2, res.negative_cycle)


class TestLargerInstances:
    def test_bf_hard_1500(self):
        g = bf_hard_graph(1500, 4500, seed=13)
        res = solve_sssp(g, 0, seed=13)
        bf = bellman_ford(g, 0)
        np.testing.assert_array_equal(res.dist, bf.dist)
        # model work advantage should already be visible at this size
        assert res.cost.work < bf.cost.work * 1.3

    def test_dense_negative_2000_edges(self):
        g = hidden_potential_graph(250, 2000, potential_spread=40, seed=14)
        res = solve_sssp(g, 0, seed=14)
        np.testing.assert_array_equal(res.dist, bellman_ford(g, 0).dist)

    def test_deep_dag_peeling_800(self):
        g = layered_dag(40, 20, p_negative=0.7, seed=15)
        res = dag01_limited_sssp(g, 0, 40, seed=15)
        from repro.baselines import dag_limited_sssp_reference

        np.testing.assert_array_equal(
            res.dist, dag_limited_sssp_reference(g, 0, 40))

    def test_limited_sssp_grid_400(self):
        g = grid_graph(20, 20, min_w=0, max_w=3, seed=16)
        res = limited_sssp(g, 0, 25)
        np.testing.assert_array_equal(res.dist,
                                      dijkstra(g, 0, limit=25).dist)


class TestEngineModeMatrix:
    """Every ASSSP engine × both solver modes on one shared instance."""

    ENGINES = [None, PerturbedAssp(seed=1), DeltaSteppingAssp(),
               HopsetAssp(seed=1)]

    @pytest.mark.parametrize("engine", ENGINES,
                             ids=["exact", "perturbed", "delta", "hopset"])
    def test_engines_parallel_mode(self, engine):
        g = hidden_potential_graph(60, 280, potential_spread=15, seed=17)
        res = solve_sssp(g, 0, assp_engine=engine, seed=17)
        np.testing.assert_array_equal(res.dist, bellman_ford(g, 0).dist)

    def test_mode_equivalence_on_cycles(self):
        for seed in range(4):
            g = random_digraph(30, 120, min_w=-3, max_w=6, seed=100 + seed)
            rp = solve_sssp(g, 0, seed=seed)
            rs = solve_sssp(g, 0, engine="goldberg_sequential", seed=seed)
            assert rp.has_negative_cycle == rs.has_negative_cycle
            oracle = johnson_potential(g)
            assert rp.has_negative_cycle == (oracle.negative_cycle
                                             is not None)


class TestCostLedgerConsistency:
    def test_stage_costs_sum_below_total(self):
        g = bf_hard_graph(200, 600, seed=18)
        acc = CostAccumulator()
        solve_sssp(g, 0, seed=18, acc=acc)
        staged = sum(c.work for c in acc.stages.values())
        assert 0 < staged <= acc.work
        assert {"scc", "dag01", "final-dijkstra"} <= set(acc.stages)

    def test_accumulator_matches_result_cost(self):
        g = hidden_potential_graph(50, 220, seed=19)
        acc = CostAccumulator()
        res = solve_sssp(g, 0, seed=19, acc=acc)
        assert acc.work == res.cost.work
        assert acc.span_model == res.cost.span_model

    def test_work_dominates_span(self):
        g = hidden_potential_graph(50, 220, seed=20)
        res = solve_sssp(g, 0, seed=20)
        assert res.cost.work >= res.cost.span_model


class TestDeterminism:
    def test_same_seed_same_everything(self):
        g = random_digraph(40, 160, min_w=-2, max_w=6, seed=21)
        a = solve_sssp(g, 0, seed=7)
        b = solve_sssp(g, 0, seed=7)
        assert a.has_negative_cycle == b.has_negative_cycle
        if not a.has_negative_cycle:
            np.testing.assert_array_equal(a.dist, b.dist)
            np.testing.assert_array_equal(a.price, b.price)
        else:
            assert a.negative_cycle == b.negative_cycle
        assert a.cost.work == b.cost.work

    def test_different_seeds_same_answer(self):
        g = hidden_potential_graph(40, 180, seed=22)
        expected = bellman_ford(g, 0).dist
        for seed in range(5):
            np.testing.assert_array_equal(
                solve_sssp(g, 0, seed=seed).dist, expected)


class TestWeightExtremes:
    def test_huge_negative_weights(self):
        g = hidden_potential_graph(30, 140, potential_spread=100_000,
                                   seed=23)
        res = solve_sssp(g, 0, seed=23)
        np.testing.assert_array_equal(res.dist, bellman_ford(g, 0).dist)
        assert len(res.stats.scales) >= 15  # ~log2(1e5)

    def test_minus_one_exactly(self):
        g = random_digraph(30, 140, min_w=-1, max_w=3, seed=24)
        res = solve_sssp(g, 0, seed=24)
        oracle = johnson_potential(g)
        if oracle.negative_cycle is None:
            assert len(res.stats.scales) == 1  # no scaling needed
            np.testing.assert_array_equal(res.dist, bellman_ford(g, 0).dist)

    def test_all_zero_weights(self):
        g = random_digraph(20, 80, min_w=0, max_w=0, seed=25)
        res = solve_sssp(g, 0)
        d = res.dist
        reached = np.isfinite(d)
        assert (d[reached] == 0).all()

    def test_weight_asymmetry(self):
        # single very negative edge in an otherwise positive graph
        g = random_digraph(25, 100, min_w=1, max_w=5, seed=26)
        w = g.w.copy()
        w[0] = -1000
        g = g.with_weights(w)
        res = solve_sssp(g, 0, seed=26)
        oracle = johnson_potential(g)
        if oracle.negative_cycle is not None:
            assert res.has_negative_cycle
        else:
            np.testing.assert_array_equal(res.dist, bellman_ford(g, 0).dist)
