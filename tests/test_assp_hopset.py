"""Tests for the hub-sampling hopset ASSSP engine and weighted BFS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assp import HopsetAssp, get_engine
from repro.baselines import dijkstra
from repro.graph import (
    DiGraph,
    grid_graph,
    random_digraph,
    zero_heavy_digraph,
)
from repro.limited import limited_sssp, weighted_bfs_limited
from repro.resilience import RetryPolicy
from repro.runtime import CostAccumulator


class TestHopsetContract:
    @pytest.mark.parametrize("seed", range(6))
    def test_never_underestimates(self, seed):
        g = random_digraph(50, 250, min_w=0, max_w=6, seed=seed)
        d = HopsetAssp(seed=seed)(g, 0, 0.2)
        exact = dijkstra(g, 0).dist
        assert (d >= exact - 1e-9).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_whp_with_default_oversample(self, seed):
        g = random_digraph(50, 250, min_w=0, max_w=6, seed=seed)
        d = HopsetAssp(seed=seed)(g, 0, 0.2)
        np.testing.assert_allclose(d, dijkstra(g, 0).dist)

    def test_source_is_zero(self):
        g = random_digraph(20, 80, min_w=1, max_w=5, seed=1)
        assert HopsetAssp(seed=0)(g, 0, 0.2)[0] == 0

    def test_unreachable_inf(self):
        g = DiGraph.from_edges(3, [(0, 1, 2)])
        d = HopsetAssp(seed=0)(g, 0, 0.2)
        assert d[2] == np.inf

    def test_zero_weights_supported(self):
        g = zero_heavy_digraph(30, 150, p_zero=0.6, seed=2)
        d = HopsetAssp(seed=2)(g, 0, 0.2)
        assert (d >= dijkstra(g, 0).dist - 1e-9).all()

    def test_rejects_negative(self):
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        with pytest.raises(ValueError):
            HopsetAssp()(g, 0, 0.2)

    def test_high_diameter_grid(self):
        g = grid_graph(7, 7, min_w=1, max_w=3, seed=0)
        d = HopsetAssp(seed=0)(g, 0, 0.2)
        np.testing.assert_allclose(d, dijkstra(g, 0).dist)

    def test_undersampled_can_fail_but_only_upward(self):
        """With oversample << 1 sampling failures appear organically —
        estimates drift upward, never downward."""
        overestimates = 0
        for seed in range(8):
            g = grid_graph(6, 6, min_w=1, max_w=3, seed=seed)
            d = HopsetAssp(seed=seed, oversample=0.1, beta=3)(g, 0, 0.2)
            exact = dijkstra(g, 0).dist
            assert (d >= exact - 1e-9).all()
            if not np.array_equal(d, exact):
                overestimates += 1
        assert overestimates >= 1  # failures do occur at this rate

    def test_oracle_cost_charged(self):
        g = random_digraph(40, 160, min_w=1, max_w=4, seed=3)
        acc = CostAccumulator()
        HopsetAssp(seed=3)(g, 0, 0.2, acc=acc)
        assert acc.work > 0 and acc.span_model > 0

    def test_factory(self):
        eng = get_engine("hopset", seed=7, oversample=3.0)
        assert eng.name == "hopset" and eng.oversample == 3.0

    def test_inside_limited_sssp(self):
        g = zero_heavy_digraph(35, 180, p_zero=0.4, seed=4)
        res = limited_sssp(g, 0, 9, engine=HopsetAssp(seed=4),
                           retry_policy=RetryPolicy(max_attempts=101))
        np.testing.assert_array_equal(res.dist,
                                      dijkstra(g, 0, limit=9).dist)

    def test_inside_limited_sssp_undersampled(self):
        """Organic hopset failures are caught by §4.2 verification."""
        g = grid_graph(6, 6, min_w=1, max_w=3, seed=5)
        engine = HopsetAssp(seed=5, oversample=0.3, beta=3)
        res = limited_sssp(g, 0, 14, engine=engine,
                           retry_policy=RetryPolicy(max_attempts=2001))
        np.testing.assert_array_equal(res.dist,
                                      dijkstra(g, 0, limit=14).dist)


class TestWeightedBfs:
    def test_simple_chain(self):
        g = DiGraph.from_edges(4, [(0, 1, 2), (1, 2, 1), (2, 3, 4)])
        res = weighted_bfs_limited(g, 0, 3)
        assert res.dist.tolist() == [0, 2, 3, np.inf]
        assert res.parent.tolist() == [-1, 0, 1, -1]

    def test_limit_zero(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        res = weighted_bfs_limited(g, 0, 0)
        assert res.dist.tolist() == [0, np.inf]

    def test_rejects_zero_weights(self):
        g = DiGraph.from_edges(2, [(0, 1, 0)])
        with pytest.raises(ValueError, match="strictly positive"):
            weighted_bfs_limited(g, 0, 3)

    def test_rejects_negative_limit(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            weighted_bfs_limited(g, 0, -1)

    def test_parent_tree_consistent(self):
        g = random_digraph(40, 200, min_w=1, max_w=4, seed=6)
        res = weighted_bfs_limited(g, 0, 12)
        for v in range(g.n):
            p = int(res.parent[v])
            if p >= 0:
                assert res.dist[v] == res.dist[p] + g.min_weight_between(p, v)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dijkstra(self, seed):
        g = random_digraph(45, 220, min_w=1, max_w=6, seed=seed)
        for limit in (1, 4, 10, 25):
            got = weighted_bfs_limited(g, 0, limit).dist
            expect = dijkstra(g, 0, limit=limit).dist
            np.testing.assert_array_equal(got, expect)

    @given(st.integers(0, 5000), st.integers(0, 15))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_dijkstra(self, seed, limit):
        g = random_digraph(18, 70, min_w=1, max_w=4, seed=seed)
        got = weighted_bfs_limited(g, 0, limit).dist
        np.testing.assert_array_equal(got, dijkstra(g, 0, limit=limit).dist)

    def test_work_linear_in_edges(self):
        """Each edge is expanded exactly once: work O(n + m + L)."""
        g = random_digraph(100, 800, min_w=1, max_w=3, seed=7)
        res = weighted_bfs_limited(g, 0, 50)
        assert res.cost.work < 12 * (g.m + g.n + 50)

    def test_span_linear_in_limit(self):
        g = DiGraph.from_edges(6, [(i, i + 1, 3) for i in range(5)])
        r_small = weighted_bfs_limited(g, 0, 3)
        r_big = weighted_bfs_limited(g, 0, 15)
        assert r_big.cost.span > r_small.cost.span
