"""Tests for baseline algorithms (which serve as oracles elsewhere)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    bellman_ford,
    bellman_ford_distance_only,
    dag_limited_sssp_reference,
    dag_sssp,
    dijkstra,
    johnson_potential,
)
from repro.baselines.dijkstra import dijkstra_from_labels
from repro.graph import (
    DiGraph,
    hidden_potential_graph,
    is_feasible_price,
    random_dag,
    random_digraph,
    validate_negative_cycle,
)
from repro.resilience.errors import InputValidationError
from repro.runtime.metrics import Cost, CostAccumulator
from oracles import nx_sssp_oracle


class TestBellmanFord:
    def test_diamond(self, diamond):
        res = bellman_ford(diamond, 0)
        assert res.dist.tolist() == [0, 1, 4, 3]
        assert not res.has_negative_cycle

    def test_unreachable_inf(self):
        g = DiGraph.from_edges(3, [(0, 1, 1)])
        res = bellman_ford(g, 0)
        assert res.dist[2] == np.inf

    def test_negative_edges_no_cycle(self):
        g = DiGraph.from_edges(4, [(0, 1, 5), (1, 2, -7), (0, 2, 1),
                                   (2, 3, 2)])
        res = bellman_ford(g, 0)
        assert res.dist.tolist() == [0, 5, -2, 0]

    def test_parent_tree_consistent(self):
        g = random_digraph(30, 150, min_w=1, max_w=9, seed=0)
        res = bellman_ford(g, 0)
        for v in range(g.n):
            p = int(res.parent[v])
            if p >= 0:
                assert res.dist[v] == res.dist[p] + g.min_weight_between(p, v)

    def test_negative_cycle_detection(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -3), (2, 1, 1)])
        res = bellman_ford(g, 0)
        assert res.has_negative_cycle
        assert validate_negative_cycle(g, res.negative_cycle)

    def test_negative_self_loop(self):
        g = DiGraph.from_edges(2, [(0, 1, 0), (1, 1, -1)])
        res = bellman_ford(g, 0)
        assert res.has_negative_cycle
        assert validate_negative_cycle(g, res.negative_cycle)

    def test_unreachable_negative_cycle_ignored(self):
        # cycle exists but is not reachable from source 0
        g = DiGraph.from_edges(4, [(0, 1, 1), (2, 3, -5), (3, 2, 1)])
        res = bellman_ford(g, 0)
        assert not res.has_negative_cycle
        assert res.dist[1] == 1

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            bellman_ford(DiGraph.from_edges(2, []), 5)

    def test_cost_charged(self):
        g = random_digraph(20, 80, seed=1)
        res = bellman_ford(g, 0)
        assert res.cost.work >= g.m  # at least one relaxation round

    def test_distance_only_round_limit(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        d = bellman_ford_distance_only(g, 0, max_rounds=1)
        assert d.tolist() == [0, 1, np.inf]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx_random(self, seed):
        g = random_digraph(25, 120, min_w=-3, max_w=8, seed=seed)
        expected, has_cycle = nx_sssp_oracle(g, 0)
        res = bellman_ford(g, 0)
        if has_cycle:
            assert res.has_negative_cycle
            assert validate_negative_cycle(g, res.negative_cycle)
        else:
            assert not res.has_negative_cycle
            np.testing.assert_array_equal(res.dist, expected)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_hidden_potential_never_cyclic(self, seed):
        g = hidden_potential_graph(15, 60, seed=seed)
        assert not bellman_ford(g, 0).has_negative_cycle


class TestDijkstra:
    def test_basic(self):
        g = DiGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (0, 2, 5),
                                   (2, 3, 1)])
        res = dijkstra(g, 0)
        assert res.dist.tolist() == [0, 1, 3, 4]
        assert res.parent.tolist() == [-1, 0, 1, 2]

    def test_rejects_negative(self):
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        with pytest.raises(ValueError):
            dijkstra(g, 0)

    def test_limit(self):
        g = DiGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 10)])
        res = dijkstra(g, 0, limit=3)
        assert res.dist.tolist() == [0, 1, 3, np.inf]

    def test_limit_exact_boundary(self):
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, 1)])
        res = dijkstra(g, 0, limit=3)
        assert res.dist[2] == 3  # <= limit stays

    def test_zero_weight_edges(self):
        g = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)])
        res = dijkstra(g, 0)
        assert res.dist.tolist() == [0, 0, 0]

    def test_huge_weight_needs_no_bucket_per_distance(self):
        # Dial's array of max_w·(n−1)+1 buckets would hold 2^41 lists here
        g = DiGraph.from_edges(3, [(0, 1, 2 ** 40), (1, 2, 1)])
        res = dijkstra(g, 0)
        assert res.dist.tolist() == [0, 2 ** 40, 2 ** 40 + 1]
        assert res.parent.tolist() == [-1, 0, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bellman_ford(self, seed):
        g = random_digraph(40, 200, min_w=0, max_w=9, seed=seed)
        d1 = dijkstra(g, 0).dist
        d2 = bellman_ford(g, 0).dist
        np.testing.assert_array_equal(d1, d2)

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            dijkstra(DiGraph.from_edges(2, []), -1)

    @pytest.mark.parametrize("weights", [[1, 2, 3], [1], [1.5, 2.0]],
                             ids=["long", "short", "fractional"])
    def test_rejects_bad_weights(self, weights):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)])
        with pytest.raises(InputValidationError, match="weights"):
            dijkstra(g, 0, weights=np.array(weights))

    def test_weights_override_is_not_capped(self):
        # the 2^53 cap bounds input weights, not the reduced weights the
        # certified tail hands over
        g = DiGraph.from_edges(2, [(0, 1, 0)])
        big = np.array([2 ** 60], dtype=np.int64)
        assert dijkstra(g, 0, weights=big).dist[1] == float(2 ** 60)
        assert dijkstra(g, 0, weights=big.astype(np.float64)).dist[1] \
            == float(2 ** 60)

    @pytest.mark.parametrize("n_labels", [2, 4])
    def test_labels_must_match_vertex_count(self, n_labels):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)])
        with pytest.raises(InputValidationError, match="label"):
            dijkstra_from_labels(g, np.zeros(n_labels, dtype=np.int64))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.5],
                             ids=["inf", "-inf", "nan", "fractional"])
    def test_rejects_labels_that_are_not_integers(self, bad):
        # an unchecked int64 cast turns inf and NaN into -2^63, which then
        # reaches every vertex, and 0.5 into 0
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)])
        acc = CostAccumulator()
        with pytest.raises(InputValidationError, match="labels"):
            dijkstra_from_labels(g, np.array([bad, 5.0, 5.0]), acc)
        assert acc.snapshot() == Cost()

    def test_accepts_integral_float_labels(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)])
        got = dijkstra_from_labels(g, np.array([0.0, 5.0, 5.0]))
        assert got.dtype == np.int64 and got.tolist() == [0, 1, 3]

    def test_rejects_nan_limit(self):
        # a NaN limit compares false everywhere, so it would be ignored
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)])
        with pytest.raises(InputValidationError, match="limit"):
            dijkstra(g, 0, limit=float("nan"))


class TestDagSssp:
    def test_negative_weights_on_dag(self):
        g = DiGraph.from_edges(4, [(0, 1, -1), (1, 2, -1), (0, 2, -3),
                                   (2, 3, 0)])
        res = dag_sssp(g, 0)
        assert res.dist.tolist() == [0, -1, -3, -3]

    def test_rejects_cyclic(self):
        g = DiGraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
        with pytest.raises(InputValidationError, match="acyclic"):
            dag_sssp(g, 0)

    def test_source_out_of_range(self):
        with pytest.raises(InputValidationError, match="source"):
            dag_sssp(DiGraph.from_edges(2, []), 2)

    @pytest.mark.parametrize("weights", [[1, 2, 3], [1], [1.5, 2.0]],
                             ids=["long", "short", "fractional"])
    def test_rejects_bad_weights(self, weights):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)])
        with pytest.raises(InputValidationError, match="weights"):
            dag_sssp(g, 0, weights=np.array(weights))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bellman_ford_on_dags(self, seed):
        g = random_dag(30, 120, weights=(-1, 0, 2, 5), seed=seed)
        d1 = dag_sssp(g, 0).dist
        d2 = bellman_ford(g, 0).dist
        np.testing.assert_array_equal(d1, d2)

    def test_limited_reference_clamps(self):
        g = DiGraph.from_edges(4, [(0, 1, -1), (1, 2, -1), (2, 3, -1)])
        d = dag_limited_sssp_reference(g, 0, limit=2)
        assert d.tolist() == [0, -1, -2, -np.inf]


class TestJohnson:
    def test_feasible_on_negative_graph(self):
        g = DiGraph.from_edges(3, [(0, 1, -2), (1, 2, -3)])
        res = johnson_potential(g)
        assert res.negative_cycle is None
        assert is_feasible_price(g, res.price)

    def test_detects_cycle_anywhere(self):
        # cycle not reachable from vertex 0 — Johnson still finds it
        g = DiGraph.from_edges(4, [(0, 1, 1), (2, 3, -5), (3, 2, 1)])
        res = johnson_potential(g)
        assert res.negative_cycle is not None
        assert validate_negative_cycle(g, res.negative_cycle)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_feasibility(self, seed):
        g = hidden_potential_graph(30, 150, seed=seed)
        res = johnson_potential(g)
        assert res.price is not None
        assert is_feasible_price(g, res.price)
