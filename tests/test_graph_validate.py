"""Tests for certificate validation and topological utilities."""

import numpy as np
import pytest

from repro.assp.engines import DeltaSteppingAssp
from repro.baselines import (
    bellman_ford,
    bellman_ford_parallel,
    bellman_ford_threaded,
    dag_sssp,
    dijkstra,
)
from repro.dag01 import dag01_limited_sssp
from repro.dag01.naive import dag01_limited_sssp_naive
from repro.graph import (
    DiGraph,
    check_distances,
    cycle_weight,
    is_dag,
    is_feasible_price,
    min_reduced_weight,
    topological_order,
    validate_negative_cycle,
)
from repro.graph.generators import random_dag, random_digraph
from repro.limited import limited_sssp
from repro.limited.weighted_bfs import weighted_bfs_limited
from repro.resilience.errors import InputValidationError
from repro.runtime import SerialBackend


class TestFeasiblePrice:
    def test_zero_price_nonneg_graph(self):
        g = DiGraph.from_edges(2, [(0, 1, 3)])
        assert is_feasible_price(g, np.zeros(2))

    def test_zero_price_negative_edge(self):
        g = DiGraph.from_edges(2, [(0, 1, -3)])
        assert not is_feasible_price(g, np.zeros(2))

    def test_fixing_price(self):
        g = DiGraph.from_edges(2, [(0, 1, -3)])
        assert is_feasible_price(g, np.array([0, -3]))

    def test_empty_graph(self):
        g = DiGraph.from_edges(3, [])
        assert is_feasible_price(g, np.zeros(3))

    def test_length_check(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            is_feasible_price(g, np.zeros(3))

    def test_min_reduced_weight(self):
        g = DiGraph.from_edges(2, [(0, 1, -3), (1, 0, 5)])
        assert min_reduced_weight(g, np.array([0, -2])) == -1

    def test_min_reduced_weight_empty(self):
        assert min_reduced_weight(DiGraph.from_edges(1, []), np.zeros(1)) == 0


class TestCycles:
    def test_cycle_weight(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -4), (2, 0, 2)])
        assert cycle_weight(g, [0, 1, 2]) == -1

    def test_cycle_weight_uses_min_parallel_edge(self):
        g = DiGraph.from_edges(2, [(0, 1, 5), (0, 1, 1), (1, 0, 0)])
        assert cycle_weight(g, [0, 1]) == 1

    def test_missing_edge_raises(self):
        g = DiGraph.from_edges(3, [(0, 1, 1)])
        with pytest.raises(ValueError):
            cycle_weight(g, [0, 2])

    def test_empty_cycle_raises(self):
        g = DiGraph.from_edges(1, [])
        with pytest.raises(ValueError):
            cycle_weight(g, [])

    def test_self_loop_cycle(self):
        g = DiGraph.from_edges(1, [(0, 0, -2)])
        assert cycle_weight(g, [0]) == -2
        assert validate_negative_cycle(g, [0])

    def test_validate_negative_cycle(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -4), (2, 0, 2)])
        assert validate_negative_cycle(g, [0, 1, 2])
        assert validate_negative_cycle(g, [1, 2, 0])  # rotation ok
        assert not validate_negative_cycle(g, [0, 1])  # not a closed walk

    def test_validate_nonnegative_cycle(self):
        g = DiGraph.from_edges(2, [(0, 1, 1), (1, 0, 0)])
        assert not validate_negative_cycle(g, [0, 1])


class TestTopological:
    def test_dag(self):
        g = DiGraph.from_edges(4, [(0, 1, 0), (0, 2, 0), (1, 3, 0),
                                   (2, 3, 0)])
        assert is_dag(g)
        order = topological_order(g)
        pos = {int(v): i for i, v in enumerate(order)}
        for u, v, _ in g.edges():
            assert pos[u] < pos[v]

    def test_cycle_detected(self):
        g = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        assert not is_dag(g)
        assert topological_order(g) is None

    def test_self_loop_not_dag(self):
        g = DiGraph.from_edges(2, [(0, 0, 0)])
        assert not is_dag(g)

    def test_empty_graph_is_dag(self):
        assert is_dag(DiGraph.from_edges(0, []))
        assert is_dag(DiGraph.from_edges(5, []))

    def test_isolated_vertices_in_order(self):
        g = DiGraph.from_edges(5, [(1, 2, 0)])
        order = topological_order(g)
        assert sorted(order.tolist()) == [0, 1, 2, 3, 4]


class TestCheckDistances:
    def test_valid_distances(self):
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, 3), (0, 2, 10)])
        assert check_distances(g, 0, np.array([0.0, 2.0, 5.0]))

    def test_unreachable_inf_ok(self):
        g = DiGraph.from_edges(3, [(0, 1, 2)])
        assert check_distances(g, 0, np.array([0.0, 2.0, np.inf]))

    def test_wrong_source_distance(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        assert not check_distances(g, 0, np.array([1.0, 2.0]))

    def test_relaxable_edge_fails(self):
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        assert not check_distances(g, 0, np.array([0.0, 2.0, 9.0]))

    def test_unattained_distance_fails(self):
        g = DiGraph.from_edges(2, [(0, 1, 5)])
        assert not check_distances(g, 0, np.array([0.0, 4.0]))

    def test_negative_weights_supported(self):
        g = DiGraph.from_edges(3, [(0, 1, 5), (1, 2, -3), (0, 2, 3)])
        assert check_distances(g, 0, np.array([0.0, 5.0, 2.0]))


NONNEG = random_digraph(20, 60, min_w=0, max_w=5, seed=1)
POSITIVE = random_digraph(20, 60, min_w=1, max_w=5, seed=1)
DAG01 = random_dag(20, 60, seed=1)

# entry point -> (graph, call returning the distance array)
SOURCE_ENTRY_POINTS = {
    "bellman_ford": (NONNEG, lambda g, s: bellman_ford(g, s).dist),
    "bellman_ford_parallel": (NONNEG, lambda g, s: bellman_ford_parallel(
        g, s, backend=SerialBackend(grain=8), grain=8).dist),
    "bellman_ford_threaded": (NONNEG, lambda g, s: bellman_ford_threaded(
        g, s, pool=SerialBackend(grain=8), grain=8).dist),
    "dijkstra": (NONNEG, lambda g, s: dijkstra(g, s).dist),
    "dag_sssp": (DAG01, lambda g, s: dag_sssp(g, s).dist),
    "limited_sssp": (NONNEG, lambda g, s: limited_sssp(g, s, 6).dist),
    "DeltaSteppingAssp": (NONNEG,
                          lambda g, s: DeltaSteppingAssp()(g, s, 0.0)),
    "weighted_bfs_limited": (POSITIVE,
                             lambda g, s: weighted_bfs_limited(g, s, 6).dist),
    "dag01_limited_sssp": (DAG01,
                           lambda g, s: dag01_limited_sssp(g, s, 3).dist),
    "dag01_limited_sssp_naive": (
        DAG01, lambda g, s: dag01_limited_sssp_naive(g, s, 3).dist),
}


class TestLibrarySourceCheck:
    """Every library entry point reads its source like ``solve_sssp``:
    integral floats and bools are their int value; fractional, NaN and
    out-of-range sources raise before any numpy indexing."""

    @pytest.mark.parametrize("source", [1.5, 2.0, True, float("nan"), -1,
                                        "n"])
    @pytest.mark.parametrize("entry", sorted(SOURCE_ENTRY_POINTS))
    def test_source_is_checked(self, entry, source):
        g, call = SOURCE_ENTRY_POINTS[entry]
        if source == "n":
            source = g.n
        if source in (2.0, True):
            np.testing.assert_array_equal(call(g, source),
                                          call(g, int(source)))
        else:
            with pytest.raises(InputValidationError, match="source"):
                call(g, source)
