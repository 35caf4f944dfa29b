"""Tests for the extension APIs (APSP, DAG longest paths, difference
constraints) and the extra baseline (Bellman–Ford on threads)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    bellman_ford,
    bellman_ford_parallel,
)
from repro.core import (
    all_pairs_shortest_paths,
    dag_longest_paths,
    engine_names,
    solve_difference_constraints,
)
from repro.graph import (
    DiGraph,
    hidden_potential_graph,
    negative_chain_gadget,
    planted_negative_cycle_graph,
    random_dag,
    validate_negative_cycle,
)
from repro.observability import Tracer, tracing
from repro.resilience import InputValidationError
from repro.runtime import CostAccumulator, ForkJoinPool


class TestAllPairs:
    def test_small(self):
        g = DiGraph.from_edges(3, [(0, 1, 4), (1, 2, -7), (0, 2, 1)])
        res = all_pairs_shortest_paths(g)
        assert not res.has_negative_cycle
        np.testing.assert_array_equal(
            res.dist, [[0, 4, -3], [np.inf, 0, -7], [np.inf, np.inf, 0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_source_bellman_ford(self, seed):
        g = hidden_potential_graph(18, 80, seed=seed)
        res = all_pairs_shortest_paths(g, seed=seed)
        for s in range(g.n):
            np.testing.assert_array_equal(res.dist[s],
                                          bellman_ford(g, s).dist)

    def test_every_engine_gives_the_same_dist(self):
        g = hidden_potential_graph(18, 80, seed=4)
        ref = all_pairs_shortest_paths(g, seed=4)
        for engine in engine_names():
            res = all_pairs_shortest_paths(g, engine=engine, seed=4)
            np.testing.assert_array_equal(res.dist, ref.dist)

    def test_sources_subset(self):
        g = hidden_potential_graph(15, 60, seed=1)
        res = all_pairs_shortest_paths(g, sources=np.array([3, 7]))
        assert res.dist.shape == (2, 15)
        np.testing.assert_array_equal(res.dist[0], bellman_ford(g, 3).dist)
        np.testing.assert_array_equal(res.dist[1], bellman_ford(g, 7).dist)

    @pytest.mark.parametrize("sources", [[15], [-1], [1.5], [[1, 2]], 3])
    def test_bad_sources_rejected_before_any_work(self, sources):
        g = hidden_potential_graph(15, 60, seed=1)
        tr = Tracer()
        with tracing(tr), pytest.raises(InputValidationError,
                                        match="sources"):
            all_pairs_shortest_paths(g, sources=sources)
        assert not tr.spans

    def test_negative_cycle(self):
        g, _ = planted_negative_cycle_graph(15, 60, 3, seed=2)
        res = all_pairs_shortest_paths(g)
        assert res.has_negative_cycle
        assert validate_negative_cycle(g, res.negative_cycle)
        assert res.dist is None

    def test_parallel_dijkstra_span(self):
        """Per-source Dijkstras compose in parallel: the span of solving
        all n sources barely exceeds the span of solving one."""
        g = hidden_potential_graph(20, 80, seed=3)
        acc_all = CostAccumulator()
        all_pairs_shortest_paths(g, acc=acc_all, seed=3)
        acc_one = CostAccumulator()
        all_pairs_shortest_paths(g, acc=acc_one, seed=3,
                                 sources=np.array([0]))
        assert acc_all.work > acc_one.work * 1.3    # work scales with rows
        assert acc_all.span_model < acc_one.span_model * 1.2  # span doesn't


class TestDagLongestPaths:
    def test_chain(self):
        g = negative_chain_gadget(4)  # weights -1; flip to +1
        g = g.with_weights(-g.w)
        res = dag_longest_paths(g, 0, limit=4)
        assert res.dist.tolist() == [0, 1, 2, 3, 4]

    def test_limit(self):
        g = negative_chain_gadget(5)
        g = g.with_weights(-g.w)
        res = dag_longest_paths(g, 0, limit=3)
        assert res.dist[3] == 3
        assert res.dist[4] == np.inf  # longest path exceeds the limit
        assert res.dist[5] == np.inf

    def test_unreachable_minus_inf(self):
        g = DiGraph.from_edges(3, [(0, 1, 1)])
        res = dag_longest_paths(g, 0, limit=4)
        assert res.dist[2] == -np.inf

    def test_rejects_bad_weights(self):
        g = DiGraph.from_edges(2, [(0, 1, 3)])
        with pytest.raises(ValueError, match="0, 1"):
            dag_longest_paths(g, 0, limit=2)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_negated_reference(self, seed):
        from repro.baselines import dag_sssp

        g = random_dag(25, 100, weights=(0, 1), seed=seed)
        res = dag_longest_paths(g, 0, limit=30)
        ref = dag_sssp(g.with_weights(-g.w), 0)
        expect = -ref.dist
        # limit 30 is generous; exact everywhere reachable
        finite = np.isfinite(expect)
        np.testing.assert_array_equal(res.dist[finite], expect[finite])


class TestDifferenceConstraints:
    def test_feasible_system(self):
        #  x1 - x0 <= 0 ; x2 - x1 <= -1 ; x2 - x0 <= -3
        res = solve_difference_constraints(
            3, [(0, 1, 0), (1, 2, -1), (0, 2, -3)])
        assert res.feasible
        x = res.assignment
        assert x[1] - x[0] <= 0
        assert x[2] - x[1] <= -1
        assert x[2] - x[0] <= -3

    def test_infeasible_system(self):
        # x1 - x0 <= -1 and x0 - x1 <= 0  =>  0 <= -1, contradiction
        res = solve_difference_constraints(2, [(0, 1, -1), (1, 0, 0)])
        assert not res.feasible
        assert set(res.infeasible_cycle) <= {0, 1}

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(-3, 6)), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_property_solution_satisfies_all(self, raw):
        constraints = [(i, j, c) for i, j, c in raw if i != j]
        res = solve_difference_constraints(6, constraints)
        if res.feasible:
            x = res.assignment
            for i, j, c in constraints:
                assert x[j] - x[i] <= c
        else:
            # certificate must be a genuinely contradictory cycle: the sum
            # of constraint constants around it is negative
            cyc = res.infeasible_cycle
            lookup = {}
            for i, j, c in constraints:
                lookup[(i, j)] = min(lookup.get((i, j), c), c)
            total = sum(lookup[(cyc[k], cyc[(k + 1) % len(cyc)])]
                        for k in range(len(cyc)))
            assert total < 0


class TestThreadedBellmanFord:
    """``bellman_ford_parallel`` on the thread backend."""

    def test_matches_reference_without_pool(self):
        g = hidden_potential_graph(25, 100, seed=4)
        a = bellman_ford_parallel(g, 0)
        b = bellman_ford(g, 0)
        np.testing.assert_array_equal(a.dist, b.dist)

    def test_matches_reference_with_pool(self):
        g = hidden_potential_graph(40, 200, seed=5)
        with ForkJoinPool(n_workers=3) as pool:
            a = bellman_ford_parallel(g, 0, backend=pool, grain=32)
        b = bellman_ford(g, 0)
        np.testing.assert_array_equal(a.dist, b.dist)
        np.testing.assert_array_equal(a.parent, b.parent)
        assert (a.rounds, a.cost) == (b.rounds, b.cost)

    def test_negative_cycle_delegates(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -3), (2, 1, 1)])
        with ForkJoinPool(n_workers=2) as pool:
            res = bellman_ford_parallel(g, 0, backend=pool, grain=1)
        assert res.has_negative_cycle
        assert validate_negative_cycle(g, res.negative_cycle)
        assert res.negative_cycle == bellman_ford(g, 0).negative_cycle
