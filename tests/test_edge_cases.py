"""Edge-case and failure-path tests that the mainline suites don't reach."""

import numpy as np
import pytest

from repro.core import one_reweighting, solve_sssp
from repro.core.improvement import ImprovementOutcome
from repro.dag01 import dag01_limited_sssp
from repro.graph import DiGraph, hidden_potential_graph
from repro.limited import limited_sssp
from repro.runtime import CostAccumulator


class TestIterationBudget:
    def test_stalled_improvement_raises(self, monkeypatch):
        """A (hypothetical) improvement that makes no progress must trip the
        safety valve instead of looping forever."""
        import repro.core.goldberg as goldberg

        def stalled(g, w_red, **kw):
            return ImprovementOutcome(
                k=1, method="independent-set",
                price_delta=np.zeros(g.n, dtype=np.int64), improved=0)

        monkeypatch.setattr(goldberg, "sqrt_k_improvement", stalled)
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        with pytest.raises(RuntimeError, match="iteration budget"):
            one_reweighting(g, max_iterations=5)

    def test_explicit_iteration_budget_respected(self):
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        # one iteration suffices for this instance
        res = one_reweighting(g, max_iterations=3)
        assert res.feasible


class TestDegenerateGraphs:
    def test_empty_graph_everything(self):
        g = DiGraph.from_edges(1, [])
        assert solve_sssp(g, 0).dist.tolist() == [0]
        assert limited_sssp(g, 0, 3).dist.tolist() == [0]
        assert dag01_limited_sssp(g, 0, 3).dist.tolist() == [0]

    def test_two_isolated_vertices(self):
        g = DiGraph.from_edges(2, [])
        res = solve_sssp(g, 1)
        assert res.dist.tolist() == [np.inf, 0]

    def test_single_negative_edge(self):
        g = DiGraph.from_edges(2, [(0, 1, -7)])
        res = solve_sssp(g, 0)
        assert res.dist.tolist() == [0, -7]
        assert len(res.stats.scales) >= 3  # log2(7) scales

    def test_positive_self_loop_harmless(self):
        g = DiGraph.from_edges(2, [(0, 0, 5), (0, 1, 1)])
        res = solve_sssp(g, 0)
        assert res.dist.tolist() == [0, 1]

    def test_negative_self_loop_is_cycle(self):
        g = DiGraph.from_edges(2, [(0, 0, -1), (0, 1, 1)])
        res = solve_sssp(g, 0)
        assert res.has_negative_cycle
        assert res.negative_cycle == [0]

    def test_zero_self_loop_harmless(self):
        g = DiGraph.from_edges(2, [(0, 0, 0), (0, 1, -2)])
        res = solve_sssp(g, 0)
        assert res.dist.tolist() == [0, -2]

    def test_parallel_negative_edges(self):
        g = DiGraph.from_edges(2, [(0, 1, -3), (0, 1, -5), (0, 1, 2)])
        res = solve_sssp(g, 0)
        assert res.dist.tolist() == [0, -5]

    def test_two_vertex_zero_cycle_with_negative_entry(self):
        g = DiGraph.from_edges(3, [(0, 1, -4), (1, 2, 0), (2, 1, 0)])
        res = solve_sssp(g, 0)
        assert res.dist.tolist() == [0, -4, -4]


class TestAccumulatorSharing:
    def test_one_accumulator_across_calls(self):
        """Users can thread one ledger through several solves."""
        acc = CostAccumulator()
        g1 = hidden_potential_graph(20, 80, seed=3)
        g2 = hidden_potential_graph(20, 80, seed=4)
        r1 = solve_sssp(g1, 0, acc=acc, seed=3)
        mid = acc.work
        r2 = solve_sssp(g2, 0, acc=acc, seed=4)
        assert acc.work == pytest.approx(r1.cost.work + r2.cost.work)
        assert acc.work > mid
