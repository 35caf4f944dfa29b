"""Tests for §4 LimitedSP (Algorithm 3, Theorem 15) and its machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assp import DeltaSteppingAssp, ExactAssp, FlakyAssp, PerturbedAssp
from repro.baselines import dijkstra
from repro.graph import DiGraph, grid_graph, random_digraph, zero_heavy_digraph
from repro.limited import (
    IntervalTable,
    LimitedSpResult,
    VerificationError,
    limited_sssp,
    smallest_power_of_two_above,
    verify_limited_distances,
    shortest_path_tree,
)
from repro.runtime import CostAccumulator


def reference(g, source, limit):
    d = dijkstra(g, source).dist
    d[d > limit] = np.inf
    return d


def assert_limited_correct(g, source, limit, **kw):
    res = limited_sssp(g, source, limit, **kw)
    np.testing.assert_array_equal(res.dist, reference(g, source, limit))
    return res


class TestSmallestPowerOfTwoAbove:
    @pytest.mark.parametrize("x,expect", [(0, 1), (1, 2), (2, 4), (3, 4),
                                          (4, 8), (7, 8), (8, 16)])
    def test_values(self, x, expect):
        assert smallest_power_of_two_above(x) == expect

    def test_negative(self):
        with pytest.raises(ValueError):
            smallest_power_of_two_above(-1)


class TestIntervalTable:
    def test_assign_and_members(self):
        t = IntervalTable(5)
        t.assign(np.array([1, 3]), 0, 4)
        assert t.members(0, 4).tolist() == [1, 3]
        assert t.start[1] == 0 and t.size[3] == 4

    def test_reassign_moves(self):
        t = IntervalTable(5)
        t.assign(np.array([1]), 0, 4)
        t.assign(np.array([1]), 2, 2)
        assert t.members(0, 4).tolist() == []
        assert t.members(2, 2).tolist() == [1]

    def test_remove(self):
        t = IntervalTable(3)
        t.assign(np.array([0, 1]), 0, 2)
        t.remove(np.array([0]))
        assert t.members(0, 2).tolist() == [1]

    def test_additions_counted(self):
        t = IntervalTable(3)
        t.assign(np.array([0]), 0, 8)
        t.assign(np.array([0]), 0, 4)
        assert t.additions[0] == 2

    def test_invalid_interval(self):
        t = IntervalTable(2)
        with pytest.raises(ValueError):
            t.assign(np.array([0]), -1, 2)
        with pytest.raises(ValueError):
            t.assign(np.array([0]), 0, 0)

    def test_overlap_keys(self):
        t = IntervalTable(10)
        t.assign(np.array([0]), 0, 8)    # [0, 8)
        t.assign(np.array([1]), 4, 4)    # [4, 8)
        t.assign(np.array([2]), 6, 1)    # [6, 7)
        t.assign(np.array([3]), 8, 2)    # [8, 10)
        keys = set(t.overlap_keys(4, 4, max_size=16))
        assert (0, 8) in keys and (4, 4) in keys and (6, 1) in keys
        assert (8, 2) not in keys

    def test_overlap_keys_left_neighbour(self):
        t = IntervalTable(4)
        t.assign(np.array([0]), 2, 4)    # [2, 6)
        keys = t.overlap_keys(4, 2, max_size=8)
        assert (2, 4) in keys

    def test_gather_filters_stale(self):
        t = IntervalTable(4)
        t.assign(np.array([0, 1]), 0, 4)
        t.assign(np.array([1]), 2, 2)   # 1's old entry in (0,4) is stale
        got = t.gather([(0, 4)])
        assert got.tolist() == [0]

    def test_unassigned(self):
        t = IntervalTable(3)
        t.assign(np.array([1]), 0, 2)
        assert t.unassigned().tolist() == [0, 2]


class TestLimitedExactEngine:
    def test_line_graph(self):
        g = DiGraph.from_edges(5, [(i, i + 1, 1) for i in range(4)])
        assert_limited_correct(g, 0, 2)

    def test_zero_weight_chain(self):
        g = DiGraph.from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 5)])
        assert_limited_correct(g, 0, 3)

    def test_zero_weight_cycle(self):
        g = DiGraph.from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 0, 0),
                                   (2, 3, 2)])
        assert_limited_correct(g, 0, 4)

    def test_limit_zero(self):
        g = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 1)])
        res = assert_limited_correct(g, 0, 0)
        assert res.dist.tolist() == [0, 0, np.inf]

    def test_unreachable(self):
        g = DiGraph.from_edges(3, [(0, 1, 1)])
        res = assert_limited_correct(g, 0, 5)
        assert res.dist[2] == np.inf

    def test_single_vertex(self):
        g = DiGraph.from_edges(1, [])
        res = limited_sssp(g, 0, 4)
        assert res.dist.tolist() == [0]

    @pytest.mark.parametrize("seed", range(6))
    def test_random(self, seed):
        g = random_digraph(35, 180, min_w=0, max_w=6, seed=seed)
        assert_limited_correct(g, 0, 12)

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 5, 9, 17, 64])
    def test_limit_sweep(self, limit):
        g = zero_heavy_digraph(30, 160, p_zero=0.5, seed=2)
        assert_limited_correct(g, 0, limit)

    def test_grid_high_diameter(self):
        g = grid_graph(6, 6, min_w=0, max_w=2, seed=1)
        assert_limited_correct(g, 0, 9)

    @pytest.mark.parametrize("engine, limit", [
        (ExactAssp(), 17), (ExactAssp(), 12), (DeltaSteppingAssp(), 12)])
    def test_mid_size_zero_heavy_is_verified(self, engine, limit):
        g = zero_heavy_digraph(300, 1500, p_zero=0.4, seed=0)
        assert limited_sssp(g, 0, limit, engine=engine).verified

    @given(st.integers(0, 50_000), st.integers(0, 12))
    @settings(max_examples=25, deadline=None)
    def test_property_random(self, seed, limit):
        g = zero_heavy_digraph(16, 60, p_zero=0.4, max_w=4, seed=seed)
        assert_limited_correct(g, 0, limit)


class TestLimitedOtherEngines:
    @pytest.mark.parametrize("seed", range(3))
    def test_perturbed(self, seed):
        g = zero_heavy_digraph(30, 150, p_zero=0.4, seed=seed)
        assert_limited_correct(g, 0, 10,
                               engine=PerturbedAssp(seed=seed), eps=0.2)

    @pytest.mark.parametrize("seed", range(3))
    def test_delta_stepping(self, seed):
        g = random_digraph(30, 140, min_w=0, max_w=5, seed=seed)
        assert_limited_correct(g, 0, 8, engine=DeltaSteppingAssp())

    def test_flaky_retries_until_verified(self):
        g = zero_heavy_digraph(25, 120, p_zero=0.4, seed=4)
        engine = FlakyAssp(p_fail=0.4, seed=11)
        res = assert_limited_correct(g, 0, 8, engine=engine,
                                     max_retries=50)
        assert res.verified

    def test_flaky_always_fails_raises(self):
        g = DiGraph.from_edges(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2)])

        class AlwaysWrong:
            name = "always-wrong"

            def __call__(self, g2, s, eps, acc=None, model=None,
                         weights=None):
                d = ExactAssp()(g2, s, eps, acc, model, weights)
                out = d.copy()
                out[np.isfinite(out) & (out > 0)] += 100  # gross inflation
                return out

        with pytest.raises(VerificationError):
            limited_sssp(g, 0, 6, engine=AlwaysWrong(), max_retries=2)


class TestLimitedValidation:
    def test_rejects_negative_weights(self):
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        with pytest.raises(ValueError, match="nonnegative"):
            limited_sssp(g, 0, 3)

    def test_rejects_bad_eps(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="eps"):
            limited_sssp(g, 0, 3, eps=0.5)
        with pytest.raises(ValueError, match="eps"):
            limited_sssp(g, 0, 3, eps=0.0)

    def test_rejects_bad_source(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="source"):
            limited_sssp(g, 7, 3)

    def test_rejects_negative_limit(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="limit"):
            limited_sssp(g, 0, -2)


class TestShortestPathTree:
    def walk_weight(self, g, parent, v):
        total = 0
        seen = set()
        while parent[v] >= 0:
            assert v not in seen, "parent cycle"
            seen.add(v)
            p = int(parent[v])
            total += g.min_weight_between(p, v)
            v = p
        return total, v

    @pytest.mark.parametrize("seed", range(4))
    def test_tree_realises_distances(self, seed):
        g = zero_heavy_digraph(30, 150, p_zero=0.5, seed=seed)
        res = limited_sssp(g, 0, 15)
        for v in range(g.n):
            if np.isfinite(res.dist[v]) and v != 0:
                total, root = self.walk_weight(g, res.parent, v)
                assert root == 0
                assert total == res.dist[v]

    def test_source_and_far_have_no_parent(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 50)])
        res = limited_sssp(g, 0, 5)
        assert res.parent[0] == -1
        assert res.parent[2] == -1


class TestVerifier:
    def test_accepts_correct(self):
        g = zero_heavy_digraph(25, 120, p_zero=0.4, seed=0)
        d = reference(g, 0, 10)
        assert verify_limited_distances(g, 0, d, 10)

    def test_rejects_too_small(self):
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, 2)])
        assert not verify_limited_distances(
            g, 0, np.array([0.0, 1.0, 4.0]), 10)

    def test_rejects_too_large(self):
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, 2)])
        assert not verify_limited_distances(
            g, 0, np.array([0.0, 3.0, 5.0]), 10)

    def test_rejects_missed_vertex(self):
        # vertex within limit reported as inf
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, 2)])
        assert not verify_limited_distances(
            g, 0, np.array([0.0, 2.0, np.inf]), 10)

    def test_rejects_finite_beyond_limit(self):
        g = DiGraph.from_edges(2, [(0, 1, 9)])
        assert not verify_limited_distances(
            g, 0, np.array([0.0, 9.0]), 5)

    def test_rejects_zero_cycle_disagreement(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 0), (2, 1, 0)])
        assert not verify_limited_distances(
            g, 0, np.array([0.0, 1.0, 2.0]), 10)

    def test_accepts_beyond_limit_inf(self):
        g = DiGraph.from_edges(3, [(0, 1, 3), (1, 2, 3)])
        assert verify_limited_distances(
            g, 0, np.array([0.0, 3.0, np.inf]), 4)

    def test_rejects_wrong_source(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        assert not verify_limited_distances(g, 0, np.array([1.0, 2.0]), 5)


class TestInstrumentation:
    def test_interval_additions_bounded(self):
        """Lemma 13: O(lg^2 D) interval additions per vertex."""
        g = zero_heavy_digraph(50, 300, p_zero=0.3, max_w=4, seed=7)
        res = limited_sssp(g, 0, 32)
        bound = 6 * np.log2(64 + 2) ** 2
        assert res.interval_additions.max() <= bound

    def test_costs_accumulate(self):
        g = random_digraph(30, 120, min_w=0, max_w=4, seed=8)
        acc = CostAccumulator()
        res = limited_sssp(g, 0, 10, acc=acc)
        assert acc.work == res.cost.work > 0
        assert res.refine_calls > 0
        assert res.refine_node_total > 0

    def test_zero_retries_with_exact_engine(self):
        g = random_digraph(20, 80, min_w=0, max_w=4, seed=9)
        res = limited_sssp(g, 0, 6)
        assert res.retries == 0
